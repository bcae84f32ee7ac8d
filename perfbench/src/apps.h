// Seeded inputs shared by the attach_session and tool_io workloads: slim
// application images, and a docker engine that records a span around the
// one call Cntr makes into it.
#ifndef PERFBENCH_SRC_APPS_H_
#define PERFBENCH_SRC_APPS_H_

#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/container/engine.h"
#include "src/container/image.h"
#include "src/util/rng.h"

namespace perfbench {

// A slim application image and what the benchmark expects to find in it.
struct AppSpec {
  std::string name;                     // e.g. "svc-kqzt"
  cntr::container::Image image;
  std::string binary_path;              // /usr/bin/<name>
  uint64_t binary_size = 0;
  std::string conf_path;                // /etc/<name>/<name>.conf
  std::string conf;                     // its literal content
  std::string data_dir;                 // /usr/share/<name>
  std::vector<std::string> data_files;  // names under data_dir
};

AppSpec MakeApp(cntr::Rng& rng);

uint64_t DigestApp(uint64_t h, const AppSpec& app);

// DockerEngine whose ResolveNameToPid records a container.resolve span.
// Cntr::Attach resolves the app container and, with a fat container, the
// tools container too.
class TimedDockerEngine : public cntr::container::DockerEngine {
 public:
  TimedDockerEngine(cntr::container::ContainerRuntime* runtime,
                    cntr::container::Registry* registry)
      : DockerEngine(runtime, registry) {}

  void set_recorder(Recorder* rec) { rec_ = rec; }

  cntr::StatusOr<cntr::kernel::Pid> ResolveNameToPid(const std::string& name) const override;

 private:
  Recorder* rec_ = nullptr;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_APPS_H_
