#include "perfbench/src/apps.h"

namespace perfbench {

using cntr::container::FileClass;
using cntr::container::ImageFile;
using cntr::container::Layer;

namespace {

std::string Word(cntr::Rng& rng, size_t len) {
  std::string out;
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>('a' + rng.Below(26)));
  }
  return out;
}

}  // namespace

AppSpec MakeApp(cntr::Rng& rng) {
  AppSpec app;
  app.name = "svc-" + Word(rng, 4);
  app.binary_path = "/usr/bin/" + app.name;
  // Materialized files are zero-filled host memory, so the size varies by
  // at most 252 KiB between seeds to keep peak_rss_mb from following the seed.
  app.binary_size = (6ull << 20) + (rng.Below(64) << 12);
  app.conf_path = "/etc/" + app.name + "/" + app.name + ".conf";
  app.conf = "# " + app.name + " configuration\n";
  for (uint64_t i = 0, n = rng.Range(3, 8); i < n; ++i) {
    app.conf += Word(rng, rng.Range(4, 10)) + "=" + std::to_string(rng.Below(100000)) + "\n";
  }
  app.data_dir = "/usr/share/" + app.name;

  Layer layer;
  layer.id = "app-" + app.name;
  layer.files.push_back(ImageFile{app.binary_path, app.binary_size, 0755, FileClass::kAppBinary, ""});
  layer.files.push_back(
      ImageFile{app.conf_path, app.conf.size(), 0644, FileClass::kConfig, app.conf});
  for (uint64_t i = 0, n = rng.Range(2, 5); i < n; ++i) {
    std::string file = "data-" + std::to_string(i);
    app.data_files.push_back(file);
    layer.files.push_back(ImageFile{app.data_dir + "/" + file, rng.Range(16, 64) << 10, 0644,
                                    FileClass::kAppData, ""});
  }
  app.image = cntr::container::Image("bench/" + app.name, "slim");
  app.image.AddLayer(std::move(layer));
  app.image.entrypoint() = app.binary_path;
  for (uint64_t i = 0, n = rng.Range(4, 12); i < n; ++i) {
    app.image.env()["APP_" + Word(rng, 6)] = Word(rng, rng.Range(8, 40));
  }
  return app;
}

uint64_t DigestApp(uint64_t h, const AppSpec& app) {
  h = Fnv(h, app.name);
  h = Fnv(h, app.conf);
  h = Fnv(h, std::to_string(app.binary_size));
  for (const auto& f : app.image.Flatten()) {
    h = Fnv(h, f.path + ":" + std::to_string(f.size));
  }
  for (const auto& [k, v] : app.image.env()) {
    h = Fnv(h, k + "=" + v);
  }
  return h;
}

cntr::StatusOr<cntr::kernel::Pid> TimedDockerEngine::ResolveNameToPid(
    const std::string& name) const {
  if (rec_ == nullptr) {
    return DockerEngine::ResolveNameToPid(name);
  }
  auto mark = rec_->Begin("container.resolve");
  auto pid = DockerEngine::ResolveNameToPid(name);
  rec_->End(mark);
  return pid;
}

}  // namespace perfbench
