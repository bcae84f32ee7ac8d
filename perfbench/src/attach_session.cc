// attach_session: Cntr's headline workflow. A few slim app containers and
// one fat tools container run on one kernel; each round attaches to every
// app with the tools container as the fat image, runs that app's seeded
// toolbox script and detaches. Attach set-up and metadata traffic
// (LOOKUP/GETATTR through CntrFS, dcache) dominate; almost no bulk data
// moves, so this isolates the request and attach paths from the data path.
#include <algorithm>
#include <set>

#include "perfbench/src/apps.h"
#include "perfbench/src/bench.h"
#include "perfbench/src/layers.h"
#include "src/core/attach.h"
#include "src/util/strings.h"

namespace perfbench {
namespace {

using cntr::Status;
namespace container = cntr::container;
namespace core = cntr::core;

// One toolbox command and the output the generated inputs imply.
struct Command {
  std::string line;
  enum class Expect { kExact, kContains, kPrefix, kLineSet } expect = Expect::kExact;
  std::vector<std::string> want;  // kContains: every item; else want[0] or the line set

  bool Holds(const std::string& out) const {
    switch (expect) {
      case Expect::kExact:
        return out == want[0];
      case Expect::kPrefix:
        return out.rfind(want[0], 0) == 0;
      case Expect::kContains:
        return std::all_of(want.begin(), want.end(),
                           [&](const std::string& w) { return out.find(w) != std::string::npos; });
      case Expect::kLineSet: {
        auto lines = cntr::SplitString(out, '\n');
        std::multiset<std::string> got;
        for (auto& l : lines) {
          if (!l.empty()) {
            got.insert(l);
          }
        }
        return got == std::multiset<std::string>(want.begin(), want.end());
      }
    }
    return false;
  }
};

// The shell resolves `which` through the tools' PATH.
constexpr const char* kToolsPath[] = {"/usr/local/bin", "/usr/bin", "/bin", "/usr/sbin", "/sbin"};

constexpr int kApps = 4;

class AttachSession : public Workload {
 public:
  explicit AttachSession(uint64_t seed) : seed_(seed) {}

  Status Setup(Recorder& rec) override {
    kernel_ = cntr::kernel::Kernel::Create();
    rec.SetClock(&kernel_->clock());
    runtime_ = std::make_unique<container::ContainerRuntime>(kernel_.get());
    registry_ = std::make_unique<container::Registry>(&kernel_->clock());
    engine_ = std::make_shared<TimedDockerEngine>(runtime_.get(), registry_.get());
    cntr::Rng rng(seed_ ^ 0xa77ac4u);
    for (int i = 0; i < kApps; ++i) {
      apps_.push_back(MakeApp(rng));
      CNTR_RETURN_IF_ERROR(engine_->Run("app" + std::to_string(i), apps_.back().image).status());
    }
    CNTR_RETURN_IF_ERROR(engine_->Run("tools", container::MakeFatToolsImage("debian")).status());
    cntr_ = std::make_unique<core::Cntr>(kernel_.get());
    cntr_->RegisterEngine(engine_);
    for (const auto& app : apps_) {
      scripts_.push_back(MakeScript(app, rng));
    }
    // Warm the host-side caches the first attach would otherwise fill, so
    // every timed round repeats the same virtual-time work.
    Recorder warm;
    CNTR_RETURN_IF_ERROR(Round(warm));
    if (warm.failed() != 0) {
      return Status::Error(EIO, "warm-up round failed its output checks");
    }
    sessions_ = 0;
    series_at_start_ = CountSeries(kernel_->metrics().RenderPrometheus());
    return Status::Ok();
  }

  Status Round(Recorder& rec) override {
    rec.SetClock(&kernel_->clock());
    engine_->set_recorder(&rec);
    const bool traced = rec.tracing();
    KernelCounters k0 = traced ? KernelCounters::Of(*kernel_) : KernelCounters{};
    uint64_t v0 = rec.VNow();
    for (size_t i = 0; i < apps_.size(); ++i) {
      Session(rec, "app" + std::to_string(i), scripts_[i]);
    }
    if (traced) {
      AddRoundKernel(rec, *kernel_, k0, rec.VNow() - v0);
    }
    engine_->set_recorder(nullptr);
    return Status::Ok();
  }

  // 50 rounds is 200 sessions: the registry keeps every detached session's
  // series (obs.registry.series_per_session), so a longer epoch would tie
  // host cost and peak RSS to the run length.
  size_t RoundsPerEpoch() const override { return 50; }

  void Finish(Recorder& rec) override {
    std::string prom = kernel_->metrics().RenderPrometheus();
    uint64_t series = CountSeries(prom);
    rec.Max("obs.registry.series", static_cast<double>(series));
    rec.Add("obs.registry.series_growth", static_cast<double>(series - series_at_start_));
    rec.Add("sessions", static_cast<double>(sessions_));
    AddFuseOpsDelta(rec, FuseOps{}, ParseFuseOps(prom, traced_mounts_));
  }

  uint64_t InputDigest() const override {
    uint64_t h = kFnvBasis;
    for (const auto& app : apps_) {
      h = DigestApp(h, app);
    }
    for (const auto& script : scripts_) {
      for (const auto& cmd : script) {
        h = Fnv(h, cmd.line);
      }
    }
    return h;
  }

 private:
  void Session(Recorder& rec, const std::string& app, const std::vector<Command>& script) {
    const uint64_t sid = ++session_ids_;
    ++sessions_;
    core::AttachOptions opts;
    opts.fat_container = "tools";
    auto mark = rec.Begin("core.attach", sid);
    auto session = cntr_->Attach("docker", app, opts);
    uint64_t vns = rec.End(mark);
    rec.Op(session.status(), "attach");
    if (!session.ok()) {
      return;
    }
    rec.Sample("attach_ms", static_cast<double>(vns) * 1e-6);
    core::AttachedSession& s = *session.value();
    const bool traced = rec.tracing();
    SessionCounters c0 = traced ? SessionCounters::Of(s) : SessionCounters{};
    for (const auto& cmd : script) {
      mark = rec.Begin("core.shell.exec", sid);
      std::string out = s.Execute(cmd.line);
      vns = rec.End(mark);
      bool ok = cmd.Holds(out);
      rec.Op(ok, "command", ok ? std::string() : cmd.line + " -> " + out);
      rec.Sample("cmd_us", static_cast<double>(vns) * 1e-3);
    }
    if (traced) {
      AddSessionDelta(rec, c0, SessionCounters::Of(s));
      rec.Add("cmds", static_cast<double>(script.size()));
      traced_mounts_.insert(s.fuse_fs()->conn().mount_label());
    }
    mark = rec.Begin("core.detach", sid);
    Status st = s.Detach();
    session.value().reset();
    rec.End(mark);
    rec.Op(st, "detach");
  }

  std::vector<Command> MakeScript(const AppSpec& app, cntr::Rng& rng) const {
    using E = Command::Expect;
    // The tools image's manifest says where `which` finds each tool and
    // what `ls /usr/bin` lists.
    std::vector<container::ImageFile> tools = container::MakeFatToolsImage("debian").Flatten();
    std::map<std::string, const container::ImageFile*> by_path;
    std::vector<std::string> usr_bin;
    for (const auto& f : tools) {
      by_path[f.path] = &f;
      if (f.path.rfind("/usr/bin/", 0) == 0 && f.path.find('/', 9) == std::string::npos) {
        usr_bin.push_back(f.path.substr(9));
      }
    }
    std::vector<std::string> debug_tools;
    for (const auto& f : tools) {
      if (f.file_class == container::FileClass::kDebugTool) {
        debug_tools.push_back(f.path.substr(f.path.rfind('/') + 1));
      }
    }
    auto which = [&](const std::string& tool) {
      for (const char* dir : kToolsPath) {
        auto it = by_path.find(std::string(dir) + "/" + tool);
        if (it != by_path.end() && (it->second->mode & 0111) != 0) {
          return it->first + "\n";
        }
      }
      return tool + " not found\n";
    };
    std::string tool = debug_tools[rng.Below(debug_tools.size())];
    std::string tool2 = usr_bin[rng.Below(usr_bin.size())];
    const std::string app_root = "/var/lib/cntr";
    std::vector<Command> script = {
        {"which " + tool, E::kExact, {which(tool)}},
        {"ls " + app_root + app.data_dir, E::kLineSet, app.data_files},
        {"stat " + app_root + app.binary_path, E::kContains,
         {"mode=-755", "size=" + std::to_string(app.binary_size) + "\n"}},
        {"cat " + app_root + app.conf_path, E::kExact, {app.conf}},
        {"ps", E::kContains, {"PID\tCMD\n", "\n1\t"}},
        {"gdb -p 1", E::kPrefix, {"Attaching to process 1 ("}},
        {"stat /usr/bin/" + tool2, E::kContains,
         {"size=" + std::to_string(by_path["/usr/bin/" + tool2]->size) + "\n"}},
        {"ls /usr/bin", E::kLineSet, usr_bin},
    };
    // The order stays fixed: the first command to touch a directory pays
    // its cold FUSE lookups, so a seeded order would move the percentiles
    // between seeds by more than any change under test.
    return script;
  }

  const uint64_t seed_;
  std::unique_ptr<cntr::kernel::Kernel> kernel_;
  std::unique_ptr<container::ContainerRuntime> runtime_;
  std::unique_ptr<container::Registry> registry_;
  std::shared_ptr<TimedDockerEngine> engine_;
  std::unique_ptr<core::Cntr> cntr_;
  std::vector<AppSpec> apps_;
  std::vector<std::vector<Command>> scripts_;
  uint64_t session_ids_ = 0;
  uint64_t sessions_ = 0;  // timed sessions, for series growth per session
  uint64_t series_at_start_ = 0;
  std::set<std::string> traced_mounts_;
};

}  // namespace

std::unique_ptr<Workload> MakeAttachSession(uint64_t seed) {
  return std::make_unique<AttachSession>(seed);
}

}  // namespace perfbench
