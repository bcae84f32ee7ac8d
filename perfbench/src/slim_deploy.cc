// slim_deploy: the image-reduction path (paper §5.3) with no FUSE at all.
// Over the Top-50 dataset (all three families), each image is analysed by
// DockerSlim with a seeded exercise order, the slim image is pushed, then
// run from the registry and stopped. This exercises container, slim,
// image materialization and memfs, and is where host memory and host time
// go today.
//
// Each group of kImagesPerNode images runs on a fresh kernel (a fresh
// node), which bounds the run's peak RSS: the materialized root
// filesystems a kernel keeps after Stop are freed with it.
#include <cmath>
#include <set>

#include "perfbench/src/bench.h"
#include "perfbench/src/layers.h"
#include "src/slim/dataset.h"
#include "src/slim/slimmer.h"

namespace perfbench {
namespace {

using cntr::Status;
namespace container = cntr::container;

constexpr size_t kImagesPerNode = 4;

// Reduction the docker-slim rules imply for `entry`, from its manifest:
// the touched paths, the entrypoint and every config file are kept.
double ExpectedReductionPct(const cntr::slim::DatasetImage& entry) {
  std::set<std::string> keep(entry.runtime_paths.begin(), entry.runtime_paths.end());
  keep.insert(entry.image.entrypoint());
  uint64_t total = 0;
  uint64_t kept = 0;
  for (const auto& f : entry.image.Flatten()) {
    total += f.size;
    if (keep.count(f.path) != 0 || f.file_class == container::FileClass::kConfig) {
      kept += f.size;
    }
  }
  return total == 0 ? 0.0
                    : 100.0 * (1.0 - static_cast<double>(kept) / static_cast<double>(total));
}

class SlimDeploy : public Workload {
 public:
  explicit SlimDeploy(uint64_t seed) : seed_(seed) {}

  Status Setup(Recorder& /*rec*/) override {
    // The whole dataset: a seeded half-sample moved deploy_ms_p50 by 10%
    // between seeds, since image sizes differ by an order of magnitude
    // across the three families. The seed sets each image's exercise script
    // order: the order in which DockerSlim's dynamic analysis touches the
    // application's files.
    cntr::Rng rng(seed_ ^ 0x5113u);
    for (cntr::slim::DatasetImage& entry : cntr::slim::Top50Images()) {
      auto& paths = entry.runtime_paths;
      for (size_t j = paths.size(); j > 1; --j) {
        std::swap(paths[j - 1], paths[rng.Below(j)]);
      }
      sample_.push_back(std::move(entry));
      expected_.push_back(ExpectedReductionPct(sample_.back()));
    }
    return Status::Ok();
  }

  Status Round(Recorder& rec) override {
    for (size_t first = 0; first < sample_.size(); first += kImagesPerNode) {
      Node(rec, first, std::min(sample_.size(), first + kImagesPerNode));
    }
    return Status::Ok();
  }

  uint64_t InputDigest() const override {
    uint64_t h = kFnvBasis;
    for (const auto& entry : sample_) {
      h = Fnv(h, entry.image.Ref());
      for (const auto& path : entry.runtime_paths) {
        h = Fnv(h, path);
      }
    }
    return h;
  }

 private:
  // Deploys sample_[first, last) on a fresh kernel.
  void Node(Recorder& rec, size_t first, size_t last) {
    auto kernel = cntr::kernel::Kernel::Create();
    container::ContainerRuntime runtime(kernel.get());
    container::Registry registry(&kernel->clock());
    container::DockerEngine engine(&runtime, &registry);
    cntr::slim::DockerSlim slimmer(kernel.get(), &engine);
    rec.SetClock(&kernel->clock());
    const bool traced = rec.tracing();
    KernelCounters k0 = traced ? KernelCounters::Of(*kernel) : KernelCounters{};
    const uint64_t v0 = rec.VNow();
    for (size_t i = first; i < last; ++i) {
      Deploy(rec, slimmer, registry, engine, i);
    }
    if (traced) {
      AddRoundKernel(rec, *kernel, k0, rec.VNow() - v0);
    }
    rec.SetClock(nullptr);
  }

  void Deploy(Recorder& rec, cntr::slim::DockerSlim& slimmer, container::Registry& registry,
              container::DockerEngine& engine, size_t i) {
    const cntr::slim::DatasetImage& entry = sample_[i];
    const uint64_t id = ++image_ids_;
    const bool traced = rec.tracing();
    const double heap0 = traced ? HeapInUseMb() : 0.0;
    const uint64_t bytes0 = registry.bytes_transferred();
    const std::string name = "prod-" + std::to_string(id);

    auto deploy = rec.Begin("slim_deploy.deploy", id);
    auto mark = rec.Begin("slim.analyze", id);
    auto result = slimmer.Analyze(entry.image, entry.runtime_paths);
    rec.End(mark);
    bool ok = result.ok() && result->validated &&
              std::fabs(result->reduction_pct - expected_[i]) < 1e-9;
    bool running = false;
    if (result.ok()) {
      mark = rec.Begin("container.push", id);
      registry.Push(result->slim_image);
      rec.End(mark);
      mark = rec.Begin("container.run", id);
      auto container = engine.RunFromRegistry(name, result->slim_image.Ref());
      rec.End(mark);
      running = container.ok() && (*container)->running() && (*container)->init_proc() != nullptr;
    }
    uint64_t vns = rec.End(deploy);
    rec.Sample("deploy_ms", static_cast<double>(vns) * 1e-6);
    if (running) {
      mark = rec.Begin("container.stop", id);
      running = engine.Stop(name).ok();
      rec.End(mark);
    }
    rec.Op(ok && running, "image",
           result.ok() ? entry.image.Ref() : entry.image.Ref() + ": " + result.status().ToString());
    if (traced && result.ok()) {
      rec.Add("images", 1);
      rec.Add("slim.files_kept", static_cast<double>(result->files_kept));
      rec.Add("slim.files_dropped", static_cast<double>(result->files_dropped));
      rec.Add("container.pull_bytes", static_cast<double>(registry.bytes_transferred() - bytes0));
      rec.Add("container.heap_growth_mb", HeapInUseMb() - heap0);
    }
  }

  const uint64_t seed_;
  std::vector<cntr::slim::DatasetImage> sample_;
  std::vector<double> expected_;
  uint64_t image_ids_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeSlimDeploy(uint64_t seed) {
  return std::make_unique<SlimDeploy>(seed);
}

}  // namespace perfbench
