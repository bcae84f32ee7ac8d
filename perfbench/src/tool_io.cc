// tool_io: one attach with the tools taken from the host; as the attached
// process the benchmark does file I/O through CntrFS on the disk-backed
// /data, on the harness's scaled kernel (96 MiB page cache). Each round:
//
//   write  sequential 1 MiB writes of a file about 3x the page cache, fsync
//   read   drop the clean caches, then read that file back sequentially
//   rand   4 KiB preads, 80% on a hot file that fits the cache (re-warmed
//          first, since the cold file's traffic evicts it) and 20% on the
//          cold file
//
// Page cache, FUSE READ/WRITE, splice, writeback and the disk model do
// nearly all the work; metadata does almost none.
#include <cstring>
#include <set>

#include "perfbench/src/apps.h"
#include "perfbench/src/bench.h"
#include "perfbench/src/layers.h"
#include "src/core/attach.h"
#include "src/workloads/harness.h"

namespace perfbench {
namespace {

using cntr::Status;
namespace container = cntr::container;
namespace core = cntr::core;
namespace kernel = cntr::kernel;

constexpr uint64_t kMiB = 1ull << 20;
constexpr uint64_t kPage = 4096;
constexpr uint64_t kChunk = kMiB;
constexpr uint64_t kHotBytes = 16 * kMiB;
constexpr uint64_t kPreads = 8192;
constexpr const char* kDir = "/data/perfbench";

// Seeded file content: every 8-byte word is a function of the file's key
// and the word's offset, so any block read back can be checked alone.
uint64_t Word(uint64_t key, uint64_t off) {
  uint64_t z = key + (off >> 12) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return (z ^ (z >> 31)) + (off & (kPage - 1));
}

void Fill(char* buf, uint64_t len, uint64_t key, uint64_t off) {
  for (uint64_t i = 0; i < len; i += 8) {
    uint64_t w = Word(key, off + i);
    std::memcpy(buf + i, &w, 8);
  }
}

bool Matches(const char* buf, uint64_t len, uint64_t key, uint64_t off) {
  for (uint64_t i = 0; i < len; i += 8) {
    uint64_t w = 0;
    std::memcpy(&w, buf + i, 8);
    if (w != Word(key, off + i)) {
      return false;
    }
  }
  return true;
}

double MBps(uint64_t bytes, uint64_t vns) {
  return vns == 0 ? 0.0 : static_cast<double>(bytes) / kMiB / (static_cast<double>(vns) * 1e-9);
}

// Runs one syscall inside its kernel.<call> span.
template <typename Fn>
auto Call(Recorder& rec, const char* name, Fn fn) {
  auto mark = rec.Begin(name);
  auto result = fn();
  rec.End(mark);
  return result;
}

class ToolIo : public Workload {
 public:
  explicit ToolIo(uint64_t seed) : seed_(seed) {}

  Status Setup(Recorder& rec) override {
    kernel_ = kernel::Kernel::Create(cntr::workloads::HarnessOptions::BenchKernelConfig());
    rec.SetClock(&kernel_->clock());
    runtime_ = std::make_unique<container::ContainerRuntime>(kernel_.get());
    registry_ = std::make_unique<container::Registry>(&kernel_->clock());
    engine_ = std::make_shared<container::DockerEngine>(runtime_.get(), registry_.get());
    cntr::Rng rng(seed_ ^ 0x7001u);
    app_ = MakeApp(rng);
    CNTR_RETURN_IF_ERROR(engine_->Run("app", app_.image).status());
    cntr_ = std::make_unique<core::Cntr>(kernel_.get());
    cntr_->RegisterEngine(engine_);
    CNTR_ASSIGN_OR_RETURN(session_, cntr_->Attach("docker", "app", core::AttachOptions{}));
    mount_ = session_->fuse_fs()->conn().mount_label();

    // About 3x the page cache, in whole chunks, with a seeded jitter of a
    // few chunks so each seed moves a different amount of data.
    uint64_t cache = cntr::workloads::HarnessOptions::BenchKernelConfig().page_cache_capacity;
    cold_bytes_ = 3 * cache - 4 * kMiB + rng.Below(9) * kChunk;
    cold_key_ = rng.Next();
    hot_key_ = rng.Next();
    for (uint64_t i = 0; i < kPreads; ++i) {
      bool hot = rng.Chance(4, 5);
      uint64_t pages = (hot ? kHotBytes : cold_bytes_) / kPage;
      plan_.push_back({hot, rng.Below(pages) * kPage});
    }

    kernel::Process& p = proc();
    CNTR_RETURN_IF_ERROR(kernel_->Mkdir(p, kDir, 0755));
    CNTR_ASSIGN_OR_RETURN(kernel::Fd fd, kernel_->Open(p, HotPath(), kernel::kOWrOnly |
                                                                         kernel::kOCreat |
                                                                         kernel::kOTrunc));
    std::vector<char> buf(kChunk);
    for (uint64_t off = 0; off < kHotBytes; off += kChunk) {
      Fill(buf.data(), kChunk, hot_key_, off);
      CNTR_RETURN_IF_ERROR(kernel_->Write(p, fd, buf.data(), kChunk).status());
    }
    CNTR_RETURN_IF_ERROR(kernel_->Fsync(p, fd));
    CNTR_RETURN_IF_ERROR(kernel_->Close(p, fd));
    // The cold file is truncated and rewritten in place each round. With a
    // create/unlink cycle instead, the unlinked file's data was never freed
    // and the heap grew by about 512 MB per round.
    CNTR_ASSIGN_OR_RETURN(fd, kernel_->Open(p, ColdPath(), kernel::kOWrOnly | kernel::kOCreat));
    return kernel_->Close(p, fd);
  }

  Status Round(Recorder& rec) override {
    rec.SetClock(&kernel_->clock());
    const bool traced = rec.tracing();
    KernelCounters k0;
    SessionCounters s0;
    FuseOps f0;
    if (traced) {
      k0 = KernelCounters::Of(*kernel_);
      s0 = SessionCounters::Of(*session_);
      f0 = Ops();
    }
    const uint64_t v0 = rec.VNow();
    WritePhase(rec);

    auto mark = rec.Begin("kernel.drop_caches");
    kernel_->page_cache().DropAllClean();
    kernel_->dcache().Clear();
    rec.End(mark);

    SessionCounters r0 = traced ? SessionCounters::Of(*session_) : SessionCounters{};
    FuseOps fr0 = traced ? Ops() : FuseOps{};
    ReadPhase(rec);
    RandPhase(rec);
    if (traced) {
      SessionCounters r1 = SessionCounters::Of(*session_);
      FuseOps fr1 = Ops();
      rec.Add("fuse.read_bytes", static_cast<double>((r1.spliced_bytes - r0.spliced_bytes) +
                                                     (r1.copied_bytes - r0.copied_bytes)));
      rec.Add("fuse.read_reqs", static_cast<double>(fr1["READ"].requests - fr0["READ"].requests));
      AddRoundKernel(rec, *kernel_, k0, rec.VNow() - v0);
      AddSessionDelta(rec, s0, SessionCounters::Of(*session_));
      AddFuseOpsDelta(rec, f0, Ops());
    }
    return Status::Ok();
  }

  uint64_t InputDigest() const override {
    uint64_t h = DigestApp(kFnvBasis, app_);
    h = Fnv(h, std::to_string(cold_bytes_) + ":" + std::to_string(cold_key_) + ":" +
                   std::to_string(hot_key_));
    for (const auto& p : plan_) {
      h = Fnv(h, std::to_string(p.hot) + std::to_string(p.off));
    }
    return h;
  }

 private:
  struct Pread {
    bool hot;
    uint64_t off;
  };

  kernel::Process& proc() { return *session_->attach_proc(); }
  static std::string RoundDir() { return std::string(kDir) + "/round"; }
  static std::string ColdPath() { return std::string(kDir) + "/cold"; }
  static std::string HotPath() { return std::string(kDir) + "/hot"; }
  FuseOps Ops() const { return ParseFuseOps(kernel_->metrics().RenderPrometheus(), {mount_}); }

  void WritePhase(Recorder& rec) {
    kernel::Process& p = proc();
    auto phase = rec.Begin("tool_io.write");
    rec.Op(Call(rec, "kernel.mkdir", [&] { return kernel_->Mkdir(p, RoundDir(), 0755); }),
           "mkdir");
    auto fd = Call(rec, "kernel.open", [&] {
      return kernel_->Open(p, ColdPath(), kernel::kOWrOnly | kernel::kOTrunc);
    });
    rec.Op(fd.status(), "open");
    if (fd.ok()) {
      // The write phase starts once the previous round's file is truncated.
      KernelCounters kw0 = rec.tracing() ? KernelCounters::Of(*kernel_) : KernelCounters{};
      const uint64_t vw0 = rec.VNow();
      std::vector<char> buf(kChunk);
      ++cold_key_;  // fresh content every round
      for (uint64_t off = 0; off < cold_bytes_; off += kChunk) {
        Fill(buf.data(), kChunk, cold_key_, off);
        auto n = Call(rec, "kernel.write", [&] { return kernel_->Write(p, *fd, buf.data(), kChunk); });
        rec.Op(n.ok() && *n == kChunk, "write", n.status().ToString());
      }
      rec.Op(Call(rec, "kernel.fsync", [&] { return kernel_->Fsync(p, *fd); }), "fsync");
      const uint64_t vw1 = rec.VNow();
      rec.Sample("seq_write_MBps", MBps(cold_bytes_, vw1 - vw0));
      if (rec.tracing()) {
        rec.Add("kernel.disk.write_busy_ns",
                DiskBusyNs(kernel_->costs(), kw0, KernelCounters::Of(*kernel_)));
        rec.Add("kernel.disk.write_vns", static_cast<double>(vw1 - vw0));
      }
      rec.Op(Call(rec, "kernel.close", [&] { return kernel_->Close(p, *fd); }), "close");
    }
    auto attr = Call(rec, "kernel.stat", [&] { return kernel_->Stat(p, ColdPath()); });
    rec.Op(attr.ok() && attr->size == cold_bytes_, "stat", attr.status().ToString());
    auto dir = Call(rec, "kernel.open", [&] {
      return kernel_->Open(p, kDir, kernel::kORdOnly | kernel::kODirectory);
    });
    rec.Op(dir.status(), "open");
    if (dir.ok()) {
      auto entries = Call(rec, "kernel.getdents", [&] { return kernel_->Getdents(p, *dir); });
      std::set<std::string> names;
      if (entries.ok()) {
        for (const auto& e : *entries) {
          if (e.name != "." && e.name != "..") {
            names.insert(e.name);
          }
        }
      }
      rec.Op(entries.ok() && names == std::set<std::string>{"cold", "hot", "round"}, "getdents");
      rec.Op(Call(rec, "kernel.close", [&] { return kernel_->Close(p, *dir); }), "close");
    }
    rec.Op(Call(rec, "kernel.rmdir", [&] { return kernel_->Rmdir(p, RoundDir()); }), "rmdir");
    rec.End(phase);
  }

  void ReadPhase(Recorder& rec) {
    kernel::Process& p = proc();
    auto phase = rec.Begin("tool_io.seq_read");
    const uint64_t v0 = rec.VNow();
    auto fd = Call(rec, "kernel.open", [&] { return kernel_->Open(p, ColdPath(), kernel::kORdOnly); });
    rec.Op(fd.status(), "open");
    if (fd.ok()) {
      std::vector<char> buf(kChunk);
      for (uint64_t off = 0; off < cold_bytes_; off += kChunk) {
        auto n = Call(rec, "kernel.read", [&] { return kernel_->Read(p, *fd, buf.data(), kChunk); });
        rec.Op(n.ok() && *n == kChunk && Matches(buf.data(), kChunk, cold_key_, off), "read",
               n.status().ToString());
      }
      rec.Sample("seq_read_MBps", MBps(cold_bytes_, rec.VNow() - v0));
      rec.Op(Call(rec, "kernel.close", [&] { return kernel_->Close(p, *fd); }), "close");
    }
    rec.End(phase);
  }

  void RandPhase(Recorder& rec) {
    kernel::Process& p = proc();
    auto phase = rec.Begin("tool_io.warm");
    auto hot = Call(rec, "kernel.open", [&] { return kernel_->Open(p, HotPath(), kernel::kORdOnly); });
    rec.Op(hot.status(), "open");
    std::vector<char> buf(kChunk);
    if (hot.ok()) {
      for (uint64_t off = 0; off < kHotBytes; off += kChunk) {
        auto n = Call(rec, "kernel.read", [&] { return kernel_->Read(p, *hot, buf.data(), kChunk); });
        rec.Op(n.ok() && *n == kChunk && Matches(buf.data(), kChunk, hot_key_, off), "read",
               n.status().ToString());
      }
    }
    rec.End(phase);

    phase = rec.Begin("tool_io.rand");
    auto cold = Call(rec, "kernel.open", [&] { return kernel_->Open(p, ColdPath(), kernel::kORdOnly); });
    rec.Op(cold.status(), "open");
    if (hot.ok() && cold.ok()) {
      for (const Pread& r : plan_) {
        kernel::Fd fd = r.hot ? *hot : *cold;
        auto mark = rec.Begin("kernel.pread");
        auto n = kernel_->Pread(p, fd, buf.data(), kPage, r.off);
        uint64_t vns = rec.End(mark);
        rec.Op(n.ok() && *n == kPage &&
                   Matches(buf.data(), kPage, r.hot ? hot_key_ : cold_key_, r.off),
               "pread", n.status().ToString());
        rec.Sample("rand_read_us", static_cast<double>(vns) * 1e-3);
      }
    }
    for (auto* fd : {&hot, &cold}) {
      if (fd->ok()) {
        rec.Op(Call(rec, "kernel.close", [&] { return kernel_->Close(p, **fd); }), "close");
      }
    }
    rec.End(phase);
  }

  const uint64_t seed_;
  uint64_t cold_bytes_ = 0;
  uint64_t cold_key_ = 0;
  uint64_t hot_key_ = 0;
  std::vector<Pread> plan_;
  std::unique_ptr<kernel::Kernel> kernel_;
  std::unique_ptr<container::ContainerRuntime> runtime_;
  std::unique_ptr<container::Registry> registry_;
  std::shared_ptr<container::DockerEngine> engine_;
  std::unique_ptr<core::Cntr> cntr_;
  AppSpec app_;
  std::unique_ptr<core::AttachedSession> session_;
  std::string mount_;
};

}  // namespace

std::unique_ptr<Workload> MakeToolIo(uint64_t seed) {
  return std::make_unique<ToolIo>(seed);
}

}  // namespace perfbench
