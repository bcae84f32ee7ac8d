// Shared pieces of the benchmark: host clocks, the span recorder,
// sample sets, op/check accounting, and the workload interface.
//
// Everything here lives in the benchmark's own files: spans are recorded
// around calls the benchmark makes into the library's public functions, and
// per-layer counters are deltas of counters the library already exports.
// Nothing under src/ is instrumented.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/util/sim_clock.h"
#include "src/util/status.h"

namespace perfbench {

// --- host clocks of the benchmark process ---
int64_t HostNowNs();      // steady_clock
double CpuSeconds();      // user + sys of every thread (getrusage)
double PeakRssMb();       // ru_maxrss
double HeapInUseMb();     // live malloc bytes over all arenas (mallinfo2)

// Nearest-rank percentile, q in (0, 1]. Returns 0 for an empty set.
double Percentile(std::vector<double> v, double q);

// One recorded span. Times are in both clocks: virtual ns of the kernel the
// span ran against, and host ns since the recorder was created.
struct Span {
  const char* name = "";
  uint64_t op = 0;      // session / op id shared by a request's spans
  int32_t parent = -1;  // index of the enclosing span, -1 at top level
  uint32_t kernel = 0;  // which kernel's clock v0/v1 read (fresh kernels
                        // per slim_deploy round restart at zero)
  uint64_t v0 = 0, v1 = 0;
  int64_t h0 = 0, h1 = 0;
};

class Recorder {
 public:
  Recorder();

  // --- clocks ---
  // Points virtual stamps at `clock` (a new kernel gets a new id).
  void SetClock(const cntr::SimClock* clock);
  uint64_t VNow() const { return clock_ == nullptr ? 0 : clock_->NowNs(); }
  int64_t HNow() const { return HostNowNs() - host_origin_; }

  // --- spans ---
  // Spans are kept only while tracing is on; End always returns the
  // virtual ns elapsed since Begin, so untraced rounds measure the same way.
  bool tracing() const { return tracing_; }
  void set_tracing(bool on) { tracing_ = on; }
  struct Mark {
    int32_t span = -1;
    uint64_t v0 = 0;
  };
  Mark Begin(const char* name, uint64_t op = 0);
  uint64_t End(const Mark& m);
  const std::vector<Span>& spans() const { return spans_; }

  // --- ops and output checks ---
  // One op (attach, command, detach, syscall, image). `ok` is false when
  // the call failed or its output check did not hold.
  void Op(bool ok, const char* what, const std::string& detail = {});
  void Op(const cntr::Status& st, const char* what) {
    Op(st.ok(), what, st.ok() ? std::string() : st.ToString());
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  // --- measurements ---
  // Virtual-time samples and per-round values, keyed by end-to-end metric.
  void Sample(const std::string& key, double v) { samples_[key].push_back(v); }
  std::vector<double>& samples(const std::string& key) { return samples_[key]; }
  // Per-layer accumulators, fed only by traced rounds.
  void Add(const std::string& key, double v) { layer_[key] += v; }
  void Max(const std::string& key, double v);
  double Sum(const std::string& key) const;
  const std::map<std::string, double>& layer() const { return layer_; }
  // Per-layer latency histograms (per-bucket counts, obs::Histogram layout).
  void AddBuckets(const std::string& key, const std::vector<uint64_t>& buckets);
  const std::map<std::string, std::vector<uint64_t>>& buckets() const { return buckets_; }

 private:
  const cntr::SimClock* clock_ = nullptr;
  uint32_t kernel_id_ = 0;
  int64_t host_origin_ = 0;
  bool tracing_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> layer_;
  std::map<std::string, std::vector<uint64_t>> buckets_;
};

// A closed-loop workload: one client, the next op issued when the last
// returns. Setup builds the seeded inputs and warms caches; each Round is
// one pass over the same seeded input set, so rounds repeat the same
// virtual-time work and percentiles do not depend on how many fit.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual cntr::Status Setup(Recorder& rec) = 0;
  virtual cntr::Status Round(Recorder& rec) = 0;
  // Rounds after which the timed phase replaces the workload with a fresh
  // set-up (0: never). Bounds state that grows with every round, so the
  // host figures do not depend on how many rounds fit in --seconds.
  virtual size_t RoundsPerEpoch() const { return 0; }
  // Called on a traced run before the workload is replaced or the run ends
  // (reads counters that are cheap to read only once).
  virtual void Finish(Recorder& /*rec*/) {}
  // Digest of the generated inputs, so a second seed can be shown to
  // change them.
  virtual uint64_t InputDigest() const = 0;
};

std::unique_ptr<Workload> MakeAttachSession(uint64_t seed);
std::unique_ptr<Workload> MakeToolIo(uint64_t seed);
std::unique_ptr<Workload> MakeSlimDeploy(uint64_t seed);

// FNV-1a, for input digests.
inline uint64_t Fnv(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}
inline constexpr uint64_t kFnvBasis = 14695981039346656037ull;

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
