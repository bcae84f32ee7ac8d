// perfbench: the repository benchmark. One closed-loop client runs one
// workload against the shipped configuration (core::AttachOptions{}, i.e.
// FuseMountOptions::Optimized()) for --seconds of host time, checks every
// output, and prints each metric by name with its unit and clock. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer metrics of a run whose odd rounds are traced.
//
//   cntr_perfbench --workload attach_session|tool_io|slim_deploy
//                  --seed N --seconds S --trace 0|1
//
// A traced run writes its spans to traces/<workload>-seed<N>.json next to
// the binary. BENCHMARK.md in this directory defines every metric.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/layers.h"
#include "src/util/logging.h"

namespace perfbench {
namespace {

// Set-ups are timed in two batches, one before the timed phase and one
// after it, each of at least kSetups set-ups and kSetupSeconds. A set-up
// of a millisecond is then timed often enough for its median to settle,
// and at two times a run apart: on a shared host, speed can shift by a
// third within seconds, and a single batch caught such a shift whole.
constexpr size_t kSetups = 9;
constexpr double kSetupSeconds = 1.0;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

using Factory = std::function<std::unique_ptr<Workload>(uint64_t)>;

Factory FactoryFor(const std::string& name) {
  if (name == "attach_session") return MakeAttachSession;
  if (name == "tool_io") return MakeToolIo;
  if (name == "slim_deploy") return MakeSlimDeploy;
  return nullptr;
}

// One metric as printed: name, value, unit, clock, sample count, and where
// its samples came from.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string clock;  // "virtual" (SimClock) or "host"
  size_t samples;
  std::string source;
};

void Print(const std::vector<Metric>& metrics, const Recorder& rec) {
  std::printf("%-40s %16s %-8s %-8s %8s  %s\n", "metric", "value", "unit", "clock", "samples",
              "source");
  for (const auto& m : metrics) {
    std::printf("%-40s %16.6g %-8s %-8s %8zu  %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.clock.c_str(), m.samples, m.source.c_str());
  }
  std::string json = "{\"correct\": " + std::string(rec.failed() == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(rec.attempted()) +
                     ", \"failed\": " + std::to_string(rec.failed()) + ", \"metrics\": {";
  char num[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// Host cost of one round of the timed phase.
struct RoundCost {
  bool traced;
  uint64_t ops;
  double host_s;
  double cpu_s;
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Per-span-name aggregates over the trace. Self time is a span's virtual
// time minus the time its child spans cover.
struct SpanStats {
  size_t count = 0;
  double vns = 0, self_vns = 0, hns = 0;
  std::vector<double> vns_each;
};

std::map<std::string, SpanStats> AggregateSpans(const std::vector<Span>& spans,
                                                double* top_level_vns) {
  std::vector<double> child_vns(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      child_vns[static_cast<size_t>(s.parent)] += static_cast<double>(s.v1 - s.v0);
    }
  }
  std::map<std::string, SpanStats> out;
  *top_level_vns = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    double v = static_cast<double>(s.v1 - s.v0);
    SpanStats& st = out[s.name];
    ++st.count;
    st.vns += v;
    st.self_vns += v - child_vns[i];
    st.hns += static_cast<double>(s.h1 - s.h0);
    st.vns_each.push_back(v);
    if (s.parent < 0) {
      *top_level_vns += v;
    }
  }
  return out;
}

// Chrome trace-event JSON: one complete ("X") event per span on the host
// timeline; virtual times, kernel, parent and op id ride in args.
bool WriteTrace(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                 "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d, \"op\": %llu, "
                 "\"kernel\": %u, \"v0_ns\": %llu, \"v1_ns\": %llu, \"vdur_ns\": %llu}}",
                 i == 0 ? "" : ",\n", s.name, static_cast<double>(s.h0) * 1e-3,
                 static_cast<double>(s.h1 - s.h0) * 1e-3, i, s.parent,
                 static_cast<unsigned long long>(s.op), s.kernel,
                 static_cast<unsigned long long>(s.v0), static_cast<unsigned long long>(s.v1),
                 static_cast<unsigned long long>(s.v1 - s.v0));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// FUSE opcodes the per-layer report names (fuse.requests.<OP> etc.).
constexpr const char* kFuseOps[] = {"INIT",    "LOOKUP",      "GETATTR", "SETATTR",
                                    "GETXATTR", "OPEN",       "OPENDIR", "READ",
                                    "READDIRPLUS", "RELEASE", "RELEASEDIR", "WRITE",
                                    "FSYNC",   "MKDIR",       "RMDIR",   "FORGET",
                                    "DESTROY"};
// Syscalls the benchmark makes itself (kernel.<call>.*).
constexpr const char* kCalls[] = {"open", "close", "read",     "pread", "write",
                                  "fsync", "stat", "getdents", "mkdir"};

std::vector<Metric> PerLayer(Recorder& rec, const std::vector<RoundCost>& rounds) {
  double top_level_vns = 0;
  auto spans = AggregateSpans(rec.spans(), &top_level_vns);
  const SpanStats none;
  auto span = [&](const std::string& name) -> const SpanStats& {
    auto it = spans.find(name);
    return it == spans.end() ? none : it->second;
  };
  double traced_rounds = 0;
  std::vector<double> traced_cost, plain_cost;
  for (const auto& r : rounds) {
    (r.traced ? traced_cost : plain_cost).push_back(Ratio(r.host_s, static_cast<double>(r.ops)));
    traced_rounds += r.traced ? 1 : 0;
  }
  auto per_round = [&](const std::string& key) { return Ratio(rec.Sum(key), traced_rounds); };
  auto mean_v = [&](const std::string& name, double scale) {
    const SpanStats& s = span(name);
    return Ratio(s.vns, static_cast<double>(s.count)) * scale;
  };
  auto mean_h = [&](const std::string& name, double scale) {
    const SpanStats& s = span(name);
    return Ratio(s.hns, static_cast<double>(s.count)) * scale;
  };
  auto frac = [&](const std::string& a, const std::string& b) {
    return Ratio(rec.Sum(a), rec.Sum(a) + rec.Sum(b));
  };
  const double images = rec.Sum("images");
  const double cmds = rec.Sum("cmds");
  const size_t n = rec.spans().size();

  std::vector<Metric> out;
  auto add = [&](const std::string& name, double v, const std::string& unit,
                 const std::string& clock) {
    out.push_back({name, v, unit, clock, n, "traced rounds"});
  };
  add("container.resolve.calls", Ratio(static_cast<double>(span("container.resolve").count),
                                       traced_rounds), "count", "-");
  add("container.resolve.vus", mean_v("container.resolve", 1e-3), "vus", "virtual");
  add("container.run.vms", mean_v("container.run", 1e-6), "vms", "virtual");
  add("container.run.host_ms", mean_h("container.run", 1e-6), "ms", "host");
  add("container.pull_bytes", Ratio(rec.Sum("container.pull_bytes"), images), "B", "-");
  add("container.rss_growth_mb_per_image", Ratio(rec.Sum("container.heap_growth_mb"), images),
      "MB", "host");
  add("slim.analyze.vms", mean_v("slim.analyze", 1e-6), "vms", "virtual");
  add("slim.analyze.host_ms", mean_h("slim.analyze", 1e-6), "ms", "host");
  add("slim.files_kept", Ratio(rec.Sum("slim.files_kept"), images), "count", "-");
  add("slim.files_dropped", Ratio(rec.Sum("slim.files_dropped"), images), "count", "-");
  add("core.attach.vus", mean_v("core.attach", 1e-3), "vus", "virtual");
  add("core.attach.self_vus",
      Ratio(span("core.attach").self_vns, static_cast<double>(span("core.attach").count)) * 1e-3,
      "vus", "virtual");
  add("core.attach.host_us", mean_h("core.attach", 1e-3), "us", "host");
  add("core.detach.vus", mean_v("core.detach", 1e-3), "vus", "virtual");
  add("core.detach.host_us", mean_h("core.detach", 1e-3), "us", "host");
  add("core.shell.exec.vus", mean_v("core.shell.exec", 1e-3), "vus", "virtual");
  add("core.shell.exec.host_us", mean_h("core.shell.exec", 1e-3), "us", "host");
  add("core.cntrfs.lookups_per_cmd", Ratio(rec.Sum("core.cntrfs.lookups"), cmds), "count", "-");
  add("core.cntrfs.reads", per_round("core.cntrfs.reads"), "count", "-");
  add("core.cntrfs.writes", per_round("core.cntrfs.writes"), "count", "-");
  add("core.cntrfs.spliced_reads_frac",
      Ratio(rec.Sum("core.cntrfs.spliced_reads"), rec.Sum("core.cntrfs.reads")), "1", "-");
  add("fuse.requests_per_cmd", Ratio(rec.Sum("fuse.requests"), cmds), "count", "-");
  add("fuse.bytes_per_read_req", Ratio(rec.Sum("fuse.read_bytes"), rec.Sum("fuse.read_reqs")),
      "B", "-");
  add("fuse.spliced_bytes_frac", frac("fuse.spliced_bytes", "fuse.copied_bytes"), "1", "-");
  add("fuse.splice_fallbacks", per_round("fuse.splice_fallbacks"), "count", "-");
  add("fuse.timeouts", per_round("fuse.timeouts"), "count", "-");
  add("fuse.interrupts", per_round("fuse.interrupts"), "count", "-");
  for (const char* op : kFuseOps) {
    std::string o = op;
    add("fuse.requests." + o, per_round("fuse.requests." + o), "count", "-");
    auto it = rec.buckets().find("fuse.request_ns." + o);
    const std::vector<uint64_t> empty;
    const std::vector<uint64_t>& b = it == rec.buckets().end() ? empty : it->second;
    add("fuse.request_us_p50." + o, BucketQuantile(b, 0.50) * 1e-3, "vus", "virtual");
    add("fuse.request_us_p99." + o, BucketQuantile(b, 0.99) * 1e-3, "vus", "virtual");
  }
  for (const char* call : kCalls) {
    std::string c = call;
    const SpanStats& s = span("kernel." + c);
    add("kernel." + c + ".calls", Ratio(static_cast<double>(s.count), traced_rounds), "count",
        "-");
    add("kernel." + c + ".vus_p50", Percentile(s.vns_each, 0.5) * 1e-3, "vus", "virtual");
    add("kernel." + c + ".host_us", mean_h("kernel." + c, 1e-3), "us", "host");
  }
  add("kernel.dcache.hit_frac", frac("kernel.dcache.hits", "kernel.dcache.misses"), "1", "-");
  add("kernel.page_cache.hit_frac", frac("kernel.page_cache.hits", "kernel.page_cache.misses"),
      "1", "-");
  add("kernel.page_cache.evictions", per_round("kernel.page_cache.evictions"), "count", "-");
  add("kernel.disk.read_ops", per_round("kernel.disk.read_ops"), "count", "-");
  add("kernel.disk.write_ops", per_round("kernel.disk.write_ops"), "count", "-");
  add("kernel.disk.bytes_written", per_round("kernel.disk.bytes_written"), "B", "-");
  add("kernel.disk.flushes", per_round("kernel.disk.flushes"), "count", "-");
  add("kernel.disk.busy_frac", Ratio(rec.Sum("kernel.disk.busy_ns"), rec.Sum("trace.round_vns")),
      "1", "virtual");
  add("kernel.disk.write_fsync_busy_frac",
      Ratio(rec.Sum("kernel.disk.write_busy_ns"), rec.Sum("kernel.disk.write_vns")), "1",
      "virtual");
  add("splice.spliced_pages", per_round("splice.spliced_pages"), "count", "-");
  add("splice.copied_pages", per_round("splice.copied_pages"), "count", "-");
  add("obs.registry.series", rec.Sum("obs.registry.series"), "count", "-");
  add("obs.registry.series_per_session",
      Ratio(rec.Sum("obs.registry.series_growth"), rec.Sum("sessions")), "count", "-");
  add("trace.overhead_frac",
      Ratio(Percentile(traced_cost, 0.5), Percentile(plain_cost, 0.5)) - 1.0, "1", "host");
  add("trace.vtime_gap_frac",
      Ratio(rec.Sum("trace.round_vns") - top_level_vns, rec.Sum("trace.round_vns")), "1",
      "virtual");

  // Opcodes seen but not named above would be silently dropped: say so.
  for (const auto& [key, v] : rec.layer()) {
    if (key.rfind("fuse.requests.", 0) == 0 && v > 0) {
      bool named = false;
      for (const char* op : kFuseOps) {
        named = named || key == std::string("fuse.requests.") + op;
      }
      if (!named) {
        std::fprintf(stderr, "perfbench: unreported FUSE opcode %s\n", key.c_str() + 14);
      }
    }
  }
  return out;
}

int Main(int argc, char** argv) {
  Args args;
  Factory factory;
  if (!ParseArgs(argc, argv, &args) || !(factory = FactoryFor(args.workload))) {
    std::fprintf(stderr,
                 "usage: cntr_perfbench --workload attach_session|tool_io|slim_deploy "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  if (std::getenv("CNTR_LOG") == nullptr) {
    cntr::SetGlobalLogLevel(cntr::LogLevel::kWarn);
  }
  // Pin glibc's dynamic mmap and trim thresholds at the values they
  // converge to (32 MiB, and twice that). Left dynamic, they rose or not
  // depending on allocation history, so a run either reused resident heap
  // pages for a fresh kernel's file data or faulted them in anew:
  // slim_deploy read about 20 or about 8 images/s from one run to the next.
  // A fixed 128 KiB threshold mapped and unmapped every FUSE payload and
  // trimmed the heap constantly, which made tool_io bimodal instead.
  if (mallopt(M_MMAP_THRESHOLD, 32 << 20) == 0 || mallopt(M_TRIM_THRESHOLD, 64 << 20) == 0) {
    std::fprintf(stderr, "perfbench: mallopt failed\n");
    return 1;
  }

  // One batch of timed set-ups; returns the last one, or null on failure.
  std::vector<double> setup_s;
  auto set_up = [&](Recorder& r) -> std::unique_ptr<Workload> {
    std::unique_ptr<Workload> w;
    double total = 0;
    for (size_t n = 0; n < kSetups || total < kSetupSeconds; ++n) {
      w.reset();
      int64_t h0 = HostNowNs();
      w = factory(args.seed);
      cntr::Status st = w->Setup(r);
      setup_s.push_back(static_cast<double>(HostNowNs() - h0) * 1e-9);
      total += setup_s.back();
      if (!st.ok()) {
        std::fprintf(stderr, "perfbench: set-up failed: %s\n", st.ToString().c_str());
        return nullptr;
      }
    }
    return w;
  };
  Recorder rec;
  std::unique_ptr<Workload> workload = set_up(rec);
  if (workload == nullptr) {
    return 1;
  }
  std::printf("workload %s seed %llu inputs %016llx\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(workload->InputDigest()));

  // Timed phase: whole rounds until --seconds of host time have passed.
  // A traced run traces every other round, so both halves see the same
  // program state and trace.overhead_frac compares like with like.
  const bool trace = args.trace == 1;
  std::vector<RoundCost> rounds;
  const int64_t t0 = HostNowNs();
  size_t in_epoch = 0;
  for (size_t r = 0;; ++r) {
    if (workload->RoundsPerEpoch() != 0 && in_epoch == workload->RoundsPerEpoch()) {
      if (trace) {
        workload->Finish(rec);
      }
      workload.reset();
      workload = factory(args.seed);
      Recorder scratch;
      cntr::Status st = workload->Setup(scratch);
      if (!st.ok()) {
        std::fprintf(stderr, "perfbench: set-up failed: %s\n", st.ToString().c_str());
        return 1;
      }
      in_epoch = 0;
    }
    ++in_epoch;
    rec.set_tracing(trace && r % 2 == 1);
    uint64_t ops0 = rec.attempted();
    int64_t h0 = HostNowNs();
    double c0 = CpuSeconds();
    cntr::Status st = workload->Round(rec);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: round failed: %s\n", st.ToString().c_str());
      return 1;
    }
    rounds.push_back({rec.tracing(), rec.attempted() - ops0,
                      static_cast<double>(HostNowNs() - h0) * 1e-9, CpuSeconds() - c0});
    double elapsed = static_cast<double>(HostNowNs() - t0) * 1e-9;
    if (rounds.size() >= (trace ? 2u : 1u) && elapsed >= args.seconds) {
      break;
    }
  }
  rec.set_tracing(false);
  const double peak_rss_mb = PeakRssMb();

  if (trace) {
    workload->Finish(rec);
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::path dir = fs::read_symlink("/proc/self/exe", ec).parent_path() / "traces";
    fs::create_directories(dir, ec);
    std::string path =
        (dir / (args.workload + "-seed" + std::to_string(args.seed) + ".json")).string();
    if (!WriteTrace(path, rec.spans())) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("trace: %zu spans in %zu traced rounds -> %s\n", rec.spans().size(),
                rounds.size() / 2, path.c_str());
    Print(PerLayer(rec, rounds), rec);
    return 0;
  }

  std::vector<double> ops_per_s, cpu_us_per_op;
  for (const auto& r : rounds) {
    ops_per_s.push_back(Ratio(static_cast<double>(r.ops), r.host_s));
    cpu_us_per_op.push_back(Ratio(r.cpu_s * 1e6, static_cast<double>(r.ops)));
  }
  const std::string loop = std::to_string(rounds.size()) + " rounds";

  workload.reset();
  Recorder scratch;
  if (set_up(scratch) == nullptr) {
    return 1;
  }

  // Companion passes: the metrics of the other workloads' home loops, from
  // a few rounds of each, after every host figure above is taken. One round
  // gives every virtual metric its value, since rounds repeat the same
  // virtual-time work; tool_io runs three because seq_write_MBps is not
  // deterministic and is reported as their median.
  std::map<std::string, std::string> source;
  auto companion = [&](const std::string& name, int num_rounds,
                       const std::vector<std::string>& keys) {
    if (name == args.workload) {
      for (const auto& k : keys) {
        source[k] = loop;
      }
      return;
    }
    auto w = FactoryFor(name)(args.seed);
    cntr::Status st = w->Setup(scratch);
    for (int i = 0; st.ok() && i < num_rounds; ++i) {
      st = w->Round(rec);
    }
    rec.Op(st, "companion round");
    for (const auto& k : keys) {
      source[k] = "companion " + name;
    }
  };
  companion("attach_session", 1, {"attach_ms", "cmd_us"});
  companion("tool_io", 3, {"seq_read_MBps", "seq_write_MBps", "rand_read_us"});
  companion("slim_deploy", 1, {"deploy_ms"});

  auto pct = [&](const std::string& key, double q, const std::string& name,
                 const std::string& unit) {
    auto& s = rec.samples(key);
    return Metric{name, Percentile(s, q), unit, "virtual", s.size(), source[key]};
  };
  const double attempted = static_cast<double>(rec.attempted());
  std::vector<Metric> metrics = {
      pct("attach_ms", 0.50, "attach_ms_p50", "vms"),
      pct("attach_ms", 0.99, "attach_ms_p99", "vms"),
      pct("cmd_us", 0.50, "cmd_us_p50", "vus"),
      pct("cmd_us", 0.99, "cmd_us_p99", "vus"),
      pct("seq_read_MBps", 0.50, "seq_read_MBps", "vMB/s"),
      pct("seq_write_MBps", 0.50, "seq_write_MBps", "vMB/s"),
      pct("rand_read_us", 0.50, "rand_read_us_p50", "vus"),
      pct("rand_read_us", 0.99, "rand_read_us_p99", "vus"),
      pct("deploy_ms", 0.50, "deploy_ms_p50", "vms"),
      {"setup_s", Percentile(setup_s, 0.5), "s", "host", setup_s.size(), "set-up"},
      {"host_ops_per_s", Percentile(ops_per_s, 0.5), "1/s", "host", rounds.size(), loop},
      {"host_cpu_us_per_op", Percentile(cpu_us_per_op, 0.5), "us", "host", rounds.size(), loop},
      {"peak_rss_mb", peak_rss_mb, "MB", "host", 1, loop},
      {"ok_frac", 1.0 - Ratio(static_cast<double>(rec.failed()), attempted), "1", "-",
       rec.attempted(), "all ops"},
  };
  Print(metrics, rec);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
