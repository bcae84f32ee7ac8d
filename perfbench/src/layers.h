// Per-layer counter snapshots. Each is a read of counters the library
// already exports (kernel subsystem stats, FuseConn/CntrFsServer stats, the
// metrics registry); traced rounds add the before/after delta to the
// Recorder's per-layer accumulators.
#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/core/attach.h"
#include "src/kernel/kernel.h"

namespace perfbench {

// kernel: page cache, dcache, disk; splice engine.
struct KernelCounters {
  uint64_t pc_hits = 0, pc_misses = 0, pc_evictions = 0;
  uint64_t dc_hits = 0, dc_misses = 0;
  uint64_t disk_read_ops = 0, disk_write_ops = 0, disk_flushes = 0;
  uint64_t disk_bytes_read = 0, disk_bytes_written = 0;
  uint64_t spliced_pages = 0, copied_pages = 0;

  static KernelCounters Of(cntr::kernel::Kernel& kernel);
};

// Adds one traced round's kernel deltas (a to now), its modelled disk busy
// time and its virtual elapsed time.
void AddRoundKernel(Recorder& rec, cntr::kernel::Kernel& kernel, const KernelCounters& a,
                    uint64_t round_vns);

// Modelled device busy time for the disk work between a and b: each
// counter times its CostModel price.
double DiskBusyNs(const cntr::CostModel& costs, const KernelCounters& a,
                  const KernelCounters& b);

// core + fuse: one attached session's CntrFS server and FUSE connection.
struct SessionCounters {
  uint64_t lookups = 0, reads = 0, writes = 0, spliced_reads = 0;
  uint64_t requests = 0, spliced_bytes = 0, copied_bytes = 0, splice_fallbacks = 0;
  uint64_t timeouts = 0, interrupts = 0;

  static SessionCounters Of(cntr::core::AttachedSession& session);
};

void AddSessionDelta(Recorder& rec, const SessionCounters& a, const SessionCounters& b);

// The registry's per-opcode FUSE request series (cntr_fuse_requests_total
// and the phase="total" cntr_fuse_request_ns histogram), summed over the
// given mounts.
struct FuseOp {
  uint64_t requests = 0;
  std::vector<uint64_t> buckets;  // per-bucket (not cumulative) counts
};
using FuseOps = std::map<std::string, FuseOp>;

FuseOps ParseFuseOps(const std::string& prometheus, const std::set<std::string>& mounts);
// Adds b - a under fuse.requests.<OP> and the fuse.request_ns.<OP>
// histogram.
void AddFuseOpsDelta(Recorder& rec, const FuseOps& a, const FuseOps& b);
// Quantile of per-bucket counts, with the registry's own estimator.
double BucketQuantile(const std::vector<uint64_t>& buckets, double q);

// Number of series in a Prometheus exposition.
uint64_t CountSeries(const std::string& prometheus);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
