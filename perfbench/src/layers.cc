#include "perfbench/src/layers.h"

#include <cstdlib>
#include <utility>

#include "src/obs/metrics.h"

namespace perfbench {
namespace {

// Adds b - a under the kernel.* / splice.* accumulator keys.
void AddKernelDelta(Recorder& rec, const KernelCounters& a, const KernelCounters& b) {
  auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(y - x); };
  rec.Add("kernel.page_cache.hits", d(a.pc_hits, b.pc_hits));
  rec.Add("kernel.page_cache.misses", d(a.pc_misses, b.pc_misses));
  rec.Add("kernel.page_cache.evictions", d(a.pc_evictions, b.pc_evictions));
  rec.Add("kernel.dcache.hits", d(a.dc_hits, b.dc_hits));
  rec.Add("kernel.dcache.misses", d(a.dc_misses, b.dc_misses));
  rec.Add("kernel.disk.read_ops", d(a.disk_read_ops, b.disk_read_ops));
  rec.Add("kernel.disk.write_ops", d(a.disk_write_ops, b.disk_write_ops));
  rec.Add("kernel.disk.flushes", d(a.disk_flushes, b.disk_flushes));
  rec.Add("kernel.disk.bytes_written", d(a.disk_bytes_written, b.disk_bytes_written));
  rec.Add("splice.spliced_pages", d(a.spliced_pages, b.spliced_pages));
  rec.Add("splice.copied_pages", d(a.copied_pages, b.copied_pages));
}

}  // namespace

KernelCounters KernelCounters::Of(cntr::kernel::Kernel& kernel) {
  KernelCounters c;
  auto pc = kernel.page_cache().stats();
  c.pc_hits = pc.hits;
  c.pc_misses = pc.misses;
  c.pc_evictions = pc.evictions;
  auto dc = kernel.dcache().stats();
  c.dc_hits = dc.hits;
  c.dc_misses = dc.misses;
  auto disk = kernel.disk().stats();
  c.disk_read_ops = disk.read_ops;
  c.disk_write_ops = disk.write_ops;
  c.disk_flushes = disk.flushes;
  c.disk_bytes_read = disk.bytes_read;
  c.disk_bytes_written = disk.bytes_written;
  auto sp = kernel.splice_engine().stats();
  c.spliced_pages = sp.spliced_pages;
  c.copied_pages = sp.copied_pages;
  return c;
}

double DiskBusyNs(const cntr::CostModel& costs, const KernelCounters& a,
                  const KernelCounters& b) {
  double ops = static_cast<double>((b.disk_read_ops - a.disk_read_ops) +
                                   (b.disk_write_ops - a.disk_write_ops));
  double bytes = static_cast<double>((b.disk_bytes_read - a.disk_bytes_read) +
                                     (b.disk_bytes_written - a.disk_bytes_written));
  double flushes = static_cast<double>(b.disk_flushes - a.disk_flushes);
  return ops * static_cast<double>(costs.disk_op_ns) +
         bytes * static_cast<double>(costs.disk_byte_ns_num) /
             static_cast<double>(costs.disk_byte_ns_den) +
         flushes * static_cast<double>(costs.disk_flush_ns);
}

void AddRoundKernel(Recorder& rec, cntr::kernel::Kernel& kernel, const KernelCounters& a,
                    uint64_t round_vns) {
  KernelCounters b = KernelCounters::Of(kernel);
  AddKernelDelta(rec, a, b);
  rec.Add("kernel.disk.busy_ns", DiskBusyNs(kernel.costs(), a, b));
  rec.Add("trace.round_vns", static_cast<double>(round_vns));
}

SessionCounters SessionCounters::Of(cntr::core::AttachedSession& session) {
  SessionCounters c;
  auto fs = session.cntrfs()->stats();
  c.lookups = fs.lookups;
  c.reads = fs.reads;
  c.writes = fs.writes;
  c.spliced_reads = fs.spliced_reads;
  auto conn = session.fuse_fs()->conn().stats();
  c.requests = conn.requests;
  c.spliced_bytes = conn.spliced_bytes;
  c.copied_bytes = conn.copied_bytes;
  c.splice_fallbacks = conn.splice_fallbacks;
  c.timeouts = conn.timeouts;
  c.interrupts = conn.interrupts;
  return c;
}

void AddSessionDelta(Recorder& rec, const SessionCounters& a, const SessionCounters& b) {
  auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(y - x); };
  rec.Add("core.cntrfs.lookups", d(a.lookups, b.lookups));
  rec.Add("core.cntrfs.reads", d(a.reads, b.reads));
  rec.Add("core.cntrfs.writes", d(a.writes, b.writes));
  rec.Add("core.cntrfs.spliced_reads", d(a.spliced_reads, b.spliced_reads));
  rec.Add("fuse.requests", d(a.requests, b.requests));
  rec.Add("fuse.spliced_bytes", d(a.spliced_bytes, b.spliced_bytes));
  rec.Add("fuse.copied_bytes", d(a.copied_bytes, b.copied_bytes));
  rec.Add("fuse.splice_fallbacks", d(a.splice_fallbacks, b.splice_fallbacks));
  rec.Add("fuse.timeouts", d(a.timeouts, b.timeouts));
  rec.Add("fuse.interrupts", d(a.interrupts, b.interrupts));
}

namespace {

// One exposition line: family name, labels, value.
struct PromLine {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0;
};

bool ParseLine(const std::string& line, PromLine* out) {
  if (line.empty() || line[0] == '#') {
    return false;
  }
  size_t brace = line.find('{');
  size_t space = line.rfind(' ');
  if (space == std::string::npos) {
    return false;
  }
  out->labels.clear();
  if (brace == std::string::npos || brace > space) {
    out->name = line.substr(0, space);
  } else {
    out->name = line.substr(0, brace);
    size_t pos = brace + 1;
    while (pos < line.size() && line[pos] != '}') {
      size_t eq = line.find("=\"", pos);
      if (eq == std::string::npos) {
        return false;
      }
      size_t close = line.find('"', eq + 2);
      if (close == std::string::npos) {
        return false;
      }
      out->labels[line.substr(pos, eq - pos)] = line.substr(eq + 2, close - eq - 2);
      pos = close + 1;
      if (pos < line.size() && line[pos] == ',') {
        ++pos;
      }
    }
  }
  out->value = std::strtod(line.c_str() + space + 1, nullptr);
  return true;
}

template <typename Fn>
void ForEachLine(const std::string& text, Fn fn) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      nl = text.size();
    }
    fn(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
}

}  // namespace

FuseOps ParseFuseOps(const std::string& prometheus, const std::set<std::string>& mounts) {
  FuseOps ops;
  // Buckets are exported cumulative over occupied edges, in order.
  std::map<std::pair<std::string, std::string>, uint64_t> cum;
  PromLine p;
  ForEachLine(prometheus, [&](const std::string& line) {
    if (line.rfind("cntr_fuse_request", 0) != 0 || !ParseLine(line, &p)) {
      return;
    }
    auto mount = p.labels.find("mount");
    if (mount == p.labels.end() || mounts.count(mount->second) == 0) {
      return;
    }
    const std::string& op = p.labels["op"];
    if (p.name == "cntr_fuse_requests_total") {
      ops[op].requests += static_cast<uint64_t>(p.value);
    } else if (p.name == "cntr_fuse_request_ns_bucket" && p.labels["phase"] == "total" &&
               p.labels["le"] != "+Inf") {
      uint64_t le = std::strtoull(p.labels["le"].c_str(), nullptr, 10);
      size_t idx = cntr::obs::Histogram::BucketIndex(le);
      uint64_t& prev = cum[{mount->second, op}];
      FuseOp& fo = ops[op];
      fo.buckets.resize(cntr::obs::Histogram::kBuckets, 0);
      fo.buckets[idx] += static_cast<uint64_t>(p.value) - prev;
      prev = static_cast<uint64_t>(p.value);
    }
  });
  return ops;
}

void AddFuseOpsDelta(Recorder& rec, const FuseOps& a, const FuseOps& b) {
  for (const auto& [name, after] : b) {
    auto it = a.find(name);
    const FuseOp* before = it == a.end() ? nullptr : &it->second;
    rec.Add("fuse.requests." + name,
            static_cast<double>(after.requests - (before != nullptr ? before->requests : 0)));
    std::vector<uint64_t> delta = after.buckets;
    for (size_t i = 0; before != nullptr && i < delta.size() && i < before->buckets.size(); ++i) {
      delta[i] -= before->buckets[i];
    }
    rec.AddBuckets("fuse.request_ns." + name, delta);
  }
}

double BucketQuantile(const std::vector<uint64_t>& buckets, double q) {
  cntr::obs::Histogram::Snapshot snap;
  for (size_t i = 0; i < buckets.size() && i < snap.buckets.size(); ++i) {
    snap.buckets[i] = buckets[i];
    snap.count += buckets[i];
    if (buckets[i] != 0) {
      snap.max = cntr::obs::Histogram::BucketUpperBound(i);
    }
  }
  return snap.Quantile(q);
}

uint64_t CountSeries(const std::string& prometheus) {
  // Counters and gauges export one line per series; a histogram series
  // exports buckets, _sum, _count and quantile lines, so count its _count.
  uint64_t series = 0;
  std::string family;
  bool histogram = false;
  ForEachLine(prometheus, [&](const std::string& line) {
    if (line.rfind("# TYPE ", 0) == 0) {
      size_t sp = line.find(' ', 7);
      family = line.substr(7, sp - 7);
      histogram = line.compare(sp + 1, std::string::npos, "histogram") == 0;
      return;
    }
    if (line.empty() || line[0] == '#') {
      return;
    }
    if (!histogram) {
      ++series;
    } else if (line.rfind(family + "_count", 0) == 0) {
      ++series;
    }
  });
  return series;
}

}  // namespace perfbench
