#include "perfbench/src/bench.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double HeapInUseMb() {
  struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

Recorder::Recorder() : host_origin_(HostNowNs()) {}

void Recorder::SetClock(const cntr::SimClock* clock) {
  if (clock != clock_) {
    clock_ = clock;
    ++kernel_id_;
  }
}

Recorder::Mark Recorder::Begin(const char* name, uint64_t op) {
  Mark m;
  m.v0 = VNow();
  if (tracing_) {
    Span s;
    s.name = name;
    s.op = op;
    s.parent = open_.empty() ? -1 : open_.back();
    s.kernel = kernel_id_;
    s.v0 = m.v0;
    s.h0 = HNow();
    m.span = static_cast<int32_t>(spans_.size());
    spans_.push_back(s);
    open_.push_back(m.span);
  }
  return m;
}

uint64_t Recorder::End(const Mark& m) {
  uint64_t v1 = VNow();
  if (m.span >= 0) {
    Span& s = spans_[static_cast<size_t>(m.span)];
    s.v1 = v1;
    s.h1 = HNow();
    if (!open_.empty() && open_.back() == m.span) {
      open_.pop_back();
    }
  }
  return v1 - m.v0;
}

void Recorder::Op(bool ok, const char* what, const std::string& detail) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failed_ <= 10) {
      std::fprintf(stderr, "perfbench: failed: %s %s\n", what, detail.c_str());
    }
  }
}

void Recorder::Max(const std::string& key, double v) {
  auto [it, fresh] = layer_.emplace(key, v);
  if (!fresh && v > it->second) {
    it->second = v;
  }
}

void Recorder::AddBuckets(const std::string& key, const std::vector<uint64_t>& buckets) {
  std::vector<uint64_t>& dst = buckets_[key];
  dst.resize(std::max(dst.size(), buckets.size()), 0);
  for (size_t i = 0; i < buckets.size(); ++i) {
    dst[i] += buckets[i];
  }
}

double Recorder::Sum(const std::string& key) const {
  auto it = layer_.find(key);
  return it == layer_.end() ? 0.0 : it->second;
}

}  // namespace perfbench
