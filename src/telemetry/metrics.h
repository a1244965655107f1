// Telemetry metric primitives: counters, gauges, histograms, and the
// per-rank registry that owns them.
//
// Design (see DESIGN.md §8 "Observability"):
//   - Registration is by dotted name ("fabric.bytes_sent"); the registry
//     returns a stable pointer, so hot paths register once (typically at
//     construction) and then bump the cell directly — no map lookup, no lock.
//   - One writer per cell. Every Counter and HistogramMetric is bumped by
//     exactly one thread at a time (the rank thread that owns the event, or
//     a caller holding a lock that serializes the writers), so a bump is a
//     relaxed load plus a relaxed store: no lock prefix, no CAS loop. Other
//     threads only read — the background sampler (src/telemetry/stream.h)
//     and the flight recorder snapshot every registry mid-run — and see a
//     tear-free but approximate snapshot. Cells are aligned to a cache line
//     so two cells with different writers never share one. The registry
//     maps themselves take a mutex because VOL vectors register cells
//     mid-run.
//   - Every rank gets its own registry (see telemetry.h); Merge() folds the
//     per-rank registries into a cluster-wide aggregate at run end.
//   - Counters are monotonic int64 event counts (suffix convention: `_ns`
//     for virtual-nanosecond totals). Gauges are last-written doubles.
//     Histograms are fixed-bucket distributions with mergeable state and
//     percentile queries.

#ifndef SRC_TELEMETRY_METRICS_H_
#define SRC_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"

namespace malt {

// A cache-line-sized cell with one writer (see the file comment): Add() is a
// relaxed load and a relaxed store, so two threads bumping the same counter
// would lose counts. Readers on any thread see a tear-free value.
class alignas(64) Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.store(value_.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-width linear buckets over [lo, hi); samples outside clamp to the edge
// buckets, so percentiles saturate rather than lose mass. Two histograms
// merge only if their bucket layouts match.
//
// One writer, like Counter: Observe() and Merge() are relaxed loads and
// stores with no lock prefix and no CAS loop, so they must not race each
// other. Readers (Percentile, AppendJson, the sampler) may run on any thread
// and see an approximate snapshot in which count/sum/buckets may momentarily
// disagree by the in-flight sample.
class alignas(64) HistogramMetric {
 public:
  struct Options {
    double lo = 0.0;
    double hi = 1.0e9;
    int buckets = 64;
    bool operator==(const Options&) const = default;
  };

  // Two overloads rather than a defaulted `Options{}` argument: gcc rejects
  // default member initializers used in a default argument before the
  // enclosing class is complete.
  HistogramMetric();
  explicit HistogramMetric(Options options);

  void Observe(double x);
  void Merge(const HistogramMetric& other);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const { return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed); }
  double max() const { return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed); }
  double mean() const {
    const int64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  // Linear interpolation within the owning bucket; p in [0, 100].
  double Percentile(double p) const;
  const Options& options() const { return options_; }

 private:
  // Buckets in whole cache lines, so no other cell shares a line with them.
  static constexpr size_t kBucketsPerLine = 8;
  struct alignas(64) BucketLine {
    std::atomic<int64_t> n[kBucketsPerLine] = {};
  };
  std::atomic<int64_t>& Bucket(size_t i) {
    return lines_[i / kBucketsPerLine].n[i % kBucketsPerLine];
  }
  int64_t BucketCount(size_t i) const {
    return lines_[i / kBucketsPerLine].n[i % kBucketsPerLine].load(std::memory_order_relaxed);
  }

  Options options_;
  double width_;
  double inv_width_;  // Observe multiplies: no divide on the hot path
  std::vector<BucketLine> lines_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;  // +inf until the first sample
  std::atomic<double> max_;  // -inf until the first sample
};

// Owns all metrics of one rank. Lookup by name is O(log n) under the
// registry mutex and intended for registration and post-run/sampler readers;
// instrumented code caches the returned pointers (stable for the registry's
// lifetime — entries are never erased).
class MetricRegistry {
 public:
  MetricRegistry();
  MetricRegistry(MetricRegistry&&) = default;
  MetricRegistry& operator=(MetricRegistry&&) = default;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  HistogramMetric* GetHistogram(const std::string& name,
                                HistogramMetric::Options options = HistogramMetric::Options{});

  // Read-side lookups; missing names read as zero / null.
  int64_t CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;
  const HistogramMetric* FindHistogram(const std::string& name) const;

  // Folds `other` into this registry: counters add, gauges sum (per-rank
  // gauges are shares of a cluster total), histograms merge bucket-wise.
  // Snapshots `other` under its own lock first, so merging a live registry
  // (the sampler does, every tick) never nests the two mutexes.
  void Merge(const MetricRegistry& other);

  void ForEachCounter(const std::function<void(const std::string&, int64_t)>& fn) const;
  void ForEachGauge(const std::function<void(const std::string&, double)>& fn) const;
  void ForEachHistogram(
      const std::function<void(const std::string&, const HistogramMetric&)>& fn) const;

  size_t size() const;

  // {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,max,
  // mean,p50,p90,p99}}}
  void AppendJson(std::string* out) const;
  std::string ToJson() const;

 private:
  // Heap-allocated so the registry stays movable (Merged() returns by value);
  // the capability expression dereferences through the unique_ptr.
  mutable std::unique_ptr<Mutex> mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ MALT_GUARDED_BY(*mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ MALT_GUARDED_BY(*mu_);
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_ MALT_GUARDED_BY(*mu_);
};

// Per-(src→dst) communication-edge metric names, e.g.
// "comm.edge.3-7.bytes". The `comm.edge.` scheme is the single namespace for
// edge-resolved delivery observations (bytes, msgs, delivery_ns,
// staleness_epochs); build the names with this helper — lint_malt_api
// rejects the literal prefix outside src/telemetry/.
std::string EdgeMetricName(int src, int dst, const char* leaf);

// Per-rank health/watermark metric names, e.g. "health.rank.3.epoch_lag",
// and cluster-level ones, e.g. "health.cluster.epochs_profiled". The
// `health.` scheme is the single namespace for the straggler/progress
// watermarks exported by src/telemetry/health.h; build the names with these
// helpers — lint_malt_api rejects the literal prefix outside src/telemetry/.
std::string HealthMetricName(int rank, const char* leaf);
std::string HealthMetricName(const char* leaf);

// Standard layouts for the per-edge histograms, shared by both transports so
// Merge() never sees mismatched buckets. Delivery: 0–100us in 1us buckets
// (sim deliveries are a few us; shmem applies are sub-us to a few us; slower
// outliers clamp to the top bucket). Staleness: 0–64 epochs, 1 per bucket.
inline HistogramMetric::Options EdgeDeliveryHistogramOptions() {
  return HistogramMetric::Options{0.0, 1.0e5, 100};
}
inline HistogramMetric::Options EdgeStalenessHistogramOptions() {
  return HistogramMetric::Options{0.0, 64.0, 64};
}

// Minimal JSON string escaping for metric/trace names.
void AppendJsonEscaped(std::string* out, const std::string& s);
// Formats a double with enough precision for byte counts and nanoseconds;
// integral values print without a fractional part.
void AppendJsonNumber(std::string* out, double v);

}  // namespace malt

#endif  // SRC_TELEMETRY_METRICS_H_
