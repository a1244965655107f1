#include "src/telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "src/base/log.h"

namespace malt {

namespace {

// The one-writer bumps (see metrics.h): relaxed load, then relaxed store.
void Bump(std::atomic<int64_t>* a, int64_t delta) {
  a->store(a->load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

void Bump(std::atomic<double>* a, double delta) {
  a->store(a->load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

void LowerTo(std::atomic<double>* a, double x) {
  if (x < a->load(std::memory_order_relaxed)) {
    a->store(x, std::memory_order_relaxed);
  }
}

void RaiseTo(std::atomic<double>* a, double x) {
  if (x > a->load(std::memory_order_relaxed)) {
    a->store(x, std::memory_order_relaxed);
  }
}

}  // namespace

HistogramMetric::HistogramMetric() : HistogramMetric(Options{}) {}

HistogramMetric::HistogramMetric(Options options)
    : options_(options),
      width_((options.hi - options.lo) / static_cast<double>(options.buckets)),
      inv_width_(1.0 / width_),
      lines_((static_cast<size_t>(std::max(options.buckets, 1)) + kBucketsPerLine - 1) /
             kBucketsPerLine),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  MALT_CHECK(options.buckets >= 1) << "histogram needs >= 1 bucket";
  MALT_CHECK(options.hi > options.lo) << "histogram needs hi > lo";
}

void HistogramMetric::Observe(double x) {
  const double pos = (x - options_.lo) * inv_width_;
  const size_t last = static_cast<size_t>(options_.buckets - 1);
  // !(pos >= 1) also sends NaN to the first bucket.
  const size_t idx = !(pos >= 1.0)                      ? 0
                     : pos >= static_cast<double>(last) ? last
                                                        : static_cast<size_t>(pos);
  Bump(&Bucket(idx), 1);
  LowerTo(&min_, x);
  RaiseTo(&max_, x);
  Bump(&count_, 1);
  Bump(&sum_, x);
}

void HistogramMetric::Merge(const HistogramMetric& other) {
  MALT_CHECK(options_ == other.options_) << "merging histograms with different bucket layouts";
  if (other.count() == 0) {
    return;
  }
  for (size_t i = 0; i < static_cast<size_t>(options_.buckets); ++i) {
    Bump(&Bucket(i), other.BucketCount(i));
  }
  LowerTo(&min_, other.min_.load(std::memory_order_relaxed));
  RaiseTo(&max_, other.max_.load(std::memory_order_relaxed));
  Bump(&count_, other.count());
  Bump(&sum_, other.sum());
}

double HistogramMetric::Percentile(double p) const {
  const int64_t total = count();
  if (total == 0) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(total);
  int64_t seen = 0;
  for (size_t i = 0; i < static_cast<size_t>(options_.buckets); ++i) {
    const int64_t in_bucket = BucketCount(i);
    if (in_bucket == 0) {
      continue;
    }
    if (static_cast<double>(seen + in_bucket) >= target) {
      const double within =
          in_bucket == 0 ? 0.0
                         : (target - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      const double lo = options_.lo + width_ * static_cast<double>(i);
      return std::clamp(lo + width_ * within, min(), max());
    }
    seen += in_bucket;
  }
  return max();
}

MetricRegistry::MetricRegistry() : mu_(std::make_unique<Mutex>()) {}

Counter* MetricRegistry::GetCounter(const std::string& name) {
  MutexLock lock(*mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name) {
  MutexLock lock(*mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

HistogramMetric* MetricRegistry::GetHistogram(const std::string& name,
                                              HistogramMetric::Options options) {
  MutexLock lock(*mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<HistogramMetric>(options);
  }
  return slot.get();
}

int64_t MetricRegistry::CounterValue(const std::string& name) const {
  MutexLock lock(*mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

double MetricRegistry::GaugeValue(const std::string& name) const {
  MutexLock lock(*mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second->value();
}

const HistogramMetric* MetricRegistry::FindHistogram(const std::string& name) const {
  MutexLock lock(*mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void MetricRegistry::Merge(const MetricRegistry& other) {
  // Snapshot `other` under its lock, release, then fold into this registry
  // under ours — never both at once, so a sampler merging live per-rank
  // registries cannot deadlock against concurrent registration.
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, const HistogramMetric*>> histograms;
  {
    MutexLock lock(*other.mu_);
    counters.reserve(other.counters_.size());
    for (const auto& [name, counter] : other.counters_) {
      counters.emplace_back(name, counter->value());
    }
    gauges.reserve(other.gauges_.size());
    for (const auto& [name, gauge] : other.gauges_) {
      gauges.emplace_back(name, gauge->value());
    }
    histograms.reserve(other.histograms_.size());
    for (const auto& [name, histogram] : other.histograms_) {
      histograms.emplace_back(name, histogram.get());  // stable: never erased
    }
  }
  for (const auto& [name, value] : counters) {
    GetCounter(name)->Add(value);
  }
  for (const auto& [name, value] : gauges) {
    Gauge* mine = GetGauge(name);
    mine->Set(mine->value() + value);
  }
  for (const auto& [name, histogram] : histograms) {
    GetHistogram(name, histogram->options())->Merge(*histogram);
  }
}

void MetricRegistry::ForEachCounter(
    const std::function<void(const std::string&, int64_t)>& fn) const {
  MutexLock lock(*mu_);
  for (const auto& [name, counter] : counters_) {
    fn(name, counter->value());
  }
}

void MetricRegistry::ForEachGauge(
    const std::function<void(const std::string&, double)>& fn) const {
  MutexLock lock(*mu_);
  for (const auto& [name, gauge] : gauges_) {
    fn(name, gauge->value());
  }
}

void MetricRegistry::ForEachHistogram(
    const std::function<void(const std::string&, const HistogramMetric&)>& fn) const {
  MutexLock lock(*mu_);
  for (const auto& [name, histogram] : histograms_) {
    fn(name, *histogram);
  }
}

size_t MetricRegistry::size() const {
  MutexLock lock(*mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::string EdgeMetricName(int src, int dst, const char* leaf) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "comm.edge.%d-%d.%s", src, dst, leaf);
  return buf;
}

std::string HealthMetricName(int rank, const char* leaf) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "health.rank.%d.%s", rank, leaf);
  return buf;
}

std::string HealthMetricName(const char* leaf) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "health.cluster.%s", leaf);
  return buf;
}

void AppendJsonEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("0");
    return;
  }
  char buf[40];
  if (v == std::floor(v) && std::abs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  out->append(buf);
}

void MetricRegistry::AppendJson(std::string* out) const {
  MutexLock lock(*mu_);
  out->append("{\"counters\":{");
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) {
      out->push_back(',');
    }
    first = false;
    AppendJsonEscaped(out, name);
    out->push_back(':');
    AppendJsonNumber(out, static_cast<double>(counter->value()));
  }
  out->append("},\"gauges\":{");
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) {
      out->push_back(',');
    }
    first = false;
    AppendJsonEscaped(out, name);
    out->push_back(':');
    AppendJsonNumber(out, gauge->value());
  }
  out->append("},\"histograms\":{");
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) {
      out->push_back(',');
    }
    first = false;
    AppendJsonEscaped(out, name);
    out->append(":{\"count\":");
    AppendJsonNumber(out, static_cast<double>(h->count()));
    out->append(",\"sum\":");
    AppendJsonNumber(out, h->sum());
    out->append(",\"min\":");
    AppendJsonNumber(out, h->min());
    out->append(",\"max\":");
    AppendJsonNumber(out, h->max());
    out->append(",\"mean\":");
    AppendJsonNumber(out, h->mean());
    out->append(",\"p50\":");
    AppendJsonNumber(out, h->Percentile(50));
    out->append(",\"p90\":");
    AppendJsonNumber(out, h->Percentile(90));
    out->append(",\"p99\":");
    AppendJsonNumber(out, h->Percentile(99));
    out->push_back('}');
  }
  out->append("}}");
}

std::string MetricRegistry::ToJson() const {
  std::string out;
  AppendJson(&out);
  return out;
}

}  // namespace malt
