#include "src/telemetry/telemetry.h"

#include <fstream>

#include "src/base/log.h"

namespace malt {

TelemetryDomain::TelemetryDomain(int ranks, TelemetryOptions options) : options_(options) {
  MALT_CHECK(ranks >= 1) << "telemetry domain needs >= 1 rank";
  ranks_.reserve(static_cast<size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    ranks_.push_back(std::make_unique<RankTelemetry>(options_.trace_capacity));
  }
}

MetricRegistry TelemetryDomain::Merged() const {
  MetricRegistry merged;
  for (const auto& rank : ranks_) {
    merged.Merge(rank->metrics);
  }
  return merged;
}

std::string TelemetryDomain::MetricsJson() const {
  std::string out;
  out.append("{\"ranks\":");
  AppendJsonNumber(&out, static_cast<double>(ranks_.size()));
  out.append(",\"aggregate\":");
  Merged().AppendJson(&out);
  out.append(",\"per_rank\":[");
  for (size_t r = 0; r < ranks_.size(); ++r) {
    if (r > 0) {
      out.push_back(',');
    }
    ranks_[r]->metrics.AppendJson(&out);
  }
  out.append("]}");
  return out;
}

Status TelemetryDomain::WriteMetricsJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) {
    return UnavailableError("cannot open metrics output '" + path + "'");
  }
  out << MetricsJson() << '\n';
  out.flush();
  if (!out.good()) {
    return UnavailableError("failed writing metrics output '" + path + "'");
  }
  return OkStatus();
}

std::vector<const TraceRing*> TelemetryDomain::Rings() const {
  std::vector<const TraceRing*> rings;
  rings.reserve(ranks_.size());
  for (const auto& rank : ranks_) {
    rings.push_back(&rank->trace);
  }
  return rings;
}

std::string TelemetryDomain::TraceJson() const {
  std::string out;
  AppendChromeTrace(&out, Rings());
  return out;
}

Status TelemetryDomain::WriteChromeTrace(const std::string& path) const {
  return malt::WriteChromeTrace(path, Rings());
}

int64_t TelemetryDomain::TraceDropped() const {
  int64_t dropped = 0;
  for (const auto& rank : ranks_) {
    dropped += rank->trace.dropped();
  }
  return dropped;
}

void TelemetryDomain::SyncTraceDroppedCounters() {
  MutexLock lock(sync_mu_);
  for (auto& rank : ranks_) {
    Counter* c = rank->metrics.GetCounter("telemetry.trace.dropped");
    const int64_t delta = rank->trace.dropped() - c->value();
    if (delta > 0) {
      c->Add(delta);
    }
  }
}

}  // namespace malt
