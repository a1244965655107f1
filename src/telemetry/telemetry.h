// Per-rank telemetry bundles and the cluster-wide domain.
//
// One RankTelemetry (metric registry + trace ring) exists per simulated rank;
// the TelemetryDomain owns all of them and provides run-end aggregation:
// a merged MetricRegistry, a machine-readable JSON metrics report, and a
// Chrome trace_event JSON export of every rank's event ring on one timeline.
//
// Ownership: the Malt runtime owns one TelemetryDomain and hands it to the
// fabric and dstorm layers so every subsystem of a rank writes into the same
// registry. Components constructed standalone (unit tests, microbenches)
// fall back to a private domain, so instrumentation never needs null checks.

#ifndef SRC_TELEMETRY_TELEMETRY_H_
#define SRC_TELEMETRY_TELEMETRY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/status.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace malt {

struct TelemetryOptions {
  // Retained trace events per rank (ring overwrites oldest beyond this),
  // rounded up to a power of two.
  size_t trace_capacity = 16384;
  // Emit update-lineage flow events ('s'/'t'/'f') and per-edge delivery
  // histograms for every scatter. On by default; benches turn it off to
  // measure the tracing overhead.
  bool flow_events = true;
  // Background sampler: when > 0 and a stream path is set, snapshot all
  // metrics every interval as one NDJSON delta line (virtual time under sim,
  // a wall-clock thread under shmem). See src/telemetry/stream.h.
  int metrics_interval_ms = 0;
  std::string metrics_stream_path;
  // Crash flight recorder: when non-empty, the runtime activates a
  // FlightRecorder that dumps postmortem bundles here on abnormal endings
  // (checker violation, watchdog kill, rank death, fatal check, fatal
  // signal). See src/telemetry/flightrec.h.
  std::string postmortem_path;
  // Also install the async-signal-safe crash handlers (SIGSEGV & friends).
  // Off by default — drivers like malt_run opt in; tests and libraries
  // should not change process-wide signal dispositions.
  bool postmortem_signals = false;
};

struct RankTelemetry {
  explicit RankTelemetry(size_t trace_capacity) : trace(trace_capacity) {}

  MetricRegistry metrics;
  TraceRing trace;
};

class TelemetryDomain {
 public:
  explicit TelemetryDomain(int ranks, TelemetryOptions options = TelemetryOptions{});

  int ranks() const { return static_cast<int>(ranks_.size()); }
  const TelemetryOptions& options() const { return options_; }
  RankTelemetry& rank(int r) { return *ranks_[static_cast<size_t>(r)]; }
  const RankTelemetry& rank(int r) const { return *ranks_[static_cast<size_t>(r)]; }

  // Cluster-wide aggregate: counters add, gauges sum, histograms merge.
  MetricRegistry Merged() const;

  // {"ranks":N,"aggregate":{...},"per_rank":[{...},...]}
  std::string MetricsJson() const;
  [[nodiscard]] Status WriteMetricsJson(const std::string& path) const;

  // All ranks' trace rings as one Chrome trace_event JSON (tid = rank).
  std::string TraceJson() const;
  [[nodiscard]] Status WriteChromeTrace(const std::string& path) const;

  // Total events overwritten across all rings (0 means the export is
  // complete; nonzero means only the newest window per rank survived).
  int64_t TraceDropped() const;

  // Mirrors each ring's dropped() into that rank's
  // "telemetry.trace.dropped" counter (delta-add, so repeated calls are
  // idempotent). The sampler calls this every tick, the flight recorder's
  // metrics section at every refresh, and the runtime once more at run end
  // so exports always carry the loss count; `sync_mu_` makes the caller
  // holding it the counters' one writer.
  void SyncTraceDroppedCounters();

 private:
  std::vector<const TraceRing*> Rings() const;

  TelemetryOptions options_;
  Mutex sync_mu_;
  std::vector<std::unique_ptr<RankTelemetry>> ranks_;
};

}  // namespace malt

#endif  // SRC_TELEMETRY_TELEMETRY_H_
