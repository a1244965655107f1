#include "src/comm/transport.h"

#include <cstring>

#include "src/base/log.h"

namespace malt {

Result<TransportKind> ParseTransportKind(const std::string& s) {
  if (s == "sim") {
    return TransportKind::kSim;
  }
  if (s == "shmem") {
    return TransportKind::kShmem;
  }
  return InvalidArgumentError("unknown transport '" + s + "' (sim|shmem)");
}

std::string ToString(TransportKind kind) {
  switch (kind) {
    case TransportKind::kSim:
      return "sim";
    case TransportKind::kShmem:
      return "shmem";
  }
  return "?";
}

int64_t TrafficStats::Read(int node, const std::string& name) const {
  return telemetry_->rank(node).metrics.CounterValue(name);
}

int64_t TrafficStats::TxBytes(int node) const { return Read(node, "fabric.bytes_sent"); }

int64_t TrafficStats::TxMessages(int node) const { return Read(node, "fabric.writes_posted"); }

int64_t TrafficStats::RxBytes(int node) const {
  int64_t total = 0;
  for (int src = 0; src < nodes_; ++src) {
    total += Read(node, EdgeMetricName(src, node, "bytes"));
  }
  return total;
}

int64_t TrafficStats::TotalBytes() const {
  int64_t total = 0;
  for (int node = 0; node < nodes_; ++node) {
    total += TxBytes(node);
  }
  return total;
}

int64_t TrafficStats::TotalMessages() const {
  int64_t total = 0;
  for (int node = 0; node < nodes_; ++node) {
    total += TxMessages(node);
  }
  return total;
}

Transport::Transport(int nodes, TelemetryDomain* telemetry, ProtocolChecker* checker)
    : nodes_(nodes),
      owned_telemetry_(telemetry == nullptr ? std::make_unique<TelemetryDomain>(nodes)
                                            : nullptr),
      telemetry_(telemetry == nullptr ? owned_telemetry_.get() : telemetry),
      owned_checker_(checker == nullptr
                         ? std::make_unique<ProtocolChecker>(CheckLevel::kOff, nodes)
                         : nullptr),
      checker_(checker == nullptr ? owned_checker_.get() : checker),
      flow_events_(telemetry_->options().flow_events),
      counters_(static_cast<size_t>(nodes)),
      edges_(static_cast<size_t>(nodes) * static_cast<size_t>(nodes)),
      stats_(nodes, telemetry_),
      cq_(static_cast<size_t>(nodes)) {
  MALT_CHECK(telemetry_->ranks() >= nodes) << "telemetry domain smaller than transport";
  for (int node = 0; node < nodes; ++node) {
    MetricRegistry& reg = telemetry_->rank(node).metrics;
    NodeCounters& c = counters_[static_cast<size_t>(node)];
    c.writes_posted = reg.GetCounter("fabric.writes_posted");
    c.bytes_sent = reg.GetCounter("fabric.bytes_sent");
    c.completions[static_cast<size_t>(WcStatus::kSuccess)] =
        reg.GetCounter("fabric.completions.success");
    c.completions[static_cast<size_t>(WcStatus::kRemoteDead)] =
        reg.GetCounter("fabric.completions.remote_dead");
    c.completions[static_cast<size_t>(WcStatus::kUnreachable)] =
        reg.GetCounter("fabric.completions.unreachable");
    c.completions[static_cast<size_t>(WcStatus::kInvalidRkey)] =
        reg.GetCounter("fabric.completions.invalid_rkey");
    c.write_bytes = reg.GetHistogram("fabric.write_bytes",
                                     HistogramMetric::Options{0.0, 1.0e6, 64});
  }
}

const Transport::EdgeCells& Transport::Edge(int src, int dst) {
  EdgeCells& cell = edges_[static_cast<size_t>(src) * static_cast<size_t>(nodes_) +
                           static_cast<size_t>(dst)];
  if (cell.bytes == nullptr) {
    MetricRegistry& reg = telemetry_->rank(dst).metrics;
    cell.bytes = reg.GetCounter(EdgeMetricName(src, dst, "bytes"));
    cell.msgs = reg.GetCounter(EdgeMetricName(src, dst, "msgs"));
    cell.delivery_ns =
        reg.GetHistogram(EdgeMetricName(src, dst, "delivery_ns"), EdgeDeliveryHistogramOptions());
  }
  return cell;
}

void Transport::AccountPost(int src, int dst, size_t bytes) {
  const NodeCounters& sc = counters_[static_cast<size_t>(src)];
  sc.writes_posted->Add(1);
  sc.bytes_sent->Add(static_cast<int64_t>(bytes));
  sc.write_bytes->Observe(static_cast<double>(bytes));
  const EdgeCells& edge = Edge(src, dst);
  edge.bytes->Add(static_cast<int64_t>(bytes));
  edge.msgs->Add(1);
}

void Transport::Complete(int src, const Completion& c) {
  cq_[static_cast<size_t>(src)].push_back(c);
  counters_[static_cast<size_t>(src)].completions[static_cast<size_t>(c.status)]->Add(1);
}

void Transport::RecordApply(int src, int dst, const WireTrace& trace, SimTime now) {
  if (!flow_events_) {
    return;
  }
  TraceRing& ring = telemetry_->rank(src).trace;
  ring.Emit({"update.apply", 'X', now, 100, nullptr, 0, 0, dst});
  ring.Emit({kFlowUpdateName, 't', now, 0, "iter", static_cast<int64_t>(trace.iter),
             trace.flow_id, dst});
  Edge(src, dst).delivery_ns->Observe(static_cast<double>(now - trace.sent_at));
}

bool Transport::Read(MrHandle mr, size_t offset, std::span<std::byte> out) const {
  if (out.empty()) {
    return true;
  }
  const std::span<const std::byte> view = Snapshot(mr, offset, out.size(), out);
  if (view.empty()) {
    return false;
  }
  if (view.data() != out.data()) {
    std::memcpy(out.data(), view.data(), out.size());
  }
  return true;
}

int Transport::PollCq(int node, std::span<Completion> out) {
  std::deque<Completion>& queue = cq_[static_cast<size_t>(node)];
  int produced = 0;
  while (produced < static_cast<int>(out.size()) && !queue.empty()) {
    out[static_cast<size_t>(produced)] = queue.front();
    queue.pop_front();
    ++produced;
  }
  return produced;
}

}  // namespace malt
