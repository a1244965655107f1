#include "src/fault/monitor.h"

#include <exception>
#include <string>

#include "src/base/log.h"
#include "src/base/process_killed.h"

namespace malt {

FaultMonitor::FaultMonitor(Dstorm& dstorm, FaultMonitorOptions options)
    : dstorm_(dstorm), options_(options) {
  MetricRegistry& reg = dstorm_.telemetry().metrics;
  c_checks_ = reg.GetCounter("fault.checks");
  c_suspects_ = reg.GetCounter("fault.suspects");
  c_health_checks_ = reg.GetCounter("fault.health_checks");
  c_recoveries_ = reg.GetCounter("fault.recoveries");
  c_nodes_removed_ = reg.GetCounter("fault.nodes_removed");
  c_local_faults_ = reg.GetCounter("fault.local_faults_trapped");
}

std::vector<int> FaultMonitor::CheckAndRecover() {
  c_checks_->Add(1);
  const std::vector<int> suspects = dstorm_.TakeFailedPeers();
  if (suspects.empty()) {
    return {};
  }
  c_suspects_->Add(static_cast<int64_t>(suspects.size()));
  dstorm_.telemetry().trace.Instant("fault.detect", dstorm_.ctx().Now(), "suspects",
                                    static_cast<int64_t>(suspects.size()));
  MALT_LOG_S(kInfo) << "fault monitor rank " << dstorm_.rank() << ": " << suspects.size()
                    << " suspect peer(s); running health check";
  return HealthCheckAndRecover();
}

std::vector<int> FaultMonitor::HealthCheckAndRecover() {
  c_health_checks_->Add(1);
  TraceRing& trace = dstorm_.telemetry().trace;
  trace.Begin("fault.health_check", dstorm_.ctx().Now());
  std::vector<int> removed;
  for (int member : dstorm_.GroupMembers()) {
    if (member == dstorm_.rank()) {
      continue;
    }
    if (!dstorm_.ProbePeer(member)) {
      removed.push_back(member);
    }
  }
  if (!removed.empty()) {
    Recover(removed);
  }
  // Drop any residual failure reports for nodes we just removed.
  (void)dstorm_.TakeFailedPeers();
  trace.End("fault.health_check", dstorm_.ctx().Now());
  return removed;
}

bool FaultMonitor::HasQuorum() const {
  if (options_.quorum_fraction <= 0.0) {
    return true;
  }
  const double group = static_cast<double>(dstorm_.GroupMembers().size());
  return group >= options_.quorum_fraction * static_cast<double>(dstorm_.world());
}

void FaultMonitor::Recover(const std::vector<int>& removed) {
  for (int node : removed) {
    MALT_LOG_S(kInfo) << "fault monitor rank " << dstorm_.rank() << ": removing node " << node
                      << " from group";
    dstorm_.RemoveFromGroup(node);
  }
  // Model the RDMA re-registration + queue rebuild delay (paper §3.3).
  dstorm_.ctx().Advance(options_.recovery_cost);
  ++recoveries_;
  c_recoveries_->Add(1);
  c_nodes_removed_->Add(static_cast<int64_t>(removed.size()));
  dstorm_.telemetry().trace.Instant("fault.rebuild", dstorm_.ctx().Now(), "removed",
                                    static_cast<int64_t>(removed.size()));
  for (const auto& listener : listeners_) {
    listener(removed);
  }
  if (!HasQuorum()) {
    // Partition left this replica in a splinter below quorum: halt training
    // here; the majority side continues (paper §3.3).
    MALT_LOG_S(kError) << "rank " << dstorm_.rank() << ": group of "
                       << dstorm_.GroupMembers().size() << " is below quorum; halting";
    dstorm_.ctx().KillSelf();
  }
}

void FaultMonitor::GuardLocal(const std::function<void()>& fn) {
  std::string fault;
  try {
    fn();
    return;
  } catch (const ProcessKilled&) {
    throw;  // engine-injected kill: unwind normally
  } catch (const std::exception& e) {
    fault = e.what();
  }
  // The paper's local fault monitor traps processor exceptions (divide by
  // zero, segfault, ...) and terminates the local training process; peers
  // then observe the dead node through failed writes. The kill happens after
  // the handler has closed: on the simulator KillSelf() yields, and a rank
  // must not yield inside a catch handler (src/sim/engine.h).
  c_local_faults_->Add(1);
  MALT_LOG_S(kError) << "rank " << dstorm_.rank() << ": local fault trapped: " << fault
                     << "; terminating replica";
  dstorm_.ctx().KillSelf();  // unwinds via ProcessKilled
}

}  // namespace malt
