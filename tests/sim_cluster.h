// Shared simulator harness for the dstorm-level tests: an Engine + Fabric +
// DstormDomain cluster whose Run() executes a body on every rank as an engine
// process, bound through SimProcessCtx exactly as the runtime binds it. This
// is the only place tests build a SimProcessCtx.

#ifndef TESTS_SIM_CLUSTER_H_
#define TESTS_SIM_CLUSTER_H_

#include <functional>
#include <string>

#include "src/check/check.h"
#include "src/dstorm/dstorm.h"
#include "src/fault/monitor.h"
#include "src/sim/engine.h"
#include "src/simnet/fabric.h"
#include "src/simnet/rank_ctx.h"

namespace malt {

// 1 us latency, 1 GB/s, no per-message overhead: round numbers that keep
// virtual-time assertions easy to reason about.
inline FabricOptions FastNet() {
  FabricOptions opts;
  opts.net.latency = 1000;
  opts.net.bandwidth_bytes_per_sec = 1e9;
  opts.net.per_message_overhead = 0;
  return opts;
}

struct SimCluster {
  explicit SimCluster(int n, FabricOptions opts = FastNet(), ProtocolChecker* checker = nullptr)
      : fabric(engine, n, opts, nullptr, checker), domain(fabric, n) {}

  // Runs body(rank, dstorm, process) on every rank, then the engine to
  // completion.
  void Run(const std::function<void(int, Dstorm&, Process&)>& body) {
    for (int rank = 0; rank < domain.size(); ++rank) {
      engine.AddProcess("rank" + std::to_string(rank), [this, rank, body](Process& p) {
        SimProcessCtx ctx(p);
        Dstorm& d = domain.node(rank);
        d.BindCtx(ctx);
        body(rank, d, p);
      });
    }
    engine.Run();
  }

  // As above, with a FaultMonitor over each rank's endpoint.
  void Run(const std::function<void(int, Dstorm&, FaultMonitor&, Process&)>& body,
           FaultMonitorOptions monitor_options = {}) {
    Run([&body, monitor_options](int rank, Dstorm& d, Process& p) {
      FaultMonitor monitor(d, monitor_options);
      body(rank, d, monitor, p);
    });
  }

  Engine engine;
  Fabric fabric;
  DstormDomain domain;
};

}  // namespace malt

#endif  // TESTS_SIM_CLUSTER_H_
