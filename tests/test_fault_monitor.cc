// Fault-monitor tests: failure detection through failed writes, health
// checks, survivor-group rebuild, recovery listeners, and local fault
// trapping (the paper's processor-exception path).

#include "src/fault/monitor.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/comm/graph.h"
#include "tests/sim_cluster.h"

namespace malt {
namespace {

std::span<const std::byte> AsBytes(const void* p, size_t n) {
  return {static_cast<const std::byte*>(p), n};
}

TEST(FaultMonitor, NoFailureNoRecovery) {
  SimCluster cluster(2);
  cluster.Run([&](int rank, Dstorm& d, FaultMonitor& monitor, Process&) {
    SegmentOptions opts;
    opts.obj_bytes = sizeof(int);
    opts.graph = AllToAllGraph(2);
    const SegmentId seg = d.CreateSegment(opts);
    ASSERT_TRUE(d.Scatter(seg, AsBytes(&rank, sizeof(rank)), 0).ok());
    ASSERT_TRUE(d.Flush().ok());
    EXPECT_TRUE(monitor.CheckAndRecover().empty());
    EXPECT_EQ(monitor.recoveries(), 0);
  });
}

TEST(FaultMonitor, DetectsDeadPeerViaFailedWrite) {
  SimCluster cluster(3);
  cluster.engine.ScheduleKill(2, 500);
  std::vector<int> removed_by_0;
  int64_t recoveries_0 = 0;

  cluster.Run([&](int rank, Dstorm& d, FaultMonitor& monitor, Process& p) {
    SegmentOptions opts;
    opts.obj_bytes = sizeof(int);
    opts.graph = AllToAllGraph(3);
    const SegmentId seg = d.CreateSegment(opts);
    if (rank == 2) {
      p.Advance(1'000'000);  // dies at t=500
      return;
    }
    p.SleepUntil(10'000);  // scatter after node 2 is dead
    ASSERT_FALSE(d.Scatter(seg, AsBytes(&rank, sizeof(rank)), 0).ok() == false);
    (void)d.Flush();
    const std::vector<int> removed = monitor.CheckAndRecover();
    if (rank == 0) {
      removed_by_0 = removed;
      recoveries_0 = monitor.recoveries();
    }
    EXPECT_FALSE(d.InGroup(2));
    EXPECT_TRUE(d.InGroup(1 - rank));
    // Subsequent collectives work among survivors.
    ASSERT_TRUE(d.Barrier().ok());
  });

  ASSERT_EQ(removed_by_0.size(), 1u);
  EXPECT_EQ(removed_by_0[0], 2);
  EXPECT_EQ(recoveries_0, 1);
}

TEST(FaultMonitor, HealthCheckFindsSilentlyDeadPeer) {
  // Node 1 never receives writes from node 0 (ring 0->1->2->0 means 0 writes
  // only to 1)... use a graph where 0 doesn't write to the dead node so only
  // the active health check can discover the death.
  SimCluster cluster(3);
  cluster.engine.ScheduleKill(2, 100);
  cluster.Run([&](int rank, Dstorm& d, FaultMonitor& monitor, Process& p) {
    if (rank == 2) {
      p.Advance(1'000'000);
      return;
    }
    p.SleepUntil(10'000);
    const std::vector<int> removed = monitor.HealthCheckAndRecover();
    ASSERT_EQ(removed.size(), 1u);
    EXPECT_EQ(removed[0], 2);
    EXPECT_FALSE(d.InGroup(2));
  });
}

TEST(FaultMonitor, RecoveryListenerFires) {
  SimCluster cluster(2);
  cluster.engine.ScheduleKill(1, 100);
  std::vector<int> listener_removed;
  cluster.Run([&](int rank, Dstorm&, FaultMonitor& monitor, Process& p) {
    if (rank == 1) {
      p.Advance(1'000'000);
      return;
    }
    monitor.AddRecoveryListener(
        [&](const std::vector<int>& removed) { listener_removed = removed; });
    p.SleepUntil(10'000);
    monitor.HealthCheckAndRecover();
  });
  ASSERT_EQ(listener_removed.size(), 1u);
  EXPECT_EQ(listener_removed[0], 1);
}

TEST(FaultMonitor, RecoveryChargesTime) {
  SimCluster cluster(2);
  cluster.engine.ScheduleKill(1, 100);
  SimTime before = 0;
  SimTime after = 0;
  cluster.Run([&](int rank, Dstorm&, FaultMonitor& monitor, Process& p) {
    if (rank == 1) {
      p.Advance(1'000'000);
      return;
    }
    p.SleepUntil(10'000);
    before = p.now();
    monitor.HealthCheckAndRecover();
    after = p.now();
  });
  EXPECT_GE(after - before, FromSeconds(0.2));  // modeled recovery delay
}

TEST(FaultMonitor, GuardLocalTrapsExceptionAndKillsReplica) {
  SimCluster cluster(2);
  bool after_guard_reached = false;
  cluster.Run([&](int rank, Dstorm& d, FaultMonitor& monitor, Process& p) {
    if (rank == 0) {
      monitor.GuardLocal([] { throw std::runtime_error("simulated divide by zero"); });
      after_guard_reached = true;  // must never run
      return;
    }
    // Peer detects the self-terminated replica.
    p.SleepUntil(100'000);
    EXPECT_FALSE(d.ProbePeer(0));
  });
  EXPECT_FALSE(after_guard_reached);
  EXPECT_FALSE(cluster.engine.alive(0));
}

TEST(FaultMonitor, SimultaneousLocalFaultsKillBothRanksCleanly) {
  // Ranks 0 and 1 trap a fault at the same virtual instant, so each one's
  // kill is pending while the other traps its own; the survivors finish.
  SimCluster cluster(4);
  int survivors_finished = 0;
  cluster.Run([&](int rank, Dstorm& d, FaultMonitor& monitor, Process& p) {
    p.SleepUntil(50'000);
    if (rank < 2) {
      monitor.GuardLocal([rank] {
        throw std::runtime_error("simulated fault on rank " + std::to_string(rank));
      });
      ADD_FAILURE() << "rank " << rank << " survived its local fault";
      return;
    }
    p.SleepUntil(200'000);
    EXPECT_FALSE(d.ProbePeer(0));
    EXPECT_FALSE(d.ProbePeer(1));
    ++survivors_finished;
  });
  EXPECT_EQ(survivors_finished, 2);
  EXPECT_EQ(cluster.engine.state(0), ProcState::kKilled);
  EXPECT_EQ(cluster.engine.state(1), ProcState::kKilled);
  EXPECT_EQ(cluster.engine.state(2), ProcState::kDone);
  EXPECT_EQ(cluster.engine.state(3), ProcState::kDone);
}

TEST(FaultMonitor, GuardLocalPassesThroughNormally) {
  SimCluster cluster(1);
  int ran = 0;
  cluster.Run([&](int, Dstorm&, FaultMonitor& monitor, Process&) {
    monitor.GuardLocal([&] { ran = 1; });
  });
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(cluster.engine.alive(0));
}

TEST(FaultMonitor, DoubleRecoveryIsIdempotent) {
  SimCluster cluster(3);
  cluster.engine.ScheduleKill(2, 100);
  cluster.Run([&](int rank, Dstorm& d, FaultMonitor& monitor, Process& p) {
    if (rank == 2) {
      p.Advance(1'000'000);
      return;
    }
    p.SleepUntil(10'000);
    EXPECT_EQ(monitor.HealthCheckAndRecover().size(), 1u);
    EXPECT_TRUE(monitor.HealthCheckAndRecover().empty());  // already removed
    EXPECT_EQ(d.GroupMembers().size(), 2u);
  });
}

}  // namespace
}  // namespace malt
