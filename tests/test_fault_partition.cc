// Network-partition tests (paper §3.3): after a partition, each side's fault
// monitors remove the unreachable peers and training resumes independently;
// with a quorum policy, a splinter below quorum halts itself.

#include <gtest/gtest.h>

#include "src/comm/graph.h"
#include "src/fault/monitor.h"
#include "tests/sim_cluster.h"

namespace malt {
namespace {

// Cuts every link between the two sides (both directions).
void SplitNetwork(SimCluster& cluster, const std::vector<int>& side_a,
                  const std::vector<int>& side_b) {
  for (int a : side_a) {
    for (int b : side_b) {
      cluster.fabric.SetReachable(a, b, false);
    }
  }
}

TEST(Partition, BothSidesContinueIndependently) {
  // 5 nodes split {0,1,2} | {3,4}: each side removes the other and keeps
  // exchanging among itself (the paper's default policy).
  SimCluster cluster(5);
  SplitNetwork(cluster, {0, 1, 2}, {3, 4});
  std::vector<int> group_sizes(5);
  std::vector<int> gathered(5);

  cluster.Run([&](int rank, Dstorm& d, FaultMonitor& monitor, Process&) {
    SegmentOptions opts;
    opts.obj_bytes = sizeof(int);
    opts.graph = AllToAllGraph(5);
    const SegmentId seg = d.CreateSegment(opts);

    monitor.HealthCheckAndRecover();  // discovers the unreachable side
    group_sizes[static_cast<size_t>(rank)] = static_cast<int>(d.GroupMembers().size());

    ASSERT_TRUE(d.Scatter(seg,
                          std::span<const std::byte>(
                              reinterpret_cast<const std::byte*>(&rank), sizeof(rank)),
                          1)
                    .ok());
    ASSERT_TRUE(d.Flush().ok());
    ASSERT_TRUE(d.Barrier().ok());  // per-side barrier
    gathered[static_cast<size_t>(rank)] = d.Gather(seg, [](const RecvObject&) {});
  });

  EXPECT_EQ(group_sizes[0], 3);
  EXPECT_EQ(group_sizes[3], 2);
  EXPECT_EQ(gathered[0], 2);  // updates from its own side only
  EXPECT_EQ(gathered[1], 2);
  EXPECT_EQ(gathered[3], 1);
  EXPECT_EQ(gathered[4], 1);
}

TEST(Partition, MinorityHaltsUnderQuorum) {
  SimCluster cluster(5);
  SplitNetwork(cluster, {0, 1, 2}, {3, 4});
  FaultMonitorOptions monitor_options;
  monitor_options.quorum_fraction = 0.5;  // need >= 2.5 of 5
  monitor_options.recovery_cost = FromSeconds(0.001);
  std::vector<int> survived(5, -1);

  cluster.Run(
      [&](int rank, Dstorm& d, FaultMonitor& monitor, Process&) {
        SegmentOptions opts;
        opts.obj_bytes = 8;
        opts.graph = AllToAllGraph(5);
        d.CreateSegment(opts);
        monitor.HealthCheckAndRecover();  // minority side halts in here
        survived[static_cast<size_t>(rank)] = 1;
        EXPECT_TRUE(monitor.HasQuorum());
        ASSERT_TRUE(d.Barrier().ok());
      },
      monitor_options);

  // Majority {0,1,2} survived; minority {3,4} halted (killed themselves).
  EXPECT_EQ(survived[0], 1);
  EXPECT_EQ(survived[1], 1);
  EXPECT_EQ(survived[2], 1);
  EXPECT_EQ(survived[3], -1);
  EXPECT_EQ(survived[4], -1);
  EXPECT_FALSE(cluster.engine.alive(3));
  EXPECT_FALSE(cluster.engine.alive(4));
}

TEST(Partition, QuorumOffByDefault) {
  SimCluster cluster(4);
  SplitNetwork(cluster, {0, 1, 2}, {3});
  std::vector<int> survived(4, 0);
  cluster.Run([&](int rank, Dstorm&, FaultMonitor& monitor, Process&) {
    monitor.HealthCheckAndRecover();
    EXPECT_TRUE(monitor.HasQuorum());  // quorum_fraction = 0: always true
    survived[static_cast<size_t>(rank)] = 1;
  });
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(survived[static_cast<size_t>(rank)], 1);  // even the singleton
  }
}

}  // namespace
}  // namespace malt
