// Core runtime tests: worker launch, sharding, fault-aware barrier, SSP
// gate, cost model charging, recorder plumbing, determinism.

#include "src/core/runtime.h"

#include <gtest/gtest.h>

#include "src/comm/graph.h"

namespace malt {
namespace {

MaltOptions SmallCluster(int ranks) {
  MaltOptions options;
  options.ranks = ranks;
  options.fabric.net.latency = 1000;
  options.fabric.net.bandwidth_bytes_per_sec = 1e9;
  options.fabric.net.per_message_overhead = 0;
  options.barrier_timeout = FromSeconds(0.01);
  return options;
}

TEST(Runtime, RunsBodyOnAllRanks) {
  Malt malt(SmallCluster(5));
  std::vector<int> ran(5, 0);
  malt.Run([&](Worker& w) { ran[static_cast<size_t>(w.rank())] = 1 + w.world(); });
  for (int rank = 0; rank < 5; ++rank) {
    EXPECT_EQ(ran[static_cast<size_t>(rank)], 6);
  }
  EXPECT_EQ(malt.survivors(), 5);
}

TEST(Runtime, ShardRangeCoversAllData) {
  Malt malt(SmallCluster(4));
  std::vector<Worker::Shard> shards(4);
  malt.Run([&](Worker& w) { shards[static_cast<size_t>(w.rank())] = w.ShardRange(103); });
  size_t total = 0;
  size_t expect_begin = 0;
  for (const auto& shard : shards) {
    EXPECT_EQ(shard.begin, expect_begin);
    total += shard.size();
    expect_begin = shard.end;
  }
  EXPECT_EQ(total, 103u);
}

TEST(Runtime, ChargeFlopsAdvancesClock) {
  MaltOptions options = SmallCluster(1);
  options.cost.flops_per_sec = 1e9;
  options.cost.loop_overhead = 0;
  Malt malt(options);
  SimTime end = 0;
  malt.Run([&](Worker& w) {
    w.ChargeFlops(2e6);  // 2 ms at 1 GFLOP/s
    end = w.now();
  });
  EXPECT_EQ(end, 2 * kMillisecond);
}

TEST(Runtime, BarrierAlignsRanks) {
  Malt malt(SmallCluster(3));
  std::vector<SimTime> after(3);
  malt.Run([&](Worker& w) {
    w.ChargeSeconds(0.001 * (w.rank() + 1));
    ASSERT_TRUE(w.Barrier().ok());
    after[static_cast<size_t>(w.rank())] = w.now();
  });
  for (int rank = 0; rank < 3; ++rank) {
    EXPECT_GE(after[static_cast<size_t>(rank)], FromSeconds(0.003));
  }
}

TEST(Runtime, BarrierSurvivesKilledRank) {
  MaltOptions options = SmallCluster(3);
  Malt malt(options);
  malt.ScheduleKill(2, 0.0005);
  std::vector<int> live_after(3, -1);
  malt.Run([&](Worker& w) {
    if (w.rank() == 2) {
      w.ChargeSeconds(10);  // killed long before
      return;
    }
    w.ChargeSeconds(0.001);
    ASSERT_TRUE(w.Barrier().ok());  // times out, health-checks, completes
    live_after[static_cast<size_t>(w.rank())] = w.live_ranks();
  });
  EXPECT_EQ(live_after[0], 2);
  EXPECT_EQ(live_after[1], 2);
  EXPECT_EQ(malt.survivors(), 2);
}

TEST(Runtime, ReShardAfterFailure) {
  MaltOptions options = SmallCluster(4);
  Malt malt(options);
  malt.ScheduleKill(3, 0.0005);
  std::vector<Worker::Shard> shards(4);
  malt.Run([&](Worker& w) {
    if (w.rank() == 3) {
      w.ChargeSeconds(10);
      return;
    }
    w.ChargeSeconds(0.001);
    ASSERT_TRUE(w.Barrier().ok());
    shards[static_cast<size_t>(w.rank())] = w.ShardRange(90);  // now over 3 survivors
  });
  EXPECT_EQ(shards[0].size(), 30u);
  EXPECT_EQ(shards[1].size(), 30u);
  EXPECT_EQ(shards[2].size(), 30u);
  EXPECT_EQ(shards[2].end, 90u);
}

TEST(Runtime, SspGateStallsFastRank) {
  MaltOptions options = SmallCluster(2);
  options.sync = SyncMode::kSSP;
  options.staleness = 2;
  options.barrier_timeout = FromSeconds(0.1);
  Malt malt(options);
  std::vector<std::vector<int64_t>> gaps(2);

  malt.Run([&](Worker& w) {
    MaltVector v = w.CreateVector("w", 4);
    // Rank 0 computes 10x faster than rank 1.
    const double step_cost = w.rank() == 0 ? 0.0001 : 0.001;
    for (uint32_t iter = 1; iter <= 20; ++iter) {
      v.set_iteration(iter);
      w.ChargeSeconds(step_cost);
      ASSERT_TRUE(v.Scatter().ok());
      v.GatherAverage();
      w.SspWait(v);
      const int64_t peer = v.MinPeerIteration();
      if (peer >= 0) {
        gaps[static_cast<size_t>(w.rank())].push_back(static_cast<int64_t>(iter) - peer);
      }
    }
  });
  // The fast rank never runs more than `staleness` + 1 iterations ahead of
  // what it has seen from the slow rank (+1: the gap is measured after the
  // local iteration bump).
  for (int64_t gap : gaps[0]) {
    EXPECT_LE(gap, 3);
  }
}

TEST(Runtime, RecorderCollectsSeries) {
  Malt malt(SmallCluster(2));
  malt.Run([&](Worker& w) {
    w.recorder().Record("loss", 0.0, 1.0);
    w.recorder().Record("loss", 1.0, 0.5);
    w.recorder().Count("epochs");
  });
  EXPECT_EQ(malt.recorder(0).Get("loss").size(), 2u);
  EXPECT_EQ(malt.recorder(1).Counter("epochs"), 1.0);
}

TEST(Runtime, DataflowMatchesGraphKind) {
  MaltOptions options = SmallCluster(8);
  options.graph = GraphKind::kHalton;
  Malt malt(options);
  EXPECT_EQ(malt.dataflow().MaxOutDegree(), 3);  // floor(log2 8)
  EXPECT_TRUE(malt.dataflow().StronglyConnected());
}

TEST(Runtime, DeterministicAcrossRuns) {
  auto run_once = [] {
    Malt malt(SmallCluster(4));
    std::vector<double> finals(4);
    malt.Run([&](Worker& w) {
      MaltVector v = w.CreateVector("w", 16);
      for (int iter = 0; iter < 10; ++iter) {
        for (size_t i = 0; i < v.dim(); ++i) {
          v.data()[i] += 0.01f * static_cast<float>(w.rank() + 1);
        }
        w.ChargeFlops(1000);
        (void)v.Scatter();
        v.GatherAverage();
      }
      finals[static_cast<size_t>(w.rank())] = v.data()[0];
    });
    return finals;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Runtime, PerVectorDataflowGraphs) {
  // The paper lets every vector (e.g. every NN layer) use its own dataflow.
  MaltOptions options = SmallCluster(6);
  Malt malt(options);
  std::vector<int> got_all(6), got_halton(6);
  malt.Run([&](Worker& w) {
    MaltVector dense_layer = w.CreateVectorWithGraph("l1", 4, AllToAllGraph(6));
    MaltVector light_layer = w.CreateVectorWithGraph("l3", 4, HaltonGraph(6));
    dense_layer.data()[0] = 1.0f;
    light_layer.data()[0] = 1.0f;
    ASSERT_TRUE(dense_layer.Scatter().ok());
    ASSERT_TRUE(light_layer.Scatter().ok());
    (void)w.dstorm().Flush();
    ASSERT_TRUE(w.Barrier().ok());
    got_all[static_cast<size_t>(w.rank())] = dense_layer.GatherSum().received;
    got_halton[static_cast<size_t>(w.rank())] = light_layer.GatherSum().received;
  });
  for (int rank = 0; rank < 6; ++rank) {
    EXPECT_EQ(got_all[static_cast<size_t>(rank)], 5);     // all-to-all in-degree
    EXPECT_EQ(got_halton[static_cast<size_t>(rank)], 2);  // Halton in-degree log(6)
  }
}

// A BSP peer may run one round ahead, so its next object must not overwrite
// the current one before the gather: BSP vectors need two queue slots.
TEST(Runtime, BspVectorNeedsTwoQueueSlots) {
  MaltOptions options = SmallCluster(2);
  options.queue_depth = 1;
  EXPECT_DEATH(
      {
        Malt malt(options);
        malt.Run([](Worker& w) { (void)w.CreateVector("model", 4); });
      },
      "BSP needs queue_depth >= 2");
  options.sync = SyncMode::kASP;  // ASP accepts overwrite-on-full
  Malt malt(options);
  malt.Run([](Worker& w) { EXPECT_EQ(w.CreateVector("model", 4).dim(), 4u); });
}

TEST(Runtime, CostModelForFlops) {
  CostModel cost;
  cost.flops_per_sec = 2e9;
  cost.loop_overhead = 100;
  EXPECT_EQ(cost.ForFlops(2e9), kSecond + 100);
  EXPECT_EQ(cost.ForFlops(0), 100);
}

TEST(Runtime, ParseHelpers) {
  EXPECT_EQ(*ParseSyncMode("bsp"), SyncMode::kBSP);
  EXPECT_EQ(*ParseSyncMode("async"), SyncMode::kASP);
  EXPECT_EQ(*ParseSyncMode("ssp"), SyncMode::kSSP);
  EXPECT_FALSE(ParseSyncMode("nope").ok());
  EXPECT_EQ(*ParseGraphKind("halton"), GraphKind::kHalton);
  EXPECT_FALSE(ParseGraphKind("mesh").ok());
  EXPECT_EQ(ToString(SyncMode::kASP), "ASYNC");
  EXPECT_EQ(ToString(GraphKind::kHalton), "Halton");
}

}  // namespace
}  // namespace malt
