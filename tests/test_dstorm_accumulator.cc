// Accumulator-segment tests: NIC-side fetch_and_add aggregation (the paper's
// future-work primitive) — correctness, contribution counts, drain-reset,
// mixing with queue segments, and failure behaviour.

#include <gtest/gtest.h>

#include "src/comm/graph.h"
#include "src/dstorm/dstorm.h"
#include "tests/sim_cluster.h"

namespace malt {
namespace {

TEST(Accumulator, SumsAllContributions) {
  const int n = 5;
  SimCluster cluster(n);
  std::vector<double> drained(n);
  std::vector<int64_t> counts(n);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    const SegmentId acc = d.CreateAccumulator(4, AllToAllGraph(n));
    std::vector<float> mine(4, static_cast<float>(rank + 1));
    ASSERT_TRUE(d.ScatterAdd(acc, mine).ok());
    ASSERT_TRUE(d.Flush().ok());
    ASSERT_TRUE(d.Barrier().ok());
    std::vector<float> sum(4);
    counts[static_cast<size_t>(rank)] = d.DrainAccumulator(acc, sum);
    drained[static_cast<size_t>(rank)] = sum[0];
  });
  // Every rank receives the other 4 ranks' values: sum over peers of (r+1).
  for (int rank = 0; rank < n; ++rank) {
    const double expected = 15.0 - (rank + 1);  // 1+2+3+4+5 minus own
    EXPECT_DOUBLE_EQ(drained[static_cast<size_t>(rank)], expected);
    EXPECT_EQ(counts[static_cast<size_t>(rank)], n - 1);
  }
}

TEST(Accumulator, DrainResetsToZero) {
  SimCluster cluster(2);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    const SegmentId acc = d.CreateAccumulator(2, AllToAllGraph(2));
    std::vector<float> mine = {1.5f, 2.5f};
    ASSERT_TRUE(d.ScatterAdd(acc, mine).ok());
    ASSERT_TRUE(d.Flush().ok());
    ASSERT_TRUE(d.Barrier().ok());
    std::vector<float> sum(2);
    EXPECT_EQ(d.DrainAccumulator(acc, sum), 1);
    EXPECT_FLOAT_EQ(sum[0], 1.5f);
    EXPECT_EQ(d.DrainAccumulator(acc, sum), 0);  // reset
    EXPECT_FLOAT_EQ(sum[0], 0.0f);
    (void)rank;
  });
}

TEST(Accumulator, MultipleRoundsAccumulateBetweenDrains) {
  SimCluster cluster(2);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    const SegmentId acc = d.CreateAccumulator(1, AllToAllGraph(2));
    std::vector<float> one = {1.0f};
    for (int round = 0; round < 3; ++round) {
      ASSERT_TRUE(d.ScatterAdd(acc, one).ok());
      ASSERT_TRUE(d.Flush().ok());
    }
    ASSERT_TRUE(d.Barrier().ok());
    std::vector<float> sum(1);
    EXPECT_EQ(d.DrainAccumulator(acc, sum), 3);
    EXPECT_FLOAT_EQ(sum[0], 3.0f);
    (void)rank;
  });
}

TEST(Accumulator, MixesWithQueueSegments) {
  SimCluster cluster(2);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    SegmentOptions queue_opts;
    queue_opts.obj_bytes = 8;
    queue_opts.graph = AllToAllGraph(2);
    const SegmentId queue_seg = d.CreateSegment(queue_opts);
    const SegmentId acc = d.CreateAccumulator(2, AllToAllGraph(2));
    ASSERT_NE(queue_seg, acc);

    const double value = 7.0;
    ASSERT_TRUE(d.Scatter(queue_seg,
                          std::span<const std::byte>(
                              reinterpret_cast<const std::byte*>(&value), sizeof(value)),
                          1)
                    .ok());
    std::vector<float> mine = {1.0f, 2.0f};
    ASSERT_TRUE(d.ScatterAdd(acc, mine).ok());
    ASSERT_TRUE(d.Flush().ok());
    ASSERT_TRUE(d.Barrier().ok());
    EXPECT_EQ(d.Gather(queue_seg, [](const RecvObject&) {}), 1);
    std::vector<float> sum(2);
    EXPECT_EQ(d.DrainAccumulator(acc, sum), 1);
    EXPECT_FLOAT_EQ(sum[1], 2.0f);
    (void)rank;
  });
}

TEST(Accumulator, WrongSegmentKindRejected) {
  SimCluster cluster(2);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    SegmentOptions queue_opts;
    queue_opts.obj_bytes = 8;
    queue_opts.graph = AllToAllGraph(2);
    const SegmentId queue_seg = d.CreateSegment(queue_opts);
    std::vector<float> values = {1.0f, 2.0f};
    EXPECT_EQ(d.ScatterAdd(queue_seg, values).code(), StatusCode::kFailedPrecondition);
    (void)rank;
  });
}

TEST(Accumulator, SizeMismatchRejected) {
  SimCluster cluster(2);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    const SegmentId acc = d.CreateAccumulator(4, AllToAllGraph(2));
    std::vector<float> wrong(3);
    EXPECT_EQ(d.ScatterAdd(acc, wrong).code(), StatusCode::kInvalidArgument);
    (void)rank;
  });
}

TEST(Accumulator, SkipsDeadPeers) {
  SimCluster cluster(3);
  cluster.engine.ScheduleKill(2, 500);
  std::vector<double> drained(3, -1);
  cluster.Run([&](int rank, Dstorm& d, Process& p) {
    const SegmentId acc = d.CreateAccumulator(1, AllToAllGraph(3));
    if (rank == 2) {
      p.Advance(1'000'000);
      return;
    }
    p.SleepUntil(10'000);  // after the death
    d.RemoveFromGroup(2);
    std::vector<float> one = {1.0f};
    ASSERT_TRUE(d.ScatterAdd(acc, one).ok());
    ASSERT_TRUE(d.Flush().ok());
    ASSERT_TRUE(d.Barrier().ok());
    std::vector<float> sum(1);
    EXPECT_EQ(d.DrainAccumulator(acc, sum), 1);  // only the live peer
    drained[static_cast<size_t>(rank)] = sum[0];
  });
  EXPECT_DOUBLE_EQ(drained[0], 1.0);
  EXPECT_DOUBLE_EQ(drained[1], 1.0);
}

}  // namespace
}  // namespace malt
