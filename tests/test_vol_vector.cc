// MaltVector tests: dense/sparse encode-decode, the gather UDFs, iteration
// stamps, and staleness queries.

#include "src/vol/malt_vector.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/comm/graph.h"
#include "tests/sim_cluster.h"

namespace malt {
namespace {

MaltVectorOptions DenseOpts(const std::string& name, size_t dim, int n) {
  MaltVectorOptions o;
  o.name = name;
  o.dim = dim;
  o.layout = Layout::kDense;
  o.graph = AllToAllGraph(n);
  return o;
}

TEST(MaltVector, DenseGatherAverage) {
  const int n = 4;
  SimCluster cluster(n);
  std::vector<float> results(n);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    MaltVector v(d, DenseOpts("w", 8, n));
    for (float& x : v.data()) {
      x = static_cast<float>(rank);  // rank r holds all-r
    }
    ASSERT_TRUE(v.Scatter().ok());
    ASSERT_TRUE(d.Flush().ok());
    ASSERT_TRUE(v.Barrier().ok());
    GatherResult r = v.GatherAverage();
    EXPECT_EQ(r.received, n - 1);
    results[static_cast<size_t>(rank)] = v.data()[0];
  });
  // Average of {0,1,2,3} = 1.5 for every rank.
  for (int rank = 0; rank < n; ++rank) {
    EXPECT_FLOAT_EQ(results[static_cast<size_t>(rank)], 1.5f);
  }
}

TEST(MaltVector, DenseGatherSum) {
  const int n = 3;
  SimCluster cluster(n);
  std::vector<float> results(n);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    MaltVector v(d, DenseOpts("g", 4, n));
    v.data()[2] = 1.0f;
    ASSERT_TRUE(v.Scatter().ok());
    ASSERT_TRUE(d.Flush().ok());
    ASSERT_TRUE(v.Barrier().ok());
    v.GatherSum();
    results[static_cast<size_t>(rank)] = v.data()[2];
  });
  for (int rank = 0; rank < n; ++rank) {
    EXPECT_FLOAT_EQ(results[static_cast<size_t>(rank)], 3.0f);  // own 1 + two peers
  }
}

TEST(MaltVector, SparseScatterOnlyShipsNonzeros) {
  const int n = 2;
  SimCluster cluster(n);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    MaltVectorOptions o;
    o.name = "sparse";
    o.dim = 1000;
    o.layout = Layout::kSparse;
    o.max_nnz = 16;
    o.graph = AllToAllGraph(n);
    MaltVector v(d, o);
    v.data()[7] = 2.0f;
    v.data()[900] = -1.0f;
    ASSERT_TRUE(v.Scatter().ok());
    ASSERT_TRUE(d.Flush().ok());
    ASSERT_TRUE(v.Barrier().ok());
    GatherResult r = v.GatherSum();
    EXPECT_EQ(r.received, 1);
    EXPECT_FLOAT_EQ(v.data()[7], 4.0f);
    EXPECT_FLOAT_EQ(v.data()[900], -2.0f);
    EXPECT_FLOAT_EQ(v.data()[8], 0.0f);
    (void)rank;
  });
  // Wire cost: 2 entries = 4 + 2*8 = 20 bytes per destination, not 4 KB.
  EXPECT_LE(cluster.fabric.stats().TxBytes(0), 200);  // payload + slot framing
}

TEST(MaltVector, SparseNnzOverflowRejected) {
  SimCluster cluster(2);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    MaltVectorOptions o;
    o.name = "tiny";
    o.dim = 100;
    o.layout = Layout::kSparse;
    o.max_nnz = 2;
    o.graph = AllToAllGraph(2);
    MaltVector v(d, o);
    if (rank == 0) {
      v.data()[0] = v.data()[1] = v.data()[2] = 1.0f;
      Status s = v.Scatter();
      EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
    }
  });
}

TEST(MaltVector, ScatterIndicesRejectsOutOfRangeIndex) {
  const int n = 2;
  SimCluster cluster(n);
  int received = -1;
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    MaltVectorOptions o;
    o.name = "idx";
    o.dim = 10;
    o.layout = Layout::kSparse;
    o.max_nnz = 4;
    o.graph = AllToAllGraph(n);
    MaltVector v(d, o);
    if (rank == 0) {
      v.data()[1] = 1.0f;
      const std::vector<uint32_t> indices = {1, 10};  // 10 == dim: one past the end
      EXPECT_EQ(v.ScatterIndices(indices).code(), StatusCode::kInvalidArgument);
      ASSERT_TRUE(d.Flush().ok());
    }
    ASSERT_TRUE(v.Barrier().ok());
    if (rank == 1) {
      received = v.GatherSum().received;
    }
  });
  EXPECT_EQ(received, 0);  // rejected before anything was encoded or sent
}

TEST(LargestMagnitudeIndices, KeepsAllNonzerosInIndexOrderUnderCapacity) {
  const std::vector<float> g = {0.0f, -3.0f, 0.0f, 1.0f, 2.0f};
  std::vector<uint32_t> out = {99};  // stale contents are cleared
  LargestMagnitudeIndices(g, 3, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 3, 4}));
}

TEST(LargestMagnitudeIndices, FiltersToTheLargestMagnitudes) {
  const std::vector<float> g = {0.5f, -3.0f, 0.0f, 1.0f, 2.0f, -0.25f};
  std::vector<uint32_t> out;
  LargestMagnitudeIndices(g, 2, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 4}));
}

TEST(MaltVector, GatherReplaceHogwild) {
  const int n = 2;
  SimCluster cluster(n);
  std::vector<float> got(n);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    MaltVectorOptions o;
    o.name = "h";
    o.dim = 10;
    o.layout = Layout::kSparse;
    o.graph = AllToAllGraph(n);
    MaltVector v(d, o);
    v.data()[rank] = static_cast<float>(10 + rank);
    ASSERT_TRUE(v.Scatter().ok());
    ASSERT_TRUE(d.Flush().ok());
    ASSERT_TRUE(v.Barrier().ok());
    v.GatherReplace();
    got[static_cast<size_t>(rank)] = v.data()[1 - rank];
  });
  EXPECT_FLOAT_EQ(got[0], 11.0f);  // rank 0 received rank 1's entry
  EXPECT_FLOAT_EQ(got[1], 10.0f);
}

TEST(MaltVector, SparseGatherAverageCountsEachCoordinate) {
  // Two senders overlap on coordinate 3 only: there k = 2, on 2 and 5 k = 1,
  // and coordinate 0 is untouched by peers and keeps its local value.
  const int n = 3;
  SimCluster cluster(n);
  std::vector<float> got;
  GatherResult result;
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    MaltVectorOptions o;
    o.name = "avg";
    o.dim = 8;
    o.layout = Layout::kSparse;
    o.graph = AllToAllGraph(n);
    MaltVector v(d, o);
    if (rank == 0) {
      v.data()[0] = 7.0f;
      v.data()[3] = 3.0f;
    } else if (rank == 1) {
      v.data()[2] = 2.0f;
      v.data()[3] = 4.0f;
    } else {
      v.data()[3] = 8.0f;
      v.data()[5] = 16.0f;
    }
    ASSERT_TRUE(v.Scatter().ok());
    ASSERT_TRUE(d.Flush().ok());
    ASSERT_TRUE(v.Barrier().ok());
    if (rank == 0) {
      result = v.GatherAverage();
      got.assign(v.data().begin(), v.data().end());
    }
  });
  EXPECT_EQ(result.received, 2);
  EXPECT_EQ(result.values_folded, 4);
  EXPECT_EQ(got, (std::vector<float>{7.0f, 0.0f, 1.0f, 5.0f, 0.0f, 8.0f, 0.0f, 0.0f}));
}

TEST(MaltVector, OneGatherFoldsEveryQueuedObjectFromOneSender) {
  // Two scatters from rank 1 sit in a depth-2 queue; one GatherSum folds
  // both, oldest first.
  const int n = 2;
  SimCluster cluster(n);
  std::vector<float> got;
  GatherResult result;
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    MaltVectorOptions o = DenseOpts("q", 4, n);
    o.queue_depth = 2;
    MaltVector v(d, o);
    if (rank == 1) {
      for (uint32_t iter = 1; iter <= 2; ++iter) {
        std::fill(v.data().begin(), v.data().end(), iter == 1 ? 1.0f : 10.0f);
        v.set_iteration(iter);
        ASSERT_TRUE(v.Scatter().ok());
      }
      ASSERT_TRUE(d.Flush().ok());
    }
    ASSERT_TRUE(v.Barrier().ok());
    if (rank == 0) {
      v.data()[0] = 100.0f;
      result = v.GatherSum();
      got.assign(v.data().begin(), v.data().end());
    }
  });
  EXPECT_EQ(result.received, 2);
  EXPECT_EQ(result.values_folded, 8);
  EXPECT_EQ(result.min_iter, 1);
  EXPECT_EQ(result.max_iter, 2);
  EXPECT_EQ(got, (std::vector<float>{111.0f, 11.0f, 11.0f, 11.0f}));
}

TEST(MaltVector, GatherCustomUdf) {
  const int n = 2;
  SimCluster cluster(n);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    MaltVector v(d, DenseOpts("c", 4, n));
    v.data()[0] = rank == 0 ? 5.0f : 7.0f;
    ASSERT_TRUE(v.Scatter().ok());
    ASSERT_TRUE(d.Flush().ok());
    ASSERT_TRUE(v.Barrier().ok());
    // Max-fold: keep elementwise maximum.
    v.GatherCustom([](std::span<float> local, const IncomingUpdate& u) {
      for (size_t i = 0; i < u.values.size(); ++i) {
        local[i] = std::max(local[i], u.values[i]);
      }
    });
    EXPECT_FLOAT_EQ(v.data()[0], 7.0f);
  });
}

TEST(MaltVector, IterationStampsFlow) {
  const int n = 2;
  SimCluster cluster(n);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    MaltVector v(d, DenseOpts("it", 2, n));
    v.set_iteration(static_cast<uint32_t>(100 + rank));
    ASSERT_TRUE(v.Scatter().ok());
    ASSERT_TRUE(d.Flush().ok());
    ASSERT_TRUE(v.Barrier().ok());
    GatherResult r = v.GatherAverage();
    EXPECT_EQ(r.max_iter, 100 + (1 - rank));
    EXPECT_EQ(v.MinPeerIteration(), 100 + (1 - rank));
  });
}

TEST(MaltVector, GatherAverageFreshSkipsStale) {
  const int n = 2;
  SimCluster cluster(n);
  std::vector<int> received(n);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    MaltVector v(d, DenseOpts("st", 2, n));
    v.set_iteration(rank == 0 ? 100 : 3);  // rank 1 is a straggler
    v.data()[0] = 1.0f;
    ASSERT_TRUE(v.Scatter().ok());
    ASSERT_TRUE(d.Flush().ok());
    ASSERT_TRUE(v.Barrier().ok());
    GatherResult r = v.GatherAverage(/*min_iter=*/50);
    received[static_cast<size_t>(rank)] = r.received;
  });
  EXPECT_EQ(received[0], 0);  // rank 0 skipped the straggler's update
  EXPECT_EQ(received[1], 1);  // rank 1 folded rank 0's fresh update
}

TEST(MaltVector, ScatterToSubsetOnly) {
  const int n = 3;
  SimCluster cluster(n);
  std::vector<int> received(n);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    MaltVector v(d, DenseOpts("sub", 2, n));
    v.data()[0] = 1.0f;
    if (rank == 0) {
      const std::vector<int> dsts = {2};
      ASSERT_TRUE(v.ScatterTo(dsts).ok());
      ASSERT_TRUE(d.Flush().ok());
    }
    ASSERT_TRUE(v.Barrier().ok());
    received[static_cast<size_t>(rank)] = v.GatherSum().received;
  });
  EXPECT_EQ(received[1], 0);
  EXPECT_EQ(received[2], 1);
}

TEST(MaltVector, FreshAvailablePredicate) {
  const int n = 2;
  SimCluster cluster(n);
  cluster.Run([&](int rank, Dstorm& d, Process& p) {
    MaltVector v(d, DenseOpts("f", 2, n));
    if (rank == 0) {
      EXPECT_FALSE(v.FreshAvailable());
      v.data()[0] = 1.0f;
      ASSERT_TRUE(v.Scatter().ok());
      p.SleepUntil(1'000'000);
    } else {
      p.WaitUntil([&] { return v.FreshAvailable(); });
      EXPECT_EQ(v.GatherSum().received, 1);
      EXPECT_FALSE(v.FreshAvailable());
    }
  });
}

}  // namespace
}  // namespace malt
