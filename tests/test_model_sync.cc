// ModelSync round tests on the simulator: the delta-sum fold, the periodic
// whole-model average, Finish() in a delta mixing, the SSP gate of a replace
// round, and the phase accounting the round gives every app that uses it.

#include "src/core/model_sync.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/apps/mf_app.h"
#include "src/apps/nn_app.h"
#include "src/ml/dataset.h"

namespace malt {
namespace {

MaltOptions SmallCluster(int ranks, SyncMode sync) {
  MaltOptions options;
  options.ranks = ranks;
  options.sync = sync;
  options.fabric.net.latency = 1000;
  options.fabric.net.bandwidth_bytes_per_sec = 1e9;
  options.fabric.net.per_message_overhead = 0;
  options.barrier_timeout = FromSeconds(0.01);
  return options;
}

constexpr size_t kDim = 4;

// Integer-valued floats throughout, so every sum and the 1/4 average are
// exact and the checks can compare with ==.
float Start(size_t i) { return static_cast<float>(10 * i); }
float Delta(int rank, size_t i) { return static_cast<float>((rank + 1) * (i + 1)); }

TEST(ModelSync, DeltaSumRoundLeavesEveryReplicaAtSnapshotPlusAllDeltas) {
  constexpr int kRanks = 3;
  Malt malt(SmallCluster(kRanks, SyncMode::kBSP));
  std::vector<std::vector<float>> after(kRanks);
  malt.Run([&](Worker& w) {
    MaltVector v = w.CreateVector("m", kDim);
    for (size_t i = 0; i < kDim; ++i) {
      v.data()[i] = Start(i);
    }
    ModelSync sync(w, {&v}, ModelSync::Mixing::kDeltaSum);
    for (size_t i = 0; i < kDim; ++i) {
      v.data()[i] += Delta(w.rank(), i);  // this replica's "training"
    }
    sync.Round();
    after[static_cast<size_t>(w.rank())].assign(v.data().begin(), v.data().end());
  });
  for (int rank = 0; rank < kRanks; ++rank) {
    for (size_t i = 0; i < kDim; ++i) {
      float expect = Start(i);
      for (int r = 0; r < kRanks; ++r) {
        expect += Delta(r, i);
      }
      EXPECT_EQ(after[static_cast<size_t>(rank)][i], expect) << "rank " << rank << " i " << i;
    }
  }
}

TEST(ModelSync, EveryKthRoundAveragesWholeModels) {
  constexpr int kRanks = 4;
  Malt malt(SmallCluster(kRanks, SyncMode::kBSP));
  std::vector<std::vector<float>> after_model_round(kRanks);
  std::vector<std::vector<float>> after_idle_round(kRanks);
  malt.Run([&](Worker& w) {
    MaltVector v = w.CreateVector("m", kDim);
    // Replicas start apart; round 1 (a delta round) keeps them apart.
    for (size_t i = 0; i < kDim; ++i) {
      v.data()[i] = Start(i) + Delta(w.rank(), i);
    }
    ModelSync sync(w, {&v}, ModelSync::Mixing::kDeltaSum, /*model_sync_every=*/2);
    sync.Round();
    sync.Round();  // round 2: whole-model average
    after_model_round[static_cast<size_t>(w.rank())].assign(v.data().begin(), v.data().end());
    sync.Round();  // round 3: no training, so a zero delta everywhere
    after_idle_round[static_cast<size_t>(w.rank())].assign(v.data().begin(), v.data().end());
  });
  for (int rank = 0; rank < kRanks; ++rank) {
    for (size_t i = 0; i < kDim; ++i) {
      float sum = 0;
      for (int r = 0; r < kRanks; ++r) {
        sum += Start(i) + Delta(r, i);
      }
      const float mean = sum / kRanks;
      EXPECT_EQ(after_model_round[static_cast<size_t>(rank)][i], mean)
          << "rank " << rank << " i " << i;
      // The model round also moved the agreement point to the average.
      EXPECT_EQ(after_idle_round[static_cast<size_t>(rank)][i], mean)
          << "rank " << rank << " i " << i;
    }
  }
}

TEST(ModelSync, SparseDeltaShipsOnlyTheLargestEntries) {
  std::vector<std::vector<float>> after(2);
  Malt malt(SmallCluster(2, SyncMode::kBSP));
  malt.Run([&](Worker& w) {
    MaltVector v = w.CreateVector("s", kDim, Layout::kSparse, /*max_nnz=*/2);
    ModelSync sync(w, {&v}, ModelSync::Mixing::kDeltaSum, /*model_sync_every=*/1);
    for (size_t i = 0; i < kDim; ++i) {
      v.data()[i] = Delta(w.rank(), i);  // |delta| grows with i
    }
    sync.Round();  // never a model round: a sparse wire cannot carry one
    after[static_cast<size_t>(w.rank())].assign(v.data().begin(), v.data().end());
  });
  for (int rank = 0; rank < 2; ++rank) {
    const int peer = 1 - rank;
    for (size_t i = 0; i < kDim; ++i) {
      // Own delta in full; the peer's only at its two largest entries.
      const float expect = Delta(rank, i) + (i >= kDim - 2 ? Delta(peer, i) : 0.0f);
      EXPECT_EQ(after[static_cast<size_t>(rank)][i], expect) << "rank " << rank << " i " << i;
    }
  }
}

TEST(ModelSync, FinishInDeltaMixingDoesNotFoldAQueuedPeerDelta) {
  Malt malt(SmallCluster(2, SyncMode::kASP));
  std::vector<float> before;
  std::vector<float> after;
  malt.Run([&](Worker& w) {
    MaltVector v = w.CreateVector("m", kDim);
    ModelSync sync(w, {&v}, ModelSync::Mixing::kDeltaSum);
    if (w.rank() == 1) {
      for (size_t i = 0; i < kDim; ++i) {
        v.data()[i] += Delta(1, i);
      }
      sync.Round();  // rank 0 never gathers this delta in a round
      sync.Finish();
      return;
    }
    w.ctx().Wait([&v] { return v.FreshAvailable(); });  // rank 1's delta is queued
    before.assign(v.data().begin(), v.data().end());
    sync.Finish();
    after.assign(v.data().begin(), v.data().end());
  });
  ASSERT_EQ(before.size(), kDim);
  EXPECT_EQ(after, before);
}

TEST(ModelSync, ReplaceRoundHonoursSspBound) {
  MaltOptions options = SmallCluster(2, SyncMode::kSSP);
  options.staleness = 2;
  options.barrier_timeout = FromSeconds(0.1);
  Malt malt(options);
  std::vector<std::vector<int64_t>> gaps(2);
  malt.Run([&](Worker& w) {
    MaltVector v = w.CreateVector("f", kDim, Layout::kSparse);
    ModelSync sync(w, {&v}, ModelSync::Mixing::kReplace);
    const std::vector<uint32_t> ship = {static_cast<uint32_t>(w.rank())};
    // Rank 0 computes 10x faster than rank 1.
    const double step_cost = w.rank() == 0 ? 0.0001 : 0.001;
    for (int iter = 1; iter <= 20; ++iter) {
      w.ChargeSeconds(step_cost);
      v.data()[ship[0]] = static_cast<float>(iter);
      sync.Round(ship);
      const int64_t peer = v.MinPeerIteration();
      if (peer >= 0) {
        gaps[static_cast<size_t>(w.rank())].push_back(static_cast<int64_t>(v.iteration()) - peer);
      }
    }
  });
  // Unbounded, the fast rank would finish its 20 rounds while the slow rank
  // is at round 2. With the gate it is never more than `staleness` + 1 rounds
  // ahead of what it has seen (+1: the gap is measured after the round's
  // stamp bump).
  ASSERT_FALSE(gaps[0].empty());
  for (int64_t gap : gaps[0]) {
    EXPECT_LE(gap, 3);
  }
  EXPECT_GT(malt.telemetry().rank(0).metrics.CounterValue("worker.ssp_wait_ns"), 0);
}

TEST(ModelSync, NnRunReportsRoundPhases) {
  ClassificationConfig dc = KddLike();
  dc.dim = 500;
  dc.train_n = 1000;
  dc.test_n = 200;
  const SparseDataset data = MakeClassification(dc);
  NnAppConfig config;
  config.data = &data;
  config.epochs = 1;
  config.cb_size = 100;
  config.mlp.hidden1 = 8;
  config.mlp.hidden2 = 4;
  config.evals_per_epoch = 1;
  Malt nn(SmallCluster(2, SyncMode::kBSP));
  (void)RunDistributedNn(nn, config);

  // MF's replace round is a ModelSync round too.
  RatingsConfig rc;
  rc.users = 200;
  rc.items = 100;
  rc.train_n = 2000;
  rc.test_n = 200;
  const RatingsDataset ratings = MakeRatings(rc);
  MfAppConfig mf_config;
  mf_config.data = &ratings;
  mf_config.epochs = 1;
  mf_config.cb_size = 100;
  mf_config.evals_per_epoch = 1;
  Malt mf(SmallCluster(2, SyncMode::kBSP));
  (void)RunDistributedMf(mf, mf_config);

  for (const Malt* malt : {&nn, &mf}) {
    const char* app = malt == &nn ? "nn" : "mf";
    for (int rank = 0; rank < 2; ++rank) {
      const MetricRegistry& metrics = malt->telemetry().rank(rank).metrics;
      EXPECT_GT(metrics.CounterValue("worker.scatter_ns"), 0) << app << " rank " << rank;
      EXPECT_GT(metrics.CounterValue("worker.gather_ns"), 0) << app << " rank " << rank;
      EXPECT_GT(metrics.CounterValue("worker.barrier_ns"), 0) << app << " rank " << rank;
    }
  }
}

}  // namespace
}  // namespace malt
