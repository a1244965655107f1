// Malt runtime on the shared-memory backend: the same worker body the
// simulator runs executes on real concurrent threads. Covers end-to-end
// vector scatter/gather/fold, sim-vs-shmem bit-equality for the SVM, NN and
// MF apps, and watchdog-delivered kills. Runs clean under TSan
// (tools/check.sh MALT_SANITIZE=thread stage).

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "src/apps/mf_app.h"
#include "src/apps/nn_app.h"
#include "src/apps/svm_app.h"
#include "src/core/runtime.h"
#include "src/ml/dataset.h"

namespace malt {
namespace {

MaltOptions ShmemOpts(int ranks) {
  MaltOptions options;
  options.transport = TransportKind::kShmem;
  options.ranks = ranks;
  return options;
}

TEST(ShmemRuntime, WorkersRunConcurrentlyAndFoldVectors) {
  const int n = 4;
  const size_t dim = 64;
  MaltOptions options = ShmemOpts(n);
  Malt malt(options);
  EXPECT_EQ(malt.transport().kind(), TransportKind::kShmem);

  std::vector<std::vector<float>> models(n);
  malt.Run([&](Worker& w) {
    MaltVector v = w.CreateVector("model", dim);
    for (float& x : v.data()) {
      x = static_cast<float>(w.rank() + 1);
    }
    for (int round = 0; round < 5; ++round) {
      ASSERT_TRUE(v.Scatter().ok());
      ASSERT_TRUE(w.Barrier().ok());
      v.GatherAverage();
      ASSERT_TRUE(w.Barrier().ok());
    }
    models[static_cast<size_t>(w.rank())] = {v.data().begin(), v.data().end()};
  });

  EXPECT_EQ(malt.survivors(), n);
  // One BSP averaging round maps every replica to the global mean
  // (local + sum(peers)) / n = (1+2+...+n)/n, and further rounds keep it
  // there — so all replicas must agree on exactly that value.
  const float mean = static_cast<float>(n + 1) / 2.0f;  // (1+..+n)/n
  for (int rank = 0; rank < n; ++rank) {
    ASSERT_EQ(models[static_cast<size_t>(rank)].size(), dim);
    for (size_t i = 0; i < dim; ++i) {
      EXPECT_FLOAT_EQ(models[static_cast<size_t>(rank)][i], mean)
          << "rank " << rank << " element " << i;
    }
  }
}

// The checker is transport-agnostic: under shmem it stays at the requested
// level, switched to its concurrent (lock-striped) ledger.
TEST(ShmemRuntime, CheckerRunsConcurrentUnderShmem) {
  MaltOptions options = ShmemOpts(2);
  options.check = CheckLevel::kCheap;
  Malt malt(options);
  EXPECT_TRUE(malt.checker().enabled());
  EXPECT_TRUE(malt.checker().concurrent());
  malt.Run([](Worker&) {});
  EXPECT_EQ(malt.checker().violation_count(), 0);
}

// The acceptance bar from the transport redesign: the SVM app converges to
// the same model on both backends. Under BSP a round's gather folds exactly
// that round's objects in sender order, so the loss is bit-equal.
TEST(ShmemRuntime, SvmFinalLossEqualsSim) {
  ClassificationConfig dc = DnaLike();
  const SparseDataset data = MakeClassification(dc);
  SvmAppConfig config;
  config.data = &data;
  config.epochs = 3;
  config.cb_size = 5000;

  auto run = [&](TransportKind kind) {
    MaltOptions options;
    options.ranks = 4;
    options.transport = kind;
    Malt malt(options);
    return RunDistributedSvm(malt, config);
  };
  const SvmRunResult sim = run(TransportKind::kSim);
  const SvmRunResult shm = run(TransportKind::kShmem);

  EXPECT_GT(sim.final_accuracy, 0.75);
  EXPECT_GT(shm.final_accuracy, 0.75);
  EXPECT_EQ(shm.final_accuracy, sim.final_accuracy);
  EXPECT_EQ(shm.final_loss, sim.final_loss);
}

// BSP with whole-model rounds (cb 500 reaches several per epoch). A rank that
// leaves the barrier late finds a faster peer's next-round object already
// queued; on a model round that object is a whole model, and folding it into
// this round's delta sum would wreck the model. The bounded gather leaves it
// for the next round, so shmem stays bit-equal to the simulator.
TEST(ShmemRuntime, SvmBspModelRoundsBitEqualToSim) {
  const SparseDataset data = MakeClassification(DnaLike());
  SvmAppConfig config;
  config.data = &data;
  config.epochs = 2;
  config.cb_size = 500;
  ASSERT_GT(config.model_sync_every, 0);

  for (const int ranks : {2, 4}) {
    auto run = [&](TransportKind kind) {
      MaltOptions options;
      options.ranks = ranks;
      options.transport = kind;
      Malt malt(options);
      return RunDistributedSvm(malt, config);
    };
    const SvmRunResult sim = run(TransportKind::kSim);
    const SvmRunResult shm = run(TransportKind::kShmem);
    EXPECT_EQ(shm.final_loss, sim.final_loss) << ranks << " ranks";
    EXPECT_EQ(shm.final_accuracy, sim.final_accuracy) << ranks << " ranks";
  }
}

// The NN app at 4 ranks under BSP, with malt_run's data and network: 6000
// examples per rank and cb 5000 make two rounds an epoch, so 4 epochs reach
// the first whole-model round (round 8). Every layer's gather is bounded to
// the round, so shmem must give the simulator's AUC and log loss exactly.
TEST(ShmemRuntime, NnBspBitEqualToSim) {
  ClassificationConfig dc = KddLike();
  dc.train_n = 24000;
  const SparseDataset data = MakeClassification(dc);
  NnAppConfig config;
  config.data = &data;
  config.epochs = 4;
  config.cb_size = 5000;
  config.mlp.hidden1 = 32;
  config.mlp.hidden2 = 16;
  ASSERT_GT(config.model_sync_every, 0);
  ASSERT_LE(config.model_sync_every, 2 * config.epochs);

  auto run = [&](TransportKind kind) {
    MaltOptions options;
    options.ranks = 4;
    options.transport = kind;
    Malt malt(options);
    return RunDistributedNn(malt, config);
  };
  const NnRunResult sim = run(TransportKind::kSim);
  const NnRunResult shm = run(TransportKind::kShmem);
  EXPECT_EQ(shm.final_auc, sim.final_auc);
  EXPECT_EQ(shm.final_logloss, sim.final_logloss);
}

// MF's own BSP round (not ModelSync): scatter the touched factor rows,
// barrier, replace-gather. A rank that leaves the barrier late can find a
// faster peer's next-round rows already queued; the gather is bounded to the
// round, so shmem must give the simulator's final RMSE exactly.
TEST(ShmemRuntime, MfBspBitEqualToSim) {
  const RatingsDataset data = MakeRatings(RatingsConfig{});
  MfAppConfig config;
  config.data = &data;
  config.epochs = 3;
  ASSERT_EQ(MaltOptions{}.sync, SyncMode::kBSP);

  for (const int ranks : {2, 4}) {
    auto run = [&](TransportKind kind) {
      MaltOptions options;
      options.ranks = ranks;
      options.transport = kind;
      Malt malt(options);
      return RunDistributedMf(malt, config);
    };
    const MfRunResult sim = run(TransportKind::kSim);
    const MfRunResult shm = run(TransportKind::kShmem);
    EXPECT_EQ(shm.final_rmse, sim.final_rmse) << ranks << " ranks";
  }
}

TEST(ShmemRuntime, ScheduledKillRemovesRankAndSurvivorsFinish) {
  const int n = 3;
  const int victim = 2;
  MaltOptions options = ShmemOpts(n);
  options.barrier_timeout = FromSeconds(0.05);  // fast health-check turnaround
  Malt malt(options);
  malt.ScheduleKill(victim, 0.02);

  std::vector<int> rounds_done(n, 0);
  malt.Run([&](Worker& w) {
    MaltVector v = w.CreateVector("model", 16);
    // Pace the loop in real time so the kill (wall-clock 0.02s in) lands
    // mid-training; ChargeSeconds is the cancellation point that observes it.
    for (int round = 0; round < 200; ++round) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      w.ChargeSeconds(0.0005);
      ASSERT_TRUE(v.Scatter().ok());
      ASSERT_TRUE(w.Barrier().ok());
      v.GatherAverage();
      rounds_done[static_cast<size_t>(w.rank())] = round + 1;
    }
  });

  EXPECT_FALSE(malt.rank_survived(victim));
  EXPECT_TRUE(malt.rank_survived(0));
  EXPECT_TRUE(malt.rank_survived(1));
  EXPECT_EQ(malt.survivors(), n - 1);
  EXPECT_EQ(rounds_done[0], 200);
  EXPECT_EQ(rounds_done[1], 200);
  EXPECT_LT(rounds_done[victim], 200);
}

}  // namespace
}  // namespace malt
