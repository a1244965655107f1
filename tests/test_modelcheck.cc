// Tests for the systematic interleaving checker (src/modelcheck/, DESIGN.md
// §11). Only built under -DMALT_MODELCHECK=ON — the scheduler needs the mc::
// shim active. Heavy exhaustive sweeps live in `malt_mc --selftest`
// (tool_malt_mc_selftest); these cover the explorer mechanics on the small
// configurations.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/mc.h"
#include "src/modelcheck/explore.h"
#include "src/modelcheck/harnesses.h"
#include "src/modelcheck/sched.h"

namespace malt {
namespace modelcheck {
namespace {

// Arms a planted mutation for the duration of one test scope.
class ScopedMutation {
 public:
  explicit ScopedMutation(mc::McMutation m) { mc::SetMutation(m); }
  ~ScopedMutation() { mc::SetMutation(mc::McMutation::kNone); }
};

TEST(ModelCheck, DfsExhaustsSeqlockCleanly) {
  const ExploreResult result = ExploreDfs(MakeHarness("seqlock_1w1r"), DfsOptions{});
  EXPECT_TRUE(result.complete) << "tiny config must be fully enumerable";
  EXPECT_FALSE(result.violation) << result.message;
  EXPECT_GT(result.executions, 100) << "suspiciously few interleavings explored";
  EXPECT_GT(result.pruned, 0) << "sleep sets never pruned anything";
}

TEST(ModelCheck, DfsExhaustsOverflowAndKillHarnesses) {
  for (const char* name : {"seqlock_overflow", "rankctx_kill"}) {
    const ExploreResult result = ExploreDfs(MakeHarness(name), DfsOptions{});
    EXPECT_TRUE(result.complete) << name;
    EXPECT_FALSE(result.violation) << name << ": " << result.message;
  }
}

TEST(ModelCheck, DfsFindsPlantedRelaxedPublish) {
  ScopedMutation arm(mc::McMutation::kSeqlockWriteEndRelaxed);
  const ExploreResult result = ExploreDfs(MakeHarness("seqlock_1w1r"), DfsOptions{});
  ASSERT_TRUE(result.violation) << "planted bug not detected";
  EXPECT_FALSE(result.witness.empty());
  EXPECT_NE(result.message.find("mixes generations"), std::string::npos) << result.message;
}

TEST(ModelCheck, ViolationWitnessReplaysDeterministically) {
  ScopedMutation arm(mc::McMutation::kShmemPublishFenceDropped);
  const HarnessFactory factory = MakeHarness("shmem_publish");
  const ExploreResult result = ExploreDfs(factory, DfsOptions{});
  ASSERT_TRUE(result.violation);
  for (int i = 0; i < 3; ++i) {  // same schedule, same verdict, every time
    const ReplayOutcome replay = RunReplay(factory, result.witness);
    EXPECT_TRUE(replay.violation) << "replay " << i << " did not reproduce";
    EXPECT_EQ(replay.message, result.message);
  }
}

TEST(ModelCheck, MutationCleanAfterDisarm) {
  {
    ScopedMutation arm(mc::McMutation::kSeqlockSkipParityBump);
    ASSERT_TRUE(ExploreDfs(MakeHarness("seqlock_1w1r"), DfsOptions{}).violation);
  }
  const ExploreResult clean = ExploreDfs(MakeHarness("seqlock_1w1r"), DfsOptions{});
  EXPECT_FALSE(clean.violation) << "mutation leaked across disarm: " << clean.message;
  EXPECT_TRUE(clean.complete);
}

TEST(ModelCheck, TraceFileRoundTrips) {
  ScopedMutation arm(mc::McMutation::kSeqlockWriteEndRelaxed);
  const ExploreResult result = ExploreDfs(MakeHarness("seqlock_1w1r"), DfsOptions{});
  ASSERT_TRUE(result.violation);
  const std::string path = testing::TempDir() + "/malt_mc_roundtrip.trace";
  ASSERT_TRUE(SaveTrace(path, result.witness));
  std::vector<SchedAction> loaded;
  ASSERT_TRUE(LoadTrace(path, &loaded));
  ASSERT_EQ(loaded.size(), result.witness.size());
  for (size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_TRUE(loaded[i] == result.witness[i]) << "action " << i << " differs";
  }
  EXPECT_TRUE(RunReplay(MakeHarness("seqlock_1w1r"), loaded).violation);
  std::remove(path.c_str());
}

TEST(ModelCheck, ReplayOfForeignScheduleReportsDivergence) {
  // A schedule recorded against a different harness shape (thread 7 does not
  // exist) must fail loudly, not silently free-run.
  const std::vector<SchedAction> bogus = {
      {SchedAction::Kind::kRunThread, 7, 0},
  };
  const ReplayOutcome outcome = RunReplay(MakeHarness("seqlock_1w1r"), bogus);
  EXPECT_TRUE(outcome.violation);
  EXPECT_EQ(outcome.sched.status, SchedResult::Status::kFailed);
  EXPECT_NE(outcome.message.find("diverged"), std::string::npos) << outcome.message;
}

TEST(ModelCheck, PctIsDeterministicPerSeed) {
  ScopedMutation arm(mc::McMutation::kShmemPublishFenceDropped);
  PctOptions options;
  options.executions = 200;
  options.seed0 = 7;
  options.expected_steps = 128;
  const ExploreResult a = ExplorePct(MakeHarness("shmem_publish"), options);
  const ExploreResult b = ExplorePct(MakeHarness("shmem_publish"), options);
  ASSERT_TRUE(a.violation);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.witness_seed, b.witness_seed);
  ASSERT_EQ(a.witness.size(), b.witness.size());
  for (size_t i = 0; i < a.witness.size(); ++i) {
    EXPECT_TRUE(a.witness[i] == b.witness[i]) << "action " << i << " differs";
  }
}

TEST(ModelCheck, PreemptionBoundShrinksTheSearch) {
  DfsOptions unbounded;
  DfsOptions bounded;
  bounded.max_preemptions = 1;
  const ExploreResult full = ExploreDfs(MakeHarness("seqlock_1w1r"), unbounded);
  const ExploreResult chess = ExploreDfs(MakeHarness("seqlock_1w1r"), bounded);
  EXPECT_TRUE(chess.complete);
  EXPECT_FALSE(chess.violation);
  EXPECT_LT(chess.executions, full.executions);
}

TEST(ModelCheck, HarnessRegistryIsConsistent) {
  EXPECT_FALSE(static_cast<bool>(MakeHarness("no_such_harness")));
  EXPECT_EQ(FindHarnessInfo("no_such_harness"), nullptr);
  for (const HarnessInfo& info : HarnessList()) {
    EXPECT_NE(FindHarnessInfo(info.name), nullptr);
    const HarnessFactory factory = MakeHarness(info.name);
    ASSERT_TRUE(static_cast<bool>(factory)) << info.name;
    auto harness = factory();
    ASSERT_NE(harness, nullptr) << info.name;
    EXPECT_EQ(static_cast<int>(harness->Threads().size()), info.threads) << info.name;
  }
}

}  // namespace
}  // namespace modelcheck
}  // namespace malt
