// malt_mc: driver for the systematic interleaving checker (DESIGN.md §11).
//
// Only built under -DMALT_MODELCHECK=ON, where the mc:: shim in src/base/mc.h
// routes every annotated atomic in src/base/ and src/shmem/ through the
// deterministic scheduler in src/modelcheck/.
//
//   malt_mc --list                                       # available harnesses
//   malt_mc --harness=seqlock_1w2r --mode=dfs            # exhaustive
//   malt_mc --harness=dstorm_slot_ledger --mode=pct --seed=1 --executions=500
//   malt_mc --harness=seqlock_1w1r --mutation=seqlock_write_end_relaxed
//   malt_mc --harness=seqlock_1w1r --mutation=seqlock_write_end_relaxed
//           --mc_replay=/tmp/malt_mc_seqlock_1w1r.trace  # replay a schedule
//   malt_mc --selftest                                   # full mutation matrix
//
// A violating exploration saves its schedule to --trace_out (default
// /tmp/malt_mc_<harness>.trace) and exits 1; --expect_violation inverts the
// exit code for mutation runs in CI. Every violation is replay-verified
// before it is reported: the dumped schedule is re-executed and must
// reproduce the failure deterministically.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/base/flags.h"
#include "src/base/mc.h"
#include "src/modelcheck/explore.h"
#include "src/modelcheck/harnesses.h"

namespace {

using malt::mc::McMutation;
using malt::modelcheck::DfsOptions;
using malt::modelcheck::ExploreDfs;
using malt::modelcheck::ExplorePct;
using malt::modelcheck::ExploreResult;
using malt::modelcheck::FindHarnessInfo;
using malt::modelcheck::HarnessFactory;
using malt::modelcheck::HarnessInfo;
using malt::modelcheck::HarnessList;
using malt::modelcheck::LoadTrace;
using malt::modelcheck::MakeHarness;
using malt::modelcheck::PctOptions;
using malt::modelcheck::ReplayOutcome;
using malt::modelcheck::RunReplay;
using malt::modelcheck::SaveTrace;
using malt::modelcheck::SchedAction;

struct MutationName {
  const char* name;
  McMutation mutation;
};

constexpr MutationName kMutations[] = {
    {"none", McMutation::kNone},
    {"seqlock_write_end_relaxed", McMutation::kSeqlockWriteEndRelaxed},
    {"seqlock_skip_parity_bump", McMutation::kSeqlockSkipParityBump},
    {"shmem_publish_fence_dropped", McMutation::kShmemPublishFenceDropped},
};

bool ParseMutation(const std::string& s, McMutation* out) {
  for (const MutationName& m : kMutations) {
    if (s == m.name) {
      *out = m.mutation;
      return true;
    }
  }
  return false;
}

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void PrintList() {
  std::printf("%-20s %-7s %-6s %s\n", "harness", "threads", "mode", "description");
  for (const HarnessInfo& h : HarnessList()) {
    std::printf("%-20s %-7d %-6s %s\n", h.name, h.threads, h.dfs_feasible ? "dfs" : "pct",
                h.description);
  }
  std::printf("\nmutations:");
  for (const MutationName& m : kMutations) {
    std::printf(" %s", m.name);
  }
  std::printf("\n");
}

// Re-executes the witness schedule and checks that the failure reproduces.
// Every violation report goes through this, so a dumped trace is replayable
// by construction.
bool VerifyReplay(const HarnessFactory& factory, const std::vector<SchedAction>& witness,
                  int64_t max_steps) {
  const ReplayOutcome replay = RunReplay(factory, witness, max_steps);
  if (!replay.violation) {
    std::printf("REPLAY MISMATCH: the dumped schedule did not reproduce the violation\n");
    return false;
  }
  std::printf("replay: reproduced (%s)\n", replay.message.c_str());
  return true;
}

// Runs one harness/mutation/mode combination and reports. Returns true if a
// violation was found (and its trace replays).
bool Explore(const std::string& harness, McMutation mutation, const std::string& mode,
             const DfsOptions& dfs, const PctOptions& pct, const std::string& trace_out) {
  const HarnessFactory factory = MakeHarness(harness);
  malt::mc::SetMutation(mutation);
  const auto t0 = std::chrono::steady_clock::now();
  ExploreResult result;
  if (mode == "dfs") {
    result = ExploreDfs(factory, dfs);
  } else {
    result = ExplorePct(factory, pct);
  }
  malt::mc::SetMutation(McMutation::kNone);
  std::printf("%s %s: %lld executions, %lld pruned subtrees, %.2fs%s\n", mode.c_str(),
              harness.c_str(), static_cast<long long>(result.executions),
              static_cast<long long>(result.pruned), Seconds(t0),
              result.complete ? (mode == "dfs" ? ", exhaustive" : ", sweep complete")
                              : ", budget exhausted");
  if (!result.violation) {
    std::printf("no violation found\n");
    return false;
  }
  std::printf("VIOLATION: %s\n", result.message.c_str());
  malt::mc::SetMutation(mutation);
  const bool replays = VerifyReplay(factory, result.witness, dfs.max_steps);
  malt::mc::SetMutation(McMutation::kNone);
  if (!trace_out.empty()) {
    if (SaveTrace(trace_out, result.witness)) {
      std::printf("schedule trace saved to %s (replay with --mc_replay=%s)\n",
                  trace_out.c_str(), trace_out.c_str());
    } else {
      std::printf("WARNING: could not write trace to %s\n", trace_out.c_str());
    }
  }
  return replays;
}

// The mutation matrix: every planted bug must be caught by its harness under
// exhaustive DFS, the dumped schedule must replay, and the same harness must
// be clean with the mutation disarmed. Clean DFS sweeps over the remaining
// harnesses (and a pinned-seed PCT sweep over the ledger harness) guard
// against false positives.
int SelfTest() {
  struct Case {
    const char* mutation;
    const char* harness;
  };
  constexpr Case kCases[] = {
      {"seqlock_write_end_relaxed", "seqlock_1w1r"},
      {"seqlock_skip_parity_bump", "seqlock_1w1r"},
      {"shmem_publish_fence_dropped", "shmem_publish"},
  };
  int failures = 0;

  for (const HarnessInfo& h : HarnessList()) {
    const HarnessFactory factory = MakeHarness(h.name);
    const auto t0 = std::chrono::steady_clock::now();
    ExploreResult result;
    if (h.dfs_feasible) {
      result = ExploreDfs(factory, DfsOptions{});
    } else {
      PctOptions pct;
      pct.executions = 200;
      pct.expected_steps = h.expected_steps;
      result = ExplorePct(factory, pct);
    }
    const bool ok = !result.violation && result.complete;
    std::printf("[%s] clean %-20s %-4s %8lld executions %.2fs%s\n", ok ? "ok" : "FAIL",
                h.name, h.dfs_feasible ? "dfs" : "pct",
                static_cast<long long>(result.executions), Seconds(t0),
                result.violation ? (" — " + result.message).c_str() : "");
    failures += ok ? 0 : 1;
  }

  for (const Case& c : kCases) {
    McMutation mutation = McMutation::kNone;
    ParseMutation(c.mutation, &mutation);
    const HarnessFactory factory = MakeHarness(c.harness);

    malt::mc::SetMutation(mutation);
    const ExploreResult result = ExploreDfs(factory, DfsOptions{});
    bool ok = result.violation;
    bool replayed = false;
    if (ok) {
      const std::string path = std::string("/tmp/malt_mc_selftest_") + c.mutation + ".trace";
      std::vector<SchedAction> loaded;
      replayed = SaveTrace(path, result.witness) && LoadTrace(path, &loaded) &&
                 RunReplay(factory, loaded).violation;
      ok = replayed;
    }
    malt::mc::SetMutation(McMutation::kNone);
    std::printf("[%s] mutation %-28s caught by %-14s in %lld executions%s\n",
                ok ? "ok" : "FAIL", c.mutation, c.harness,
                static_cast<long long>(result.executions),
                !result.violation   ? " — NOT DETECTED"
                : !replayed         ? " — trace did not replay"
                                    : ", trace replays");
    failures += ok ? 0 : 1;
  }

  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  malt::Flags flags;
  flags.Parse(argc, argv);
  const bool list = flags.GetBool("list", false, "list harnesses and mutations");
  const bool selftest = flags.GetBool("selftest", false, "run the mutation self-test matrix");
  const std::string harness =
      flags.GetString("harness", "", "harness to explore (see --list)");
  const std::string mode = flags.GetString("mode", "", "dfs | pct (default: per-harness)");
  const std::string mutation_name =
      flags.GetString("mutation", "none", "planted bug to arm (see --list)");
  const std::string replay_path =
      flags.GetString("mc_replay", "", "replay this schedule trace instead of exploring");
  std::string trace_out = flags.GetString(
      "trace_out", "", "violating schedule destination (default /tmp/malt_mc_<harness>.trace)");
  const bool expect_violation = flags.GetBool(
      "expect_violation", false, "exit 0 iff a violation is found (mutation runs in CI)");
  const int64_t executions =
      flags.GetInt("executions", 0, "execution budget (0 = per-mode default)");
  const int64_t seed = flags.GetInt("seed", 1, "pct: first seed of the sweep");
  const int64_t depth = flags.GetInt("depth", 3, "pct: bug depth d (d-1 change points)");
  const int64_t max_preemptions =
      flags.GetInt("max_preemptions", -1, "dfs: CHESS preemption bound (<0 = unbounded)");
  const int64_t max_steps = flags.GetInt("max_steps", 200000, "divergence bound per execution");
  flags.Finish();

  if (list) {
    PrintList();
    return 0;
  }
  if (selftest) {
    return SelfTest();
  }
  if (harness.empty()) {
    std::fprintf(stderr, "error: --harness is required (or --list / --selftest)\n");
    return 2;
  }
  const HarnessInfo* info = FindHarnessInfo(harness);
  if (info == nullptr) {
    std::fprintf(stderr, "error: unknown harness '%s' (see --list)\n", harness.c_str());
    return 2;
  }
  McMutation mutation = McMutation::kNone;
  if (!ParseMutation(mutation_name, &mutation)) {
    std::fprintf(stderr, "error: unknown mutation '%s' (see --list)\n", mutation_name.c_str());
    return 2;
  }

  if (!replay_path.empty()) {
    std::vector<SchedAction> trace;
    if (!LoadTrace(replay_path, &trace)) {
      std::fprintf(stderr, "error: cannot load trace '%s'\n", replay_path.c_str());
      return 2;
    }
    malt::mc::SetMutation(mutation);
    const ReplayOutcome outcome = RunReplay(MakeHarness(harness), trace, max_steps);
    malt::mc::SetMutation(McMutation::kNone);
    std::printf("replay of %s (%zu actions): %s\n", replay_path.c_str(), trace.size(),
                outcome.violation ? ("VIOLATION: " + outcome.message).c_str() : "no violation");
    const bool found = outcome.violation;
    return expect_violation ? (found ? 0 : 1) : (found ? 1 : 0);
  }

  const std::string chosen_mode =
      !mode.empty() ? mode : (info->dfs_feasible ? "dfs" : "pct");
  if (chosen_mode != "dfs" && chosen_mode != "pct") {
    std::fprintf(stderr, "error: --mode must be dfs or pct\n");
    return 2;
  }
  DfsOptions dfs;
  dfs.max_preemptions = static_cast<int>(max_preemptions);
  dfs.max_steps = max_steps;
  if (executions > 0) {
    dfs.max_executions = executions;
  }
  PctOptions pct;
  pct.seed0 = static_cast<uint64_t>(seed);
  pct.depth = static_cast<int>(depth);
  pct.expected_steps = info->expected_steps;
  pct.max_steps = max_steps;
  if (executions > 0) {
    pct.executions = executions;
  }
  if (trace_out.empty()) {
    trace_out = "/tmp/malt_mc_" + harness + ".trace";
  }

  const bool found = Explore(harness, mutation, chosen_mode, dfs, pct, trace_out);
  return expect_violation ? (found ? 0 : 1) : (found ? 1 : 0);
}
