#include "src/modelcheck/sched.h"

#include <algorithm>
#include <deque>
#include <semaphore>
#include <thread>
#include <utility>

#include "src/base/log.h"
#include "src/base/mutex.h"

namespace malt {
namespace modelcheck {

namespace {

// Thrown through a parked thread to unwind it when the execution is
// abandoned (failure, deadlock, divergence). Harness bodies and the
// primitives under test never catch(...) mid-protocol, so the unwind is
// clean; the thread wrapper catches it.
struct AbortExecution {};

constexpr size_t kMaxStoreBytes = mc::kMaxPlainBytes;

struct PendingStore {
  void* var = nullptr;
  mc::SchedulerClient::CommitFn commit = nullptr;
  size_t len = 0;
  unsigned char bytes[kMaxStoreBytes];
};

struct ThreadState {
  explicit ThreadState(int tid_arg) : tid(tid_arg) {}

  const int tid;
  std::binary_semaphore go{0};
  std::binary_semaphore ready{0};
  std::thread th;

  // Handshake-serialized state: written by the owning thread while it runs,
  // read by the scheduler while the thread is parked (the semaphore pair
  // orders every access).
  OpClass next_cls = OpClass::kInvisible;  // class of the step run next
  bool blocked = false;                    // parked in SpinYield
  uint64_t blocked_epoch = 0;
  uint64_t self_commits = 0;  // commits of this thread's own stores
  uint64_t pass_epoch = 0;    // others-epoch when the current retry pass began
  bool done = false;
  std::deque<PendingStore> buffer;  // FIFO store buffer
};

struct Exec {
  std::deque<ThreadState> threads;
  uint64_t commit_epoch = 0;

  Mutex fail_mu;
  bool abort = false;  // set once under fail_mu before waking parked threads
  bool failed = false;
  std::string failure;

  void RecordFailure(const std::string& message) {
    MutexLock lock(fail_mu);
    if (!failed) {
      failed = true;
      failure = message;
    }
    abort = true;
  }

  bool Aborted() {
    MutexLock lock(fail_mu);
    return abort;
  }
};

// Per-thread shim endpoint. Lives on the harness thread's stack for the
// duration of its body; all methods run on that thread.
class Client : public mc::SchedulerClient {
 public:
  Client(Exec* exec, ThreadState* st) : exec_(exec), st_(st) {}

  void SyncPoint(const void* var, Op op) override {
    (void)var;
    Park(op == Op::kCommitStore || op == Op::kRmw ? OpClass::kCommit : OpClass::kInvisible);
  }

  void BufferStore(void* var, const void* bytes, size_t len, CommitFn commit) override {
    MALT_CHECK(len <= kMaxStoreBytes) << "buffered store too large for the model";
    PendingStore ps;
    ps.var = var;
    ps.commit = commit;
    ps.len = len;
    std::memcpy(ps.bytes, bytes, len);
    st_->buffer.push_back(ps);
  }

  bool TryForward(const void* var, void* out, size_t len) override {
    for (auto it = st_->buffer.rbegin(); it != st_->buffer.rend(); ++it) {
      if (it->var == var) {
        MALT_CHECK(it->len == len) << "forwarded store size mismatch";
        std::memcpy(out, it->bytes, len);
        return true;
      }
    }
    return false;
  }

  void DrainReleasePreemptible() override {
    // The sync point that precedes this drain already scheduled the first
    // commit; each further commit is its own schedulable step, so other
    // threads can observe the buffer partially published.
    while (!st_->buffer.empty()) {
      PendingStore ps = st_->buffer.front();
      st_->buffer.pop_front();
      ps.commit(ps.var, ps.bytes, ps.len);
      exec_->commit_epoch++;
      st_->self_commits++;
      if (!st_->buffer.empty()) {
        Park(OpClass::kCommit);
      }
    }
  }

  void FlushVar(const void* var) override {
    // Same-variable coherence for relaxed RMWs: this thread's pending stores
    // on `var` commit, in program order, as part of the RMW's step.
    for (auto it = st_->buffer.begin(); it != st_->buffer.end();) {
      if (it->var == var) {
        it->commit(it->var, it->bytes, it->len);
        exec_->commit_epoch++;
        st_->self_commits++;
        it = st_->buffer.erase(it);
      } else {
        ++it;
      }
    }
  }

  void NoteCommit() override {
    exec_->commit_epoch++;
    st_->self_commits++;
  }

  void SpinYield() override {
    // Block only if nothing committed since the previous SpinYield: the spin
    // loop's whole retry pass then observed up-to-date state and retrying
    // cannot change anything until some thread commits. If a commit landed
    // MID-pass (between two of the pass's own sync points — e.g. a seqlock
    // validation failing against a begin sequence loaded several parks ago),
    // some of the pass's loads are stale and one more pass must run, or a
    // reader whose writer already finished would block forever. The stale
    // retry continues inline without parking — the yield itself observes
    // nothing, so it is not a scheduling point; the retry's own loads are.
    // Only OTHER threads' commits count as progress: this thread's own
    // stores are forwarded to its loads, so self-commits (including its
    // own failed RMWs) cannot invalidate the pass.
    const uint64_t others = exec_->commit_epoch - st_->self_commits;
    if (others != st_->pass_epoch) {
      st_->pass_epoch = others;
      return;
    }
    st_->blocked = true;
    st_->blocked_epoch = exec_->commit_epoch;
    Park(OpClass::kInvisible);
    st_->pass_epoch = exec_->commit_epoch - st_->self_commits;
  }

 private:
  void Park(OpClass next_cls) {
    st_->next_cls = next_cls;
    st_->ready.release();
    st_->go.acquire();
    st_->blocked = false;
    if (exec_->Aborted()) {
      throw AbortExecution{};
    }
  }

  Exec* exec_;
  ThreadState* st_;
};

void ThreadMain(Exec* exec, ThreadState* st, const std::function<void()>& body) {
  st->go.acquire();  // the start step is scheduled like any other
  if (!exec->Aborted()) {
    Client client(exec, st);
    mc::SetCurrent(&client);
    try {
      body();
    } catch (const AbortExecution&) {
      // Execution abandoned; unwound from a park point.
    } catch (const std::exception& e) {
      exec->RecordFailure(std::string("harness thread threw: ") + e.what());
    } catch (...) {
      exec->RecordFailure("harness thread threw a non-std exception");
    }
    mc::SetCurrent(nullptr);
  }
  st->done = true;
  st->ready.release();
}

// Appends every currently schedulable action, in deterministic order:
// kRunThread by tid, then kCommitOldest by (tid, var_ix) where var_ix walks
// the thread's distinct pending variables oldest-entry first.
void EnabledActions(const Exec& exec, std::vector<EnabledInfo>* out) {
  out->clear();
  for (const ThreadState& st : exec.threads) {
    if (st.done) {
      continue;
    }
    if (st.blocked && st.blocked_epoch == exec.commit_epoch) {
      continue;  // parked in SpinYield until a store commits
    }
    out->push_back(EnabledInfo{
        SchedAction{SchedAction::Kind::kRunThread, st.tid, 0}, st.next_cls});
  }
  for (const ThreadState& st : exec.threads) {
    int var_ix = 0;
    std::vector<const void*> seen;
    for (const PendingStore& ps : st.buffer) {
      if (std::find(seen.begin(), seen.end(), ps.var) != seen.end()) {
        continue;
      }
      seen.push_back(ps.var);
      out->push_back(EnabledInfo{
          SchedAction{SchedAction::Kind::kCommitOldest, st.tid, var_ix}, OpClass::kCommit});
      ++var_ix;
    }
  }
}

// Commits the oldest pending store of (tid, var_ix); see EnabledActions for
// the var_ix convention.
void CommitOldest(Exec* exec, int tid, int var_ix) {
  ThreadState& st = exec->threads[static_cast<size_t>(tid)];
  int ix = 0;
  std::vector<const void*> seen;
  for (auto it = st.buffer.begin(); it != st.buffer.end(); ++it) {
    if (std::find(seen.begin(), seen.end(), it->var) != seen.end()) {
      continue;
    }
    if (ix == var_ix) {
      it->commit(it->var, it->bytes, it->len);
      exec->commit_epoch++;
      st.self_commits++;  // the store is still this thread's own
      st.buffer.erase(it);
      return;
    }
    seen.push_back(it->var);
    ++ix;
  }
  MALT_CHECK(false) << "commit action names no pending store (tid " << tid << " var_ix "
                    << var_ix << ")";
}

thread_local Exec* g_thread_exec = nullptr;

}  // namespace

Scheduler::Scheduler(Options options) : options_(options) {}

void Scheduler::Fail(const std::string& message) {
  Exec* exec = g_thread_exec;
  MALT_CHECK(exec != nullptr) << "Scheduler::Fail outside a model-checked harness thread";
  exec->RecordFailure(message);
  throw AbortExecution{};
}

SchedResult Scheduler::Run(const std::vector<std::function<void()>>& threads,
                           Strategy* strategy) {
  Exec exec;
  for (size_t i = 0; i < threads.size(); ++i) {
    exec.threads.emplace_back(static_cast<int>(i));
  }
  for (size_t i = 0; i < threads.size(); ++i) {
    ThreadState* st = &exec.threads[i];
    const std::function<void()>* body = &threads[i];
    st->th = std::thread([&exec, st, body] {
      g_thread_exec = &exec;
      ThreadMain(&exec, st, *body);
      g_thread_exec = nullptr;
    });
  }

  SchedResult result;
  std::vector<EnabledInfo> enabled;
  for (;;) {
    {
      MutexLock lock(exec.fail_mu);
      if (exec.failed) {
        result.status = SchedResult::Status::kFailed;
        result.failure = exec.failure;
        break;
      }
    }
    if (result.steps >= options_.max_steps) {
      result.status = SchedResult::Status::kDivergent;
      result.failure = "step bound exceeded (livelock or unbounded schedule)";
      break;
    }
    EnabledActions(exec, &enabled);
    if (enabled.empty()) {
      const bool all_done = std::all_of(exec.threads.begin(), exec.threads.end(),
                                        [](const ThreadState& st) { return st.done; });
      if (all_done) {
        result.status = SchedResult::Status::kOk;
      } else {
        result.status = SchedResult::Status::kDeadlock;
        result.failure = "no runnable thread and no pending store to commit";
      }
      break;
    }
    const size_t choice = strategy->Choose(enabled);
    if (choice >= enabled.size()) {
      result.status = SchedResult::Status::kFailed;
      result.failure = "schedule replay diverged (recorded action not enabled)";
      break;
    }
    const SchedAction act = enabled[choice].act;
    result.trace.push_back(act);
    result.steps++;
    if (act.kind == SchedAction::Kind::kRunThread) {
      ThreadState& st = exec.threads[static_cast<size_t>(act.tid)];
      st.go.release();
      st.ready.acquire();
    } else {
      CommitOldest(&exec, act.tid, act.var_ix);
    }
  }

  // Wind down: wake every parked thread into the abort path and join.
  {
    MutexLock lock(exec.fail_mu);
    exec.abort = true;
  }
  for (ThreadState& st : exec.threads) {
    if (!st.done) {
      st.go.release();
    }
  }
  for (ThreadState& st : exec.threads) {
    st.th.join();
  }
  return result;
}

// --- strategies --------------------------------------------------------------

size_t FirstEnabledStrategy::Choose(const std::vector<EnabledInfo>& enabled) {
  (void)enabled;
  return 0;
}

size_t ReplayStrategy::Choose(const std::vector<EnabledInfo>& enabled) {
  if (next_ < prefix_.size()) {
    const SchedAction want = prefix_[next_++];
    for (size_t i = 0; i < enabled.size(); ++i) {
      if (enabled[i].act == want) {
        return i;
      }
    }
    return enabled.size();  // replay diverged; scheduler reports it
  }
  return (tail_ != nullptr ? tail_ : &first_)->Choose(enabled);
}

PctStrategy::PctStrategy(uint64_t seed, int num_threads, int depth, int64_t expected_steps)
    : rng_state_(seed ^ 0x9e3779b97f4a7c15ULL) {
  // Distinct priorities 1..n, randomly permuted (Fisher-Yates).
  priority_.resize(static_cast<size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    priority_[static_cast<size_t>(t)] = t + 1;
  }
  for (int t = num_threads - 1; t > 0; --t) {
    const int j = static_cast<int>(NextRand() % static_cast<uint64_t>(t + 1));
    std::swap(priority_[static_cast<size_t>(t)], priority_[static_cast<size_t>(j)]);
  }
  for (int k = 0; k + 1 < depth; ++k) {
    change_points_.push_back(
        static_cast<int64_t>(NextRand() % static_cast<uint64_t>(std::max<int64_t>(
                                              expected_steps, 1))));
  }
  std::sort(change_points_.begin(), change_points_.end());
}

uint64_t PctStrategy::NextRand() {
  // splitmix64: deterministic, seedable, no global state.
  rng_state_ += 0x9e3779b97f4a7c15ULL;
  uint64_t z = rng_state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

size_t PctStrategy::Choose(const std::vector<EnabledInfo>& enabled) {
  const auto prio_of = [this](const EnabledInfo& e) {
    return priority_[static_cast<size_t>(e.act.tid)];
  };
  if (next_change_ < change_points_.size() && step_ >= change_points_[next_change_]) {
    ++next_change_;
    // Demote the currently-highest enabled thread below everyone.
    int best_tid = enabled[0].act.tid;
    for (const EnabledInfo& e : enabled) {
      if (priority_[static_cast<size_t>(e.act.tid)] >
          priority_[static_cast<size_t>(best_tid)]) {
        best_tid = e.act.tid;
      }
    }
    priority_[static_cast<size_t>(best_tid)] = --next_low_;
  }
  ++step_;
  int best = priority_[static_cast<size_t>(enabled[0].act.tid)];
  for (const EnabledInfo& e : enabled) {
    best = std::max(best, prio_of(e));
  }
  // All actions of the winning thread are candidates (its next program step
  // and any of its pending commits — "the store finally leaves the buffer").
  // Picking among them at random is what lets PCT exercise out-of-order
  // commits, the behavior the fence mutations need observable.
  std::vector<size_t> candidates;
  for (size_t i = 0; i < enabled.size(); ++i) {
    if (prio_of(enabled[i]) == best) {
      candidates.push_back(i);
    }
  }
  return candidates[static_cast<size_t>(NextRand() % candidates.size())];
}

}  // namespace modelcheck
}  // namespace malt
