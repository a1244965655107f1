// RankCtx implementation for the shared-memory transport.
//
// Ranks are preemptively-scheduled OS threads, so "waiting" is a spin/yield/
// sleep backoff loop over the caller's predicate, and time passes by itself —
// Advance() consumes nothing, it is only a cancellation point.
//
// Fail-stop is cooperative: the runtime's kill watchdog calls RequestKill()
// from its own thread; the rank observes the flag at its next cancellation
// point (Advance / Yield / Wait iterations) and unwinds by throwing the same
// ProcessKilled the simulator's engine uses, so training code and RAII
// cleanup behave identically on both backends.

#ifndef SRC_SHMEM_RANK_CTX_H_
#define SRC_SHMEM_RANK_CTX_H_

#include <atomic>  // NOLINT(malt-api) memory_order tokens only; ops go via mc::
#include <chrono>
#include <functional>
#include <thread>

#include "src/base/mc.h"
#include "src/base/process_killed.h"
#include "src/comm/transport.h"
#include "src/shmem/clock.h"

namespace malt {

class ShmemRankCtx : public RankCtx {
 public:
  ShmemRankCtx(int rank, const Clock& clock) : rank_(rank), clock_(clock) {}

  int rank() const { return rank_; }

  // Asks this rank to die; safe from any thread, idempotent. The rank honors
  // it at its next cancellation point.
  void RequestKill() { kill_requested_.store(true, std::memory_order_release); }
  bool KillRequested() const { return kill_requested_.load(std::memory_order_acquire); }

  SimTime Now() const override { return clock_.NowNs(); }

  void Advance(SimDuration dt) override {
    (void)dt;  // wall time already passed; nothing to consume
    CheckKill();
  }

  void Yield() override {
    CheckKill();
    std::this_thread::yield();
  }

  void Wait(const std::function<bool()>& pred) override {
    for (int spins = 0; !pred(); ++spins) {
      CheckKill();
      Backoff(spins);
    }
  }

  bool WaitOr(const std::function<bool()>& pred, SimTime deadline) override {
    for (int spins = 0;; ++spins) {
      if (pred()) {
        return true;
      }
      if (clock_.NowNs() >= deadline) {
        return false;
      }
      CheckKill();
      Backoff(spins);
    }
  }

  [[noreturn]] void KillSelf() override {
    kill_requested_.store(true, std::memory_order_release);
    throw ProcessKilled{rank_};
  }

 private:
  void CheckKill() {
    if (KillRequested()) {
      throw ProcessKilled{rank_};
    }
  }

  // Spin briefly (peers usually respond within microseconds), then back off
  // to short real sleeps so oversubscribed runs (more ranks than cores) make
  // progress without burning the scheduler. The 20 us step bounds how late a
  // sleeping waiter sees its predicate turn true; the runtime trims each rank
  // thread's timer slack to 1 us (RunShmem) so the kernel does not add its
  // default 50 us to every step. A longer spin phase wakes waiters sooner
  // still but steals the cores that the ranks still computing need. Under
  // the model checker the spin yield parks the thread until another thread
  // commits a store, so wait loops never enumerate useless
  // self-interleavings.
  static void Backoff(int spins) {
    MALT_MC_SPIN_YIELD();
    if (spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }

  const int rank_;
  const Clock& clock_;
  mc::atomic<bool> kill_requested_{false};
};

}  // namespace malt

#endif  // SRC_SHMEM_RANK_CTX_H_
