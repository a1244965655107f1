// LINT-AS: src/shmem/bad_raw_atomic.h
// Fixture for tools/lint_malt_api.py --selftest: direct std::atomic use in
// the model-checked protocol scope (src/base/seqlock.h, src/shmem/) bypasses
// the mc:: shim, hiding sync points from the interleaving checker. memory_order tokens and mc:: wrappers stay clean.
// Not compiled.

#include <atomic>  // EXPECT-LINT(raw-atomic) (real code: NOLINT with a reason)

#include "src/base/mc.h"

class BadRing {
 public:
  void Publish(uint64_t tail) {
    tail_.store(tail, std::memory_order_release);  // clean: token only, op is mc::
    std::atomic_thread_fence(std::memory_order_release);  // EXPECT-LINT(raw-atomic)
    mc::Fence(std::memory_order_release);  // clean: the shim's fence
  }
  bool TryLock() {
    return !flag_.test_and_set(std::memory_order_acquire);  // clean
  }
  uint64_t Peek(const uint64_t* cell) {
    return std::atomic_ref<const uint64_t>(*cell).load(  // EXPECT-LINT(raw-atomic)
        std::memory_order_relaxed);
  }

 private:
  malt::mc::atomic<uint64_t> tail_{0};  // clean: the shim type
  std::atomic<uint64_t> head_{0};       // EXPECT-LINT(raw-atomic)
  std::atomic_flag raw_flag_ = ATOMIC_FLAG_INIT;  // EXPECT-LINT(raw-atomic)
  std::atomic<bool> escape_{false};  // NOLINT(malt-api) exemption escape hatch
};
