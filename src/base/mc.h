// Model-checkable atomics shim (DESIGN.md §11 "Systematic concurrency
// checking").
//
// The hand-rolled lock-free protocols in this tree — the seqlock-striped
// segment writes, the unguarded publish path, the barrier and kill wait
// loops — route every synchronization operation through the thin wrappers in
// this header instead of using std::atomic directly (the raw-atomic rule in
// tools/lint_malt_api.py enforces this for src/base/seqlock.h and
// src/shmem/).
//
// In normal builds (MALT_MODELCHECK off, the default) everything here is an
// alias or a forced-inline forwarding call: mc::atomic<T> IS std::atomic<T>,
// mc::Fence IS std::atomic_thread_fence, the annotation macros expand to
// nothing, and the compiled protocol code is byte-identical to writing the
// std primitives by hand.
//
// Under -DMALT_MODELCHECK=ON every operation becomes a *sync point*: if the
// calling thread is registered with a model-check scheduler
// (src/modelcheck/sched.h), the scheduler serializes execution, chooses which
// thread runs at each point, and simulates a weak memory model — relaxed and
// plain stores park in a per-thread store buffer, invisible to other threads
// until the scheduler commits them (at a release operation of the owning
// thread, in program order, or earlier at a schedule-chosen commit step in
// any per-variable-coherent order). That is what lets a systematic explorer
// drive the real SeqLock / ShmemTransport / ShmemRankCtx code through every
// interleaving of a small harness, including the store-reordering behaviors
// a release fence exists to forbid. Threads not registered with a scheduler
// (including all threads when no harness is active) fall through to the real
// std::atomic operation with the caller's memory order.
//
// MALT_MC_MUTATE names the planted-bug sites for the model checker's
// mutation self-test (tools/malt_mc --selftest): each site weakens one
// protocol decision (end a seqlock write relaxed, skip the seqlock parity
// bump, drop the unguarded publish fence) when the corresponding McMutation
// is armed. In normal builds the macro is the constant false and the compiler folds
// the mutated branch away.

#ifndef SRC_BASE_MC_H_
#define SRC_BASE_MC_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace malt {
namespace mc {

// Planted-bug selector for the model checker's mutation self-test. Exactly
// one mutation is armed process-wide while a mutation run executes; the
// protocol sources consult it only through MALT_MC_MUTATE.
enum class McMutation : uint8_t {
  kNone = 0,
  kSeqlockWriteEndRelaxed,    // SeqLock::WriteEnd publishes with a relaxed RMW
  kSeqlockSkipParityBump,     // SeqLock writes never take the sequence odd
  kShmemPublishFenceDropped,  // GuardedStore's unguarded publish loses its fence
};

#if defined(MALT_MODELCHECK)

// Interface the model-check scheduler implements. One instance drives all
// threads of one harness execution; each participating thread registers it
// in a thread_local slot (SetCurrent) for the duration of the harness body.
class SchedulerClient {
 public:
  virtual ~SchedulerClient() = default;

  // What kind of shared-memory operation the thread is about to perform.
  // The explorer's independence relation keys off this: loads and buffered
  // (relaxed/plain) stores are globally invisible and commute freely across
  // threads; commit-bearing operations (release stores, RMWs) change global
  // state and are treated as dependent with everything.
  enum class Op : uint8_t { kLoad, kBufferedStore, kCommitStore, kRmw };

  // Called BEFORE the operation on `var` executes. The scheduler parks the
  // calling thread here until it is this thread's turn; on return the caller
  // performs the operation.
  virtual void SyncPoint(const void* var, Op op) = 0;

  // Park the store in the calling thread's buffer instead of performing it;
  // the scheduler owns committing it later via `commit`. `bytes` is copied.
  using CommitFn = void (*)(void* var, const unsigned char* bytes, size_t len);
  virtual void BufferStore(void* var, const void* bytes, size_t len, CommitFn commit) = 0;

  // Store-to-load forwarding: if the calling thread has a pending store on
  // `var`, copy the newest buffered value into `out` and return true.
  virtual bool TryForward(const void* var, void* out, size_t len) = 0;

  // Release semantics: commit the calling thread's buffered stores in
  // program order, one schedule step per store (other threads may run
  // between two commits, which is exactly how partially-published state
  // becomes observable).
  virtual void DrainReleasePreemptible() = 0;

  // Commit the calling thread's pending stores on `var` only (per-variable
  // coherence for same-variable RMWs).
  virtual void FlushVar(const void* var) = 0;

  // An immediate (unbuffered) commit happened — advances the global commit
  // epoch that unblocks SpinYield'ed threads.
  virtual void NoteCommit() = 0;

  // The calling thread is in a spin/retry loop that cannot progress until
  // some other thread's store commits. Blocks until the commit epoch moves.
  virtual void SpinYield() = 0;
};

SchedulerClient* Current();
void SetCurrent(SchedulerClient* scheduler);

bool MutationActive(McMutation m);
void SetMutation(McMutation m);  // owned by the explorer / malt_mc driver

namespace detail {

inline bool IsRelease(std::memory_order order) {
  return order == std::memory_order_release || order == std::memory_order_acq_rel ||
         order == std::memory_order_seq_cst;
}

}  // namespace detail

// Drop-in std::atomic<T> replacement for the model-checkable protocol state.
// Restricted to trivially-copyable T of at most 8 bytes (sequence counters,
// flags, cached pointers) so buffered values fit a fixed slot.
template <typename T>
class atomic {  // NOLINT(readability-identifier-naming) std::atomic look-alike
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "mc::atomic models small trivially-copyable cells");

 public:
  atomic() noexcept : real_() {}
  explicit constexpr atomic(T v) noexcept : real_(v) {}
  atomic(const atomic&) = delete;
  atomic& operator=(const atomic&) = delete;

  T load(std::memory_order order = std::memory_order_seq_cst) const {
    SchedulerClient* s = Current();
    if (s == nullptr) {
      return real_.load(order);
    }
    s->SyncPoint(this, SchedulerClient::Op::kLoad);
    T v;
    if (s->TryForward(this, &v, sizeof(T))) {
      return v;
    }
    return real_.load(std::memory_order_relaxed);
  }

  void store(T v, std::memory_order order = std::memory_order_seq_cst) {
    SchedulerClient* s = Current();
    if (s == nullptr) {
      real_.store(v, order);
      return;
    }
    if (detail::IsRelease(order)) {
      s->SyncPoint(this, SchedulerClient::Op::kCommitStore);
      s->DrainReleasePreemptible();
      real_.store(v, std::memory_order_relaxed);
      s->NoteCommit();
      return;
    }
    s->SyncPoint(this, SchedulerClient::Op::kBufferedStore);
    s->BufferStore(this, &v, sizeof(T), &CommitRaw);
  }

  T fetch_add(T delta, std::memory_order order = std::memory_order_seq_cst) {
    SchedulerClient* s = Current();
    if (s == nullptr) {
      return real_.fetch_add(delta, order);
    }
    PrepareRmw(s, order);
    const T old = real_.load(std::memory_order_relaxed);
    real_.store(static_cast<T>(old + delta), std::memory_order_relaxed);
    s->NoteCommit();
    return old;
  }

  T exchange(T v, std::memory_order order = std::memory_order_seq_cst) {
    SchedulerClient* s = Current();
    if (s == nullptr) {
      return real_.exchange(v, order);
    }
    PrepareRmw(s, order);
    const T old = real_.load(std::memory_order_relaxed);
    real_.store(v, std::memory_order_relaxed);
    s->NoteCommit();
    return old;
  }

  bool compare_exchange_weak(T& expected, T desired,
                             std::memory_order order = std::memory_order_seq_cst) {
    return compare_exchange_strong(expected, desired, order);
  }

  bool compare_exchange_strong(T& expected, T desired,
                               std::memory_order order = std::memory_order_seq_cst) {
    SchedulerClient* s = Current();
    if (s == nullptr) {
      return real_.compare_exchange_strong(expected, desired, order);
    }
    PrepareRmw(s, order);
    const T cur = real_.load(std::memory_order_relaxed);
    if (std::memcmp(&cur, &expected, sizeof(T)) != 0) {
      expected = cur;
      return false;
    }
    real_.store(desired, std::memory_order_relaxed);
    s->NoteCommit();
    return true;
  }

 private:
  // An RMW operates on the coherent current value: commit this thread's own
  // pending stores on this cell first, plus the full buffer when the order
  // carries release semantics.
  void PrepareRmw(SchedulerClient* s, std::memory_order order) {
    s->SyncPoint(this, SchedulerClient::Op::kRmw);
    if (detail::IsRelease(order)) {
      s->DrainReleasePreemptible();
    } else {
      s->FlushVar(this);
    }
  }

  static void CommitRaw(void* var, const unsigned char* bytes, size_t len) {
    T v;
    std::memcpy(&v, bytes, len);
    static_cast<atomic*>(var)->real_.store(v, std::memory_order_relaxed);
  }

  mutable std::atomic<T> real_;
};

// Fences. Release (and stronger) fences commit the thread's store buffer in
// program order; acquire fences are no-ops in the model (the model does not
// reorder loads, so acquire ordering always holds — see DESIGN.md §11 for
// what that deliberately leaves unexplored).
inline void Fence(std::memory_order order) {
  SchedulerClient* s = Current();
  if (s == nullptr) {
    std::atomic_thread_fence(order);
    return;
  }
  if (detail::IsRelease(order)) {
    s->DrainReleasePreemptible();
  }
}

namespace detail {

template <typename T>
inline void CommitViaAtomicRef(void* var, const unsigned char* bytes, size_t len) {
  T v;
  std::memcpy(&v, bytes, len);
  (void)len;
  std::atomic_ref<T>(*static_cast<T*>(var)).store(v, std::memory_order_relaxed);
}

template <typename T>
inline void RelaxedRefStore(T* p, T v) {
  SchedulerClient* s = Current();
  if (s == nullptr) {
    std::atomic_ref<T>(*p).store(v, std::memory_order_relaxed);
    return;
  }
  s->SyncPoint(p, SchedulerClient::Op::kBufferedStore);
  s->BufferStore(p, &v, sizeof(T), &CommitViaAtomicRef<T>);
}

template <typename T>
inline T RelaxedRefLoad(const T* p) {
  SchedulerClient* s = Current();
  if (s == nullptr) {
    return std::atomic_ref<const T>(*p).load(std::memory_order_relaxed);
  }
  s->SyncPoint(p, SchedulerClient::Op::kLoad);
  T v;
  if (s->TryForward(p, &v, sizeof(T))) {
    return v;
  }
  return std::atomic_ref<const T>(*p).load(std::memory_order_relaxed);
}

}  // namespace detail

// Word/byte cells of the word-atomic copies (AtomicStoreBytes /
// AtomicLoadBytes in src/base/seqlock.h): the shmem transport's unguarded
// words and, in this build, the seqlock-guarded payload copies too
// (GuardedStoreBytes / GuardedLoadBytes fall back to the word loops here, so
// every payload word is a sync point).
inline void RelaxedWordStore(uint64_t* p, uint64_t v) { detail::RelaxedRefStore(p, v); }
inline uint64_t RelaxedWordLoad(const uint64_t* p) { return detail::RelaxedRefLoad(p); }
inline void RelaxedByteStore(unsigned char* p, unsigned char v) {
  detail::RelaxedRefStore(p, v);
}
inline unsigned char RelaxedByteLoad(const unsigned char* p) {
  return detail::RelaxedRefLoad(p);
}

// Plain (non-atomic) shared cells the protocol publishes via a later release
// operation — e.g. a counter handed over by a lock release. Modeled exactly
// like relaxed stores (the compiler and CPU are free to delay them just the
// same); must be trivially copyable and small.
inline constexpr size_t kMaxPlainBytes = 32;

namespace detail {

template <typename T>
inline void CommitPlain(void* var, const unsigned char* bytes, size_t len) {
  std::memcpy(var, bytes, len);
}

}  // namespace detail

template <typename T>
inline void PlainStore(T* dst, const T& v) {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= kMaxPlainBytes,
                "PlainStore models small trivially-copyable cells");
  SchedulerClient* s = Current();
  if (s == nullptr) {
    *dst = v;
    return;
  }
  s->SyncPoint(dst, SchedulerClient::Op::kBufferedStore);
  s->BufferStore(dst, &v, sizeof(T), &detail::CommitPlain<T>);
}

template <typename T>
inline T PlainLoad(const T* src) {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= kMaxPlainBytes,
                "PlainLoad models small trivially-copyable cells");
  SchedulerClient* s = Current();
  if (s == nullptr) {
    return *src;
  }
  s->SyncPoint(src, SchedulerClient::Op::kLoad);
  T v;
  if (s->TryForward(src, &v, sizeof(T))) {
    return v;
  }
  std::memcpy(&v, src, sizeof(T));
  return v;
}

inline void SyncPointHint() {
  SchedulerClient* s = Current();
  if (s != nullptr) {
    s->SyncPoint(nullptr, SchedulerClient::Op::kLoad);
  }
}

inline void SpinYieldHint() {
  SchedulerClient* s = Current();
  if (s != nullptr) {
    s->SpinYield();
  }
}

#define MALT_SYNC_POINT() ::malt::mc::SyncPointHint()
#define MALT_MC_SPIN_YIELD() ::malt::mc::SpinYieldHint()
#define MALT_MC_MUTATE(m) ::malt::mc::MutationActive(::malt::mc::McMutation::m)

#else  // !MALT_MODELCHECK ---------------------------------------------------

// Production builds: pure aliases and forced-inline forwarding — the
// protocol code compiles byte-identical to using the std primitives
// directly, and the macros vanish.

template <typename T>
using atomic = std::atomic<T>;

inline void Fence(std::memory_order order) { std::atomic_thread_fence(order); }

inline void RelaxedWordStore(uint64_t* p, uint64_t v) {
  std::atomic_ref<uint64_t>(*p).store(v, std::memory_order_relaxed);
}
inline uint64_t RelaxedWordLoad(const uint64_t* p) {
  return std::atomic_ref<const uint64_t>(*p).load(std::memory_order_relaxed);
}
inline void RelaxedByteStore(unsigned char* p, unsigned char v) {
  std::atomic_ref<unsigned char>(*p).store(v, std::memory_order_relaxed);
}
inline unsigned char RelaxedByteLoad(const unsigned char* p) {
  return std::atomic_ref<const unsigned char>(*p).load(std::memory_order_relaxed);
}

template <typename T>
inline void PlainStore(T* dst, const T& v) {
  *dst = v;
}
template <typename T>
inline T PlainLoad(const T* src) {
  return *src;
}

#define MALT_SYNC_POINT() ((void)0)
#define MALT_MC_SPIN_YIELD() ((void)0)
#define MALT_MC_MUTATE(m) (false)

#endif  // MALT_MODELCHECK

}  // namespace mc
}  // namespace malt

#endif  // SRC_BASE_MC_H_
