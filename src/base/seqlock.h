// Sequence-lock protocol for dstorm receive-queue slots.
//
// The paper's "atomic gather" guards against torn reads: a sender may be
// overwriting a slot while the receiver reads it. The slot header carries a
// sequence number that is odd while a write is in progress; readers retry
// until they observe the same even sequence before and after the copy.
//
// In the simulator a write can be split into two apply events (header, then
// payload) to exercise exactly this race deterministically; on real hardware
// the same protocol covers DMA ordering.
//
// All synchronization goes through the mc:: shim (src/base/mc.h): in normal
// builds these are exactly the std primitives; under MALT_MODELCHECK=ON the
// model checker's scheduler drives this very code through systematically
// explored interleavings (DESIGN.md §11). MALT_MC_MUTATE sites are planted
// bugs for the checker's mutation self-test and constant-false otherwise.

#ifndef SRC_BASE_SEQLOCK_H_
#define SRC_BASE_SEQLOCK_H_

#include <atomic>  // NOLINT(malt-api) memory_order tokens only; ops go via mc::
#include <cassert>
#include <cstdint>
#include <cstring>

#include "src/base/mc.h"

namespace malt {

// Word-atomic byte copies for shared memory that no stripe guard protects:
// the shmem transport's unguarded words (barrier counters, probe stamps) are
// read by peers with no sequence to validate, so each 8-byte word must be
// single-copy atomic. A plain memcpy racing a writer would also be undefined
// behavior at the language level and a reportable race under
// ThreadSanitizer; relaxed word atomics make the race well-defined.
//
// AtomicStoreBytes aligns on the destination (the shared region; the source
// is writer-private), AtomicLoadBytes on the source (the shared region; the
// destination is reader-private).

inline void AtomicStoreBytes(void* dst, const void* src, size_t len) {
  auto* d = static_cast<unsigned char*>(dst);
  const auto* s = static_cast<const unsigned char*>(src);
  while (len > 0 && (reinterpret_cast<uintptr_t>(d) % alignof(uint64_t)) != 0) {
    mc::RelaxedByteStore(d, *s);
    ++d;
    ++s;
    --len;
  }
  while (len >= sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, s, sizeof(word));
    mc::RelaxedWordStore(reinterpret_cast<uint64_t*>(d), word);
    d += sizeof(uint64_t);
    s += sizeof(uint64_t);
    len -= sizeof(uint64_t);
  }
  while (len > 0) {
    mc::RelaxedByteStore(d, *s);
    ++d;
    ++s;
    --len;
  }
}

inline void AtomicLoadBytes(void* dst, const void* src, size_t len) {
  auto* d = static_cast<unsigned char*>(dst);
  const auto* s = static_cast<const unsigned char*>(src);
  while (len > 0 && (reinterpret_cast<uintptr_t>(s) % alignof(uint64_t)) != 0) {
    *d = mc::RelaxedByteLoad(s);
    ++d;
    ++s;
    --len;
  }
  while (len >= sizeof(uint64_t)) {
    const uint64_t word = mc::RelaxedWordLoad(reinterpret_cast<const uint64_t*>(s));
    std::memcpy(d, &word, sizeof(word));
    d += sizeof(uint64_t);
    s += sizeof(uint64_t);
    len -= sizeof(uint64_t);
  }
  while (len > 0) {
    *d = mc::RelaxedByteLoad(s);
    ++d;
    ++s;
    --len;
  }
}

// Bulk copies for bytes a seqlock stripe guards: the writer brackets the
// store with WriteBegin/WriteEnd, and the reader validates the sequence
// after the load and discards a torn snapshot. Nothing needs per-word
// atomicity here, so on x86-64 each helper is one `rep movsb`, which moves
// whole cache lines per step where the word loop takes 23.5k iterations per
// 188 KB slot.
//
// Why the seqlock still holds (Intel SDM Vol. 3A, "Memory-Ordering Model for
// String Operations"): the stores of one string operation may be performed
// out of order among themselves, but a string operation is not reordered
// with other stores, and no store passes a locked instruction. The writer's
// WriteBegin and WriteEnd are locked RMWs (`lock xadd`), so every payload
// byte becomes visible after the odd sequence and before the even one. The
// reader loads the sequence with acquire before the copy and, after it, runs
// an acquire fence and a second acquire load; x86 does not let a later load
// pass an earlier one across that window, so a snapshot that validates saw
// no store of a write that overlapped it. The `"memory"` clobber keeps the
// compiler from moving any access across the asm, and the ABI guarantees
// the direction flag is clear.
//
// The asm is invisible to the model checker and to the sanitizers. Under
// MALT_MODELCHECK, and on other targets, the helpers fall back to the
// word-atomic loops above so each word stays a checker sync point.
// Guarded stores belong to the transport implementations alone (the lint's
// segment-write rule).

inline void GuardedStoreBytes(void* dst, const void* src, size_t len) {
#if defined(__x86_64__) && !defined(MALT_MODELCHECK)
  asm volatile("rep movsb" : "+D"(dst), "+S"(src), "+c"(len) : : "memory");
#else
  AtomicStoreBytes(dst, src, len);
#endif
}

inline void GuardedLoadBytes(void* dst, const void* src, size_t len) {
#if defined(__x86_64__) && !defined(MALT_MODELCHECK)
  asm volatile("rep movsb" : "+D"(dst), "+S"(src), "+c"(len) : : "memory");
#else
  AtomicLoadBytes(dst, src, len);
#endif
}

class SeqLock {
 public:
  SeqLock() : seq_(0) {}

  // Start from an arbitrary even sequence — used by the stamp-overflow tests
  // to place the counter just below a wraparound boundary.
  explicit SeqLock(uint64_t initial_seq) : seq_(initial_seq) {
    assert((initial_seq & 1) == 0 && "initial sequence must be even (no write in progress)");
  }

  // Writer protocol. Writes are already serialized per slot by the per-sender
  // queue design, so no writer-writer exclusion is needed — but the two
  // increments are single atomic RMWs (not load+store pairs), so the even/odd
  // discipline holds even if a second writer is ever introduced.
  //
  // WriteBegin makes the sequence odd before any payload bytes are touched;
  // the release fence orders the odd store before the payload writes for
  // acquire-side readers. WriteEnd publishes payload + even sequence with one
  // release RMW.
  void WriteBegin() {
    if (!MALT_MC_MUTATE(kSeqlockSkipParityBump)) {
      const uint64_t prev = seq_.fetch_add(1, std::memory_order_relaxed);
      assert((prev & 1) == 0 && "WriteBegin while a write is in progress");
      (void)prev;
    }
    mc::Fence(std::memory_order_release);
  }
  void WriteEnd() {
    // Mutations: kSeqlockSkipParityBump pairs with WriteBegin above — the
    // sequence advances by 2 here and never goes odd, so readers cannot tell
    // a write is in flight. kSeqlockWriteEndRelaxed keeps the parity protocol
    // but publishes without release ordering, so payload stores may become
    // visible after the even sequence.
    const uint64_t bump = MALT_MC_MUTATE(kSeqlockSkipParityBump) ? 2 : 1;
    const std::memory_order order = MALT_MC_MUTATE(kSeqlockWriteEndRelaxed)
                                        ? std::memory_order_relaxed
                                        : std::memory_order_release;
    const uint64_t prev = seq_.fetch_add(bump, order);
    assert((bump == 2 || (prev & 1) == 1) && "WriteEnd without a matching WriteBegin");
    (void)prev;
  }

  // Reader protocol.
  uint64_t ReadBegin() const {
    uint64_t seq = seq_.load(std::memory_order_acquire);
    while (seq & 1) {  // write in progress; spin (simulator: re-apply loop)
      MALT_MC_SPIN_YIELD();
      seq = seq_.load(std::memory_order_acquire);
    }
    return seq;
  }

  // An explicit acquire load: it pairs with the writer's release operations
  // directly, so the validation needs no separate fence and the load itself
  // is the synchronization point (simpler to reason about, and what the
  // protocol checker's SeqLockDiscipline asserts).
  bool ReadValidate(uint64_t begin_seq) const {
    return seq_.load(std::memory_order_acquire) == begin_seq;
  }

  // True if a write is currently in progress (odd sequence).
  bool WriteInProgress() const { return (seq_.load(std::memory_order_acquire) & 1) != 0; }

  uint64_t sequence() const { return seq_.load(std::memory_order_acquire); }

  // --- copies under the protocol ----------------------------------------------
  // Payload bytes move with GuardedStoreBytes / GuardedLoadBytes, the same
  // bulk copy the shmem transport's guarded stripes use.

  // Writes `len` bytes from `src` into the guarded `dst`.
  void WriteAtomic(void* dst, const void* src, size_t len) {
    WriteBegin();
    GuardedStoreBytes(dst, src, len);
    WriteEnd();
  }

  // Single attempt: returns false if the slot was mid-write or changed during
  // the copy (`dst` then holds garbage); the caller treats the slot as
  // not-yet-fresh and moves on.
  bool TryReadCopyAtomic(void* dst, const void* src, size_t len) const {
    const uint64_t begin_seq = seq_.load(std::memory_order_acquire);
    if (begin_seq & 1) {
      return false;
    }
    GuardedLoadBytes(dst, src, len);
    // Order the payload loads before the validating sequence load: the
    // validation must not be satisfied by a stale sequence observed before
    // the payload was read.
    mc::Fence(std::memory_order_acquire);
    return ReadValidate(begin_seq);
  }

  // Retries until a consistent snapshot is copied; returns the number of
  // retries (0 when the first attempt was consistent).
  int ReadCopyAtomic(void* dst, const void* src, size_t len) const {
    int retries = 0;
    while (!TryReadCopyAtomic(dst, src, len)) {
      MALT_MC_SPIN_YIELD();
      ++retries;
    }
    return retries;
  }

 private:
  mc::atomic<uint64_t> seq_;
};

}  // namespace malt

#endif  // SRC_BASE_SEQLOCK_H_
