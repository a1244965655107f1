// Shared-memory transport: the first backend where MALT's ranks are
// genuinely concurrent OS threads.
//
// A one-sided "RDMA write" here is a real memcpy into a peer-owned segment,
// performed by the *sender's* thread — the sending CPU plays the DMA engine,
// the receiver's CPU is never involved, exactly the one-sidedness property
// dstorm is built on. Three mechanisms make this safe under preemptive
// concurrency:
//   1. Striped SeqLocks (src/base/seqlock.h): a registered region is divided
//      into guard stripes (dstorm registers one stripe per receive slot, so
//      concurrent senders never share a stripe). A writer holds the stripe's
//      seqlock across its copy; Snapshot() detects in-flight overwrites and
//      reports them as torn, which dstorm's atomic gather already handles.
//   2. Bulk guarded copies, word-atomic unguarded ones: bytes under a stripe
//      guard move in one copy (GuardedStoreBytes / GuardedLoadBytes, a
//      single `rep movsb` on x86-64), since the seqlock detects a torn
//      snapshot whatever order the bytes land in. Unguarded regions (barrier
//      counters, probe stamps) have no sequence to validate, so their bytes
//      move through relaxed word atomics (AtomicStoreBytes /
//      AtomicLoadBytes) and every 8-byte word is single-copy atomic.
//   3. Inline completions: a write applies and completes on the sender's
//      thread before PostWrite returns, so each rank's CQ (Transport's plain
//      per-node FIFO) is pushed by its own posts and drained by its own
//      polls, never touched by another thread (the TSan stage checks this).
//
// The protocol checker (src/check/check.h) runs here too: when a checker is
// bound at construction, every one-sided write is bracketed with
// kFirstHalf/kSecondHalf apply hooks around the seqlock'd store, from the
// sender's own thread. The seqlock's release/acquire ordering guarantees a
// reader that validated the store runs its read hooks after the sender's
// begin hook, which is what makes the concurrent ledger sound.
//
// What this backend deliberately does NOT model (see DESIGN.md §10): latency
// or bandwidth shaping (writes land as fast as memcpy goes), network
// partitions (there is no network; only the simulated Fabric injects
// them), and kill
// scheduling in virtual time — fail-stop is a cooperative cancellation flag
// checked at the rank's next blocking point, with the node marked dead
// immediately so peers observe error completions and failed probes just as
// on the simulated fabric.

#ifndef SRC_SHMEM_SHMEM_TRANSPORT_H_
#define SRC_SHMEM_SHMEM_TRANSPORT_H_

#include <atomic>  // NOLINT(malt-api) memory_order tokens only; ops go via mc::
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "src/base/mc.h"
#include "src/base/mutex.h"
#include "src/base/seqlock.h"
#include "src/base/thread_annotations.h"
#include "src/base/status.h"
#include "src/base/time_units.h"
#include "src/check/check.h"
#include "src/comm/transport.h"
#include "src/shmem/clock.h"
#include "src/telemetry/telemetry.h"

namespace malt {

class ShmemTransport : public Transport {
 public:
  // `checker` (optional) validates the one-sided write protocol live; it
  // must be in concurrent mode (ProtocolChecker::SetConcurrent) and outlive
  // the transport. Without one, an owned off-level checker answers queries.
  explicit ShmemTransport(int nodes, TelemetryDomain* telemetry = nullptr,
                          ProtocolChecker* checker = nullptr);

  TransportKind kind() const override { return TransportKind::kShmem; }
  SimTime now() const override { return clock_.NowNs(); }
  const Clock& clock() const { return clock_; }

  MrHandle RegisterMemory(int node, size_t bytes, size_t guard_stripe_bytes) override;
  using Transport::RegisterMemory;
  void DeregisterMemory(MrHandle mr) override;

  // Copies into `scratch` under the stripe guards; empty when torn.
  [[nodiscard]] std::span<const std::byte> Snapshot(MrHandle mr, size_t offset, size_t len,
                                                    std::span<std::byte> scratch) const override;
  void Write(MrHandle mr, size_t offset, std::span<const std::byte> data) override;

  // Applies inline on the sender's thread and completes onto `src`'s CQ
  // before returning. When `trace` is enabled, the apply is recorded
  // (Transport::RecordApply) at the wall-clock instant it landed.
  [[nodiscard]] Result<uint64_t> PostWrite(int src, SimTime now, MrHandle dst_mr, size_t dst_offset,
                             std::span<const std::byte> data, const WireTrace& trace) override;
  using Transport::PostWrite;

  // Writes apply inline in the sender's thread: the queue never fills and
  // nothing is ever outstanding.
  bool HasSendRoom(int /*node*/) const override { return true; }
  int OutstandingWrites(int node) const override {
    (void)node;
    return 0;
  }

  bool NodeAlive(int node) const override {
    return alive_[static_cast<size_t>(node)].load(std::memory_order_acquire);
  }

  // Region-index capacity per node: registering more regions on one node
  // aborts. dstorm uses two fixed regions plus one per segment.
  static constexpr size_t kMaxRegionsPerNode = 256;

  // Fail-stop: marks `node` dead. Subsequent writes to it complete with
  // kRemoteDead (the signal fault monitors key off). Called by the runtime's
  // kill watchdog and when a rank's thread unwinds on ProcessKilled.
  // Idempotent, callable from any thread.
  void MarkDead(int node);

 private:
  struct Region {
    Region(size_t bytes_arg, size_t stripe_arg);

    std::vector<std::byte> bytes;
    size_t stripe_bytes;          // 0: unguarded (word-atomic access only)
    std::vector<SeqLock> guards;  // one per stripe when stripe_bytes > 0
    mc::atomic<bool> registered{true};
  };

  // Lock-free region lookup: one acquire load from the region index; null
  // when the handle names nothing.
  Region* FindRegion(MrHandle mr) const;
  void GuardedStore(Region& region, size_t offset, std::span<const std::byte> data);

  WallClock clock_;

  // Registration is rare (collective segment creation before training) and
  // lookup is hot. Ownership, registration and MarkDead's sweep stay under
  // region_mu_; lookups never take it. RegisterMemory publishes each Region*
  // into the fixed-capacity index with release, and FindRegion reads it with
  // one acquire load. Regions are held by unique_ptr and never freed before
  // the transport, so a looked-up pointer stays valid (its seqlock guards and
  // atomic flags carry the per-slot protection from there).
  Mutex region_mu_;
  std::vector<std::vector<std::unique_ptr<Region>>> regions_
      MALT_GUARDED_BY(region_mu_);  // [node][rkey]
  std::vector<mc::atomic<Region*>> region_index_;  // [node * kMaxRegionsPerNode + rkey]

  std::vector<uint64_t> next_wr_id_;       // [node]; only node's thread posts
  std::deque<mc::atomic<bool>> alive_;     // [node]
};

}  // namespace malt

#endif  // SRC_SHMEM_SHMEM_TRANSPORT_H_
