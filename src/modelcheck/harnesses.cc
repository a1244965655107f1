#include "src/modelcheck/harnesses.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/base/mc.h"
#include "src/base/seqlock.h"
#include "src/check/check.h"
#include "src/shmem/rank_ctx.h"
#include "src/shmem/shmem_transport.h"

namespace malt {
namespace modelcheck {

namespace {

// --- seqlock ----------------------------------------------------------------
//
// One writer publishes generation 1 of a two-word payload through the real
// SeqLock; each reader makes a single read attempt (begin / copy / acquire
// fence / validate) and, when the attempt validates, checks that BOTH words
// belong to the generation implied by the observed begin sequence
// (gen = (seq - initial) / 2). That invariant catches every planted seqlock
// mutation:
//   kSeqlockSkipParityBump — the sequence never goes odd, so a reader can
//     validate a mid-write snapshot: seq says gen 0, word 0 already gen 1.
//   kSeqlockWriteEndRelaxed — the even sequence commits while the payload is
//     still in the writer's store buffer: seq says gen 1, words still gen 0.
// Correct code can produce neither: the payload only commits between the odd
// and even sequence bumps, and validation rejects every snapshot that
// overlaps that window.
class SeqlockHarness : public Harness {
 public:
  SeqlockHarness(int readers, uint64_t initial_seq)
      : readers_(readers), base_(initial_seq), lock_(initial_seq) {
    for (uint64_t i = 0; i < kWords; ++i) {
      data_[i] = WordValue(/*gen=*/0, i);
    }
  }

  std::vector<std::function<void()>> Threads() override {
    std::vector<std::function<void()>> threads;
    threads.push_back([this] {
      uint64_t src[kWords];
      for (uint64_t i = 0; i < kWords; ++i) {
        src[i] = WordValue(/*gen=*/1, i);
      }
      lock_.WriteAtomic(data_, src, sizeof(src));
    });
    for (int r = 0; r < readers_; ++r) {
      threads.push_back([this] { ReadOnce(); });
    }
    return threads;
  }

 private:
  static constexpr uint64_t kWords = 2;
  static uint64_t WordValue(uint64_t gen, uint64_t word) { return gen * 1000 + word; }

  void ReadOnce() {
    const uint64_t s0 = lock_.sequence();
    if (s0 & 1) {
      return;  // write in flight; a real reader would retry
    }
    uint64_t snap[kWords];
    GuardedLoadBytes(snap, data_, sizeof(snap));
    mc::Fence(std::memory_order_acquire);
    if (!lock_.ReadValidate(s0)) {
      return;  // torn; a real reader would retry
    }
    // Validated snapshot: every word must belong to the generation the
    // sequence claims. Wrapping subtraction keeps this exact across the
    // stamp-overflow boundary (base 2^64-2 → post-write sequence 0).
    const uint64_t gen = (s0 - base_) / 2;
    for (uint64_t i = 0; i < kWords; ++i) {
      if (snap[i] != WordValue(gen, i)) {
        Scheduler::Fail("validated seqlock snapshot mixes generations: seq " +
                        std::to_string(s0) + " implies gen " + std::to_string(gen) +
                        " but word " + std::to_string(i) + " holds " +
                        std::to_string(snap[i]));
      }
    }
  }

  const int readers_;
  const uint64_t base_;
  SeqLock lock_;
  uint64_t data_[kWords];
};

// --- shmem unguarded publish ------------------------------------------------
//
// The flag-publish idiom the shmem barrier counters and probe stamps rely
// on: rank 0 writes a payload word, then a flag word, into an UNGUARDED
// region of the real ShmemTransport (stripe_bytes = 0, the word-atomic
// path); rank 1 spins on the flag and then reads the payload. GuardedStore's
// release fence on the unguarded path (paired with Read's acquire fence) is
// the only thing ordering the two commits — kShmemPublishFenceDropped
// removes it, and the scheduler is then free to commit the flag first,
// letting the reader observe flag==1 with a stale payload.
class ShmemPublishHarness : public Harness {
 public:
  ShmemPublishHarness() : transport_(2) {
    mr_ = transport_.RegisterMemory(/*node=*/1, /*bytes=*/16, /*guard_stripe_bytes=*/0);
  }

  std::vector<std::function<void()>> Threads() override {
    return {
        [this] {
          WriteWord(/*offset=*/0, kPayload);
          WriteWord(/*offset=*/8, 1);  // publish
        },
        [this] {
          while (ReadWord(/*offset=*/8) != 1) {
            MALT_MC_SPIN_YIELD();
          }
          const uint64_t payload = ReadWord(/*offset=*/0);
          if (payload != kPayload) {
            Scheduler::Fail("publish flag visible before payload: read " +
                            std::to_string(payload) + " instead of " +
                            std::to_string(kPayload));
          }
        },
    };
  }

 private:
  static constexpr uint64_t kPayload = 42;

  void WriteWord(size_t offset, uint64_t value) {
    std::byte bytes[sizeof(uint64_t)];
    std::memcpy(bytes, &value, sizeof(value));
    transport_.Write(mr_, offset, std::span<const std::byte>(bytes, sizeof(bytes)));
  }

  uint64_t ReadWord(size_t offset) {
    std::byte bytes[sizeof(uint64_t)];
    if (!transport_.Read(mr_, offset, std::span<std::byte>(bytes, sizeof(bytes)))) {
      Scheduler::Fail("unguarded read reported torn");
    }
    uint64_t value = 0;
    std::memcpy(&value, bytes, sizeof(value));
    return value;
  }

  ShmemTransport transport_;
  MrHandle mr_;
};

// --- rank kill handshake ----------------------------------------------------
//
// The cooperative fail-stop protocol: a victim rank parked in Wait() must
// observe RequestKill() from another thread and unwind via ProcessKilled —
// under EVERY interleaving of the flag store and the wait loop's checks. A
// missed wakeup surfaces as a model-level deadlock (the victim spin-blocks
// with no commit left to release it).
class RankKillHarness : public Harness {
 public:
  RankKillHarness() : ctx_(/*rank=*/0, clock_) {}

  std::vector<std::function<void()>> Threads() override {
    return {
        [this] {
          try {
            ctx_.Wait([] { return false; });  // only the kill can end this
          } catch (const ProcessKilled& k) {
            killed_rank_ = k.pid;
          }
        },
        [this] { ctx_.RequestKill(); },
    };
  }

  std::string FinalCheck() override {
    if (killed_rank_ != 0) {
      return "victim returned from Wait() without observing the kill";
    }
    return "";
  }

 private:
  WallClock clock_;
  ShmemRankCtx ctx_;
  int killed_rank_ = -1;
};

// --- dstorm slot protocol with the ledger as oracle --------------------------
//
// The full write path: rank 0 posts two slot images (header | payload |
// trailer, built by check::EncodeSlotImage, only the used bytes on the wire
// as dstorm sends them) through ShmemTransport::PostWrite into a
// slot-striped region on rank 1, the second object shorter than the first,
// with a concurrent-mode ProtocolChecker bound to the transport so every
// apply is ledgered. Rank 1 polls the slot the way dstorm's Gather reads it:
// a header Read first, the stale decision from the header alone (reported
// as a skip with seq_back = seq_front), then the whole slot — header,
// payload and trailer — in one Read decoded with check::ParseSlotImage,
// consumed only if its front stamp is still the header's and matches its
// back stamp; every consumed (or torn) snapshot is reported. The shorter
// second write is what a payload-plus-trailer-only second read gets wrong:
// the first object's back stamp survives past the new trailer and vouches
// for torn bytes. The oracle is the checker itself: any torn-read escape,
// phantom seq, stale misjudgement or duplicate consume increments
// violation_count(). Too many sync points for exhaustive DFS — this one is
// PCT-only.
//
// NOTE: must never call MarkDead here — it stores through the shim while
// holding a real lock, which would park the scheduler inside a critical
// section.
class DstormSlotHarness : public Harness {
 public:
  DstormSlotHarness() : checker_(CheckLevel::kFull, /*world=*/2), transport_(MakeTransport()) {
    mr_ = transport_->RegisterMemory(/*node=*/1, kStride, /*guard_stripe_bytes=*/kStride);
    ProtocolChecker::SegmentLayout layout;
    layout.slot_stride = kStride;
    layout.obj_bytes = kObjBytes;
    layout.queue_depth = 1;
    layout.senders = {0};
    checker_.OnSegmentCreate(/*node=*/1, mr_.rkey, /*segment=*/0, layout);
  }

  std::vector<std::function<void()>> Threads() override {
    return {
        [this] {
          for (uint32_t iter = 1; iter <= kIters; ++iter) {
            const size_t bytes = iter == 1 ? kObjBytes : kShortBytes;
            const size_t image = check::kPayloadOff + bytes + sizeof(uint64_t);
            std::byte wire[kStride];
            std::byte payload[kObjBytes];
            for (size_t i = 0; i < bytes; ++i) {
              payload[i] = static_cast<std::byte>(iter);
            }
            // dstorm's stamp discipline: seq advances by one per post and
            // (seq - 1) % depth names the slot — with depth 1, seq == iter.
            check::EncodeSlotImage(std::span<std::byte>(wire, image),
                                   /*seq=*/iter, iter,
                                   std::span<const std::byte>(payload, bytes));
            const auto r = transport_->PostWrite(/*src=*/0, /*now=*/0, mr_, /*dst_offset=*/0,
                                                 std::span<const std::byte>(wire, image),
                                                 WireTrace{});
            if (!r.ok()) {
              Scheduler::Fail("PostWrite failed: " + r.status().ToString());
            }
          }
        },
        [this] {
          std::byte snap[kStride];
          uint32_t consumed = 0;
          while (consumed < kIters) {
            if (!transport_->Read(mr_, 0, std::span<std::byte>(snap, check::kPayloadOff))) {
              MALT_MC_SPIN_YIELD();  // write in flight on the stripe
              continue;
            }
            uint64_t seq_front = 0;
            uint32_t iter = 0;
            uint32_t bytes = 0;
            std::memcpy(&seq_front, snap + check::kSeqFrontOff, sizeof(seq_front));
            std::memcpy(&iter, snap + check::kIterOff, sizeof(iter));
            std::memcpy(&bytes, snap + check::kBytesOff, sizeof(bytes));
            if (seq_front == 0 || bytes > kObjBytes) {
              MALT_MC_SPIN_YIELD();  // nothing written yet
              continue;
            }
            if (seq_front <= consumed) {
              // Stale, decided from the header: payload and trailer unread.
              checker_.OnSlotRead(/*reader=*/1, mr_.rkey, /*queue_pos=*/0, /*slot=*/0,
                                  seq_front, seq_front, iter, {},
                                  ProtocolChecker::ReadAction::kSkippedStale, /*now=*/0);
              MALT_MC_SPIN_YIELD();
              continue;
            }
            const size_t image = check::kPayloadOff + bytes + sizeof(uint64_t);
            if (!transport_->Read(mr_, 0, std::span<std::byte>(snap, image))) {
              MALT_MC_SPIN_YIELD();  // write in flight during the snapshot
              continue;
            }
            // One read is atomic against a write; a write landing since the
            // header read shows up as a new front stamp or mismatched stamps.
            check::SlotImage img;
            if (!check::ParseSlotImage(std::span<const std::byte>(snap, image), &img) ||
                img.seq_front != seq_front || img.torn()) {
              checker_.OnSlotRead(/*reader=*/1, mr_.rkey, /*queue_pos=*/0, /*slot=*/0,
                                  img.seq_front, img.seq_back, img.iter, {},
                                  ProtocolChecker::ReadAction::kSkippedTorn, /*now=*/0);
              MALT_MC_SPIN_YIELD();
              continue;
            }
            checker_.OnSlotRead(/*reader=*/1, mr_.rkey, /*queue_pos=*/0, /*slot=*/0,
                                img.seq_front, img.seq_back, img.iter, img.payload,
                                ProtocolChecker::ReadAction::kConsumed, /*now=*/0);
            consumed = img.iter;
          }
        },
    };
  }

  std::string FinalCheck() override {
    if (checker_.violation_count() != 0) {
      return "protocol ledger recorded " + std::to_string(checker_.violation_count()) +
             " violation(s)";
    }
    return "";
  }

 private:
  static constexpr size_t kObjBytes = 16;
  static constexpr size_t kShortBytes = 4;  // every object after the first
  static constexpr size_t kStride = check::kPayloadOff + kObjBytes + sizeof(uint64_t);
  static constexpr uint32_t kIters = 2;

  std::unique_ptr<ShmemTransport> MakeTransport() {
    checker_.SetConcurrent(true);
    return std::make_unique<ShmemTransport>(/*nodes=*/2, /*telemetry=*/nullptr, &checker_);
  }

  ProtocolChecker checker_;
  std::unique_ptr<ShmemTransport> transport_;
  MrHandle mr_;
};

constexpr uint64_t kOverflowBase = ~uint64_t{1};  // 2^64 - 2: even, one write to wrap

const std::vector<HarnessInfo> kHarnesses = {
    {"seqlock_1w1r", "SeqLock: 1 writer publishes, 1 single-attempt reader validates", 2,
     /*dfs_feasible=*/true, /*expected_steps=*/64},
    {"seqlock_1w2r", "SeqLock: 1 writer, 2 independent single-attempt readers", 3,
     /*dfs_feasible=*/true, /*expected_steps=*/96},
    {"seqlock_overflow", "SeqLock: publish across the 2^64 stamp wraparound", 2,
     /*dfs_feasible=*/true, /*expected_steps=*/64},
    {"shmem_publish", "ShmemTransport unguarded region: payload-then-flag publish", 2,
     /*dfs_feasible=*/true, /*expected_steps=*/128},
    {"rankctx_kill", "ShmemRankCtx: RequestKill observed from a parked Wait()", 2,
     /*dfs_feasible=*/true, /*expected_steps=*/96},
    {"dstorm_slot_ledger",
     "Full dstorm slot path: PostWrite vs gather with the protocol ledger as oracle", 2,
     /*dfs_feasible=*/false, /*expected_steps=*/2000},
};

}  // namespace

const std::vector<HarnessInfo>& HarnessList() { return kHarnesses; }

const HarnessInfo* FindHarnessInfo(const std::string& name) {
  for (const HarnessInfo& h : kHarnesses) {
    if (name == h.name) {
      return &h;
    }
  }
  return nullptr;
}

HarnessFactory MakeHarness(const std::string& name) {
  if (name == "seqlock_1w1r") {
    return [] { return std::make_unique<SeqlockHarness>(1, 0); };
  }
  if (name == "seqlock_1w2r") {
    return [] { return std::make_unique<SeqlockHarness>(2, 0); };
  }
  if (name == "seqlock_overflow") {
    return [] { return std::make_unique<SeqlockHarness>(1, kOverflowBase); };
  }
  if (name == "shmem_publish") {
    return [] { return std::make_unique<ShmemPublishHarness>(); };
  }
  if (name == "rankctx_kill") {
    return [] { return std::make_unique<RankKillHarness>(); };
  }
  if (name == "dstorm_slot_ledger") {
    return [] { return std::make_unique<DstormSlotHarness>(); };
  }
  return nullptr;
}

}  // namespace modelcheck
}  // namespace malt
