// Concurrent protocol checking (DESIGN.md §9): the checker validates the
// one-sided protocol while ranks run as real threads on the shmem transport.
// Planted violations must be caught with exact counts — an injected torn
// write, a forged barrier separation, an SSP bound break — and legal racy
// executions must produce zero false positives. The standalone tests below
// pin the concurrent-mode relaxations (in-flight consumes, the commit
// history ring, the windowed spurious-torn rule, lost-update accounting).
// Runs clean under TSan (tools/check.sh MALT_SANITIZE=thread stage).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "src/base/status.h"
#include "src/check/check.h"
#include "src/comm/graph.h"
#include "src/dstorm/dstorm.h"
#include "src/shmem/rank_ctx.h"
#include "src/shmem/shmem_transport.h"

namespace malt {
namespace {

using ApplyPhase = ProtocolChecker::ApplyPhase;
using ReadAction = ProtocolChecker::ReadAction;

std::span<const std::byte> AsBytes(const void* p, size_t n) {
  return {static_cast<const std::byte*>(p), n};
}

uint64_t LoadU64(const std::byte* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::vector<std::byte> Payload(size_t n, uint8_t seed) {
  std::vector<std::byte> p(n);
  for (size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::byte>(seed + i);
  }
  return p;
}

// A raw dstorm slot image: u64 seq_front | u32 iter | u32 bytes | payload |
// u64 seq_back. Mismatched stamps model a writer that skipped WriteEnd.
std::vector<std::byte> SlotImage(uint64_t seq_front, uint32_t iter,
                                 std::span<const std::byte> payload, uint64_t seq_back) {
  std::vector<std::byte> wire(check::kPayloadOff + payload.size() + sizeof(uint64_t));
  const auto bytes = static_cast<uint32_t>(payload.size());
  std::memcpy(wire.data() + check::kSeqFrontOff, &seq_front, sizeof(seq_front));
  std::memcpy(wire.data() + check::kIterOff, &iter, sizeof(iter));
  std::memcpy(wire.data() + check::kBytesOff, &bytes, sizeof(bytes));
  std::memcpy(wire.data() + check::kPayloadOff, payload.data(), payload.size());
  std::memcpy(wire.data() + check::kPayloadOff + payload.size(), &seq_back, sizeof(seq_back));
  return wire;
}

// One-queue shadow segment for the standalone concurrent-mode tests:
// stride AlignUp8(16 + 8 + 8) = 32, payload capacity 8, sender rank 1
// writing into rank 0's region under rkey 7.
constexpr uint32_t kRkey = 7;

ProtocolChecker::SegmentLayout OneSenderLayout(int depth) {
  ProtocolChecker::SegmentLayout layout;
  layout.slot_stride = 32;
  layout.obj_bytes = 8;
  layout.queue_depth = depth;
  layout.senders = {1};
  return layout;
}

// Threaded harness like test_shmem_dstorm.cc's ShmemCluster, with a
// concurrent-mode checker bound to the transport — dstorm registers segment
// layouts and drives the read hooks, the transport drives the apply hooks.
struct CheckedCluster {
  explicit CheckedCluster(int n, CheckLevel level = CheckLevel::kFull)
      : checker(level, n),
        transport(n, nullptr, (checker.SetConcurrent(true), &checker)),
        domain(transport, n) {}

  void Run(const std::function<void(int, Dstorm&, ShmemRankCtx&)>& body) {
    const int n = domain.size();
    std::vector<std::unique_ptr<ShmemRankCtx>> ctxs;
    for (int rank = 0; rank < n; ++rank) {
      ctxs.push_back(std::make_unique<ShmemRankCtx>(rank, transport.clock()));
    }
    std::vector<std::thread> threads;
    for (int rank = 0; rank < n; ++rank) {
      threads.emplace_back([this, rank, &body, &ctxs] {
        Dstorm& d = domain.node(rank);
        d.BindCtx(*ctxs[static_cast<size_t>(rank)]);
        try {
          body(rank, d, *ctxs[static_cast<size_t>(rank)]);
          d.FinishBarriers();
        } catch (const ProcessKilled&) {
          transport.MarkDead(rank);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  }

  ProtocolChecker checker;
  ShmemTransport transport;
  DstormDomain domain;
};

// --- planted violations on the real transport ------------------------------

// A rogue write that bypasses dstorm's Scatter posts a slot image with
// mismatched stamps (a writer that "forgot" WriteEnd). The sender-side apply
// hook must flag it exactly once — the second apply half carries the same
// image and stays silent — and the reader's torn-skip of the poisoned slot
// is legal, not a spurious skip.
TEST(CheckShmem, InjectedTornWriteCaughtExactlyOnce) {
  const int n = 2;
  CheckedCluster cluster(n);
  std::atomic<int> consumed{0};

  cluster.Run([&](int rank, Dstorm& d, ShmemRankCtx& ctx) {
    SegmentOptions opts;
    opts.obj_bytes = 8;
    opts.graph = AllToAllGraph(n);
    opts.queue_depth = 2;
    const SegmentId seg = d.CreateSegment(opts);
    const MrHandle victim{1, static_cast<uint32_t>(seg) + 2};

    if (rank == 0) {
      // Rank 1's queue 0 belongs to sender 0; slot 0 sits at offset 0.
      const auto rogue = SlotImage(1, 1, Payload(8, 0x5A), 0);  // front=1, back=0
      ASSERT_TRUE(cluster.transport.PostWrite(0, ctx.Now(), victim, 0, rogue).ok());
      ASSERT_TRUE(d.Barrier().ok());
    } else {
      ASSERT_TRUE(d.Barrier().ok());
      // Wait until the rogue image's front stamp is visible here, then
      // gather over the torn slot.
      ctx.Wait([&] {
        std::byte img[sizeof(uint64_t)];
        return cluster.transport.Read(victim, 0, img) && LoadU64(img) == 1;
      });
      consumed.fetch_add(d.Gather(seg, [](const RecvObject&) {}));
    }
  });

  EXPECT_EQ(consumed.load(), 0);  // the torn object never reached the app
  EXPECT_EQ(cluster.checker.CountFor(check::kSeqlockProtocol), 1)
      << cluster.checker.ReportJson();
  EXPECT_EQ(cluster.checker.violation_count(), 1) << cluster.checker.ReportJson();
}

// A reader that decides staleness from the header alone can misjudge a fresh
// slot. Planted: rank 0 reads only the 16-byte header of rank 1's committed,
// never-consumed object and reports it stale (seq_back = seq_front, the way
// Gather reports a header-only skip). That must fire exactly one
// seq_discipline; the honest Gather that follows consumes the object cleanly.
TEST(CheckShmem, HeaderOnlyStaleSkipOfFreshSeqCaughtExactlyOnce) {
  const int n = 2;
  CheckedCluster cluster(n);
  std::atomic<int> consumed{0};

  cluster.Run([&](int rank, Dstorm& d, ShmemRankCtx& ctx) {
    SegmentOptions opts;
    opts.obj_bytes = 8;
    opts.graph = RingGraph(n);
    opts.queue_depth = 2;
    const SegmentId seg = d.CreateSegment(opts);
    const MrHandle mine{0, static_cast<uint32_t>(seg) + 2};
    if (rank == 1) {
      const double v = 3.0;
      ASSERT_TRUE(d.Scatter(seg, AsBytes(&v, sizeof(v)), 1).ok());
      ASSERT_TRUE(d.Barrier().ok());
      return;
    }
    ASSERT_TRUE(d.Barrier().ok());
    // Rank 0's only queue belongs to sender 1; slot 0 holds seq 1.
    std::byte header[check::kPayloadOff];
    ctx.Wait([&] { return cluster.transport.Read(mine, 0, header); });
    const uint64_t seq = LoadU64(header + check::kSeqFrontOff);
    ASSERT_EQ(seq, 1u);
    cluster.checker.OnSlotRead(0, mine.rkey, /*queue_pos=*/0, /*slot=*/0, seq, seq, 1, {},
                               ReadAction::kSkippedStale, ctx.Now());
    consumed.fetch_add(d.Gather(seg, [](const RecvObject&) {}));
  });

  EXPECT_EQ(consumed.load(), 1);
  EXPECT_EQ(cluster.checker.CountFor(check::kSeqDiscipline), 1) << cluster.checker.ReportJson();
  EXPECT_EQ(cluster.checker.violation_count(), 1) << cluster.checker.ReportJson();
}

// Gather reads and consumes one slot at a time, so a sender can overwrite a
// slot Gather has already listed but not yet read. Planted: inside the
// consume callback for seq 1, seq 3 lands in slot 0 and a *shorter* seq 4 in
// seq 2's slot (posted as sender 0, with its stamp discipline). Seq 2's back
// stamp survives behind seq 4's trailer, so a reader that trusted the stale
// header plus that surviving stamp would hand torn bytes to the app. The
// one-read snapshot sees the new front stamp and skips the slot as torn; the
// next gather consumes seq 3 and 4 intact, and the checker stays silent.
TEST(CheckShmem, ShorterOverwriteInsideConsumeIsSkippedNotEscaped) {
  const int n = 2;
  constexpr size_t kObjBytes = 64;
  constexpr size_t kStride = check::kPayloadOff + kObjBytes + sizeof(uint64_t);  // 8-aligned
  CheckedCluster cluster(n);
  // Rank 1 posts as rank 0 below, so the two threads hand rank 0's send
  // state over explicitly: rank 0 stays off the transport from sender_idle
  // until reader_done.
  std::atomic<bool> sender_idle{false};
  std::atomic<bool> reader_done{false};
  std::vector<std::pair<uint32_t, std::vector<std::byte>>> first;
  std::vector<std::pair<uint32_t, std::vector<std::byte>>> second;
  int64_t torn_skipped = -1;

  cluster.Run([&](int rank, Dstorm& d, ShmemRankCtx& ctx) {
    SegmentOptions opts;
    opts.obj_bytes = kObjBytes;
    opts.graph = AllToAllGraph(n);
    opts.queue_depth = 2;
    const SegmentId seg = d.CreateSegment(opts);
    if (rank == 0) {
      for (uint32_t iter = 1; iter <= 2; ++iter) {
        ASSERT_TRUE(d.Scatter(seg, Payload(kObjBytes, static_cast<uint8_t>(iter)), iter).ok());
      }
      ASSERT_TRUE(d.Flush().ok());
      ASSERT_TRUE(d.Barrier().ok());
      sender_idle.store(true, std::memory_order_release);
      ctx.Wait([&] { return reader_done.load(std::memory_order_acquire); });
      return;
    }
    ASSERT_TRUE(d.Barrier().ok());
    ctx.Wait([&] { return sender_idle.load(std::memory_order_acquire); });
    // Rank 1's only queue belongs to sender 0: slot 0 at offset 0, slot 1 at
    // one stride; seq s lives in slot (s - 1) % 2.
    const MrHandle mine{1, static_cast<uint32_t>(seg) + 2};
    d.Gather(seg, [&](const RecvObject& obj) {
      first.emplace_back(obj.iter, std::vector<std::byte>(obj.bytes.begin(), obj.bytes.end()));
      if (obj.iter == 1) {
        const auto seq3 = SlotImage(3, 3, Payload(kObjBytes, 3), 3);
        const auto seq4 = SlotImage(4, 4, Payload(8, 4), 4);
        ASSERT_TRUE(cluster.transport.PostWrite(0, ctx.Now(), mine, 0, seq3).ok());
        ASSERT_TRUE(cluster.transport.PostWrite(0, ctx.Now(), mine, kStride, seq4).ok());
      }
    });
    d.Gather(seg, [&](const RecvObject& obj) {
      second.emplace_back(obj.iter, std::vector<std::byte>(obj.bytes.begin(), obj.bytes.end()));
    });
    torn_skipped =
        cluster.transport.telemetry().rank(1).metrics.CounterValue("dstorm.torn_slots_skipped");
    reader_done.store(true, std::memory_order_release);
  });

  ASSERT_EQ(first.size(), 1u);  // seq 2 was overwritten before its read
  EXPECT_EQ(first[0].first, 1u);
  EXPECT_EQ(first[0].second, Payload(kObjBytes, 1));
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].first, 3u);
  EXPECT_EQ(second[0].second, Payload(kObjBytes, 3));
  EXPECT_EQ(second[1].first, 4u);
  EXPECT_EQ(second[1].second, Payload(8, 4));
  EXPECT_EQ(torn_skipped, 1);
  EXPECT_EQ(cluster.checker.violation_count(), 0) << cluster.checker.ReportJson();
}

// Forging a delayed rank's barrier-arrival counter lets the other ranks sail
// through the barrier without it: every rank that exits must be flagged for
// breaking barrier separation against the rank that never entered.
TEST(CheckShmem, ForgedArrivalBreaksBarrierSeparation) {
  const int n = 3;
  CheckedCluster cluster(n);
  std::atomic<int> exited{0};

  cluster.Run([&](int rank, Dstorm& d, ShmemRankCtx& ctx) {
    if (rank == 2) {
      // The delayed rank: never enters the barrier while the others run it.
      ctx.Wait([&] { return exited.load() == 2; });
      return;
    }
    if (rank == 0) {
      // Forge rank 2's arrival at round 1 into both participants' counter
      // arrays (rkey 0, one u64 per rank).
      std::byte wire[sizeof(uint64_t)];
      const uint64_t round = 1;
      std::memcpy(wire, &round, sizeof(round));
      cluster.transport.Write(MrHandle{0, 0}, 2 * sizeof(uint64_t), wire);
      cluster.transport.Write(MrHandle{1, 0}, 2 * sizeof(uint64_t), wire);
    }
    ASSERT_TRUE(d.Barrier().ok());  // completes on the forged counter
    exited.fetch_add(1);
  });

  // Ranks 0 and 1 both exited round 1 while rank 2 had not entered it.
  EXPECT_EQ(cluster.checker.CountFor(check::kBarrierSeparation), 2)
      << cluster.checker.ReportJson();
  EXPECT_EQ(cluster.checker.violation_count(), 2) << cluster.checker.ReportJson();
}

// SSP certification from the concurrent ledger: the shadow's newest applied
// stamp per queue is the independent record of how far each in-neighbor got.
// A gate release within the bound is clean; one past it is flagged.
TEST(CheckShmem, SspBoundBreakFlagged) {
  const int n = 2;
  CheckedCluster cluster(n);
  cluster.checker.SetStalenessBound(2);
  SegmentId seg_id = -1;

  cluster.Run([&](int rank, Dstorm& d, ShmemRankCtx&) {
    SegmentOptions opts;
    opts.obj_bytes = 8;
    opts.graph = AllToAllGraph(n);
    opts.queue_depth = 2;
    const SegmentId seg = d.CreateSegment(opts);
    if (rank == 0) {
      const double v = 1.0;
      ASSERT_TRUE(d.Scatter(seg, AsBytes(&v, sizeof(v)), 1).ok());
      seg_id = seg;
    }
    ASSERT_TRUE(d.Barrier().ok());
  });
  ASSERT_EQ(cluster.checker.violation_count(), 0) << cluster.checker.ReportJson();

  // Rank 0's newest applied stamp on rank 1's shadow is iter 1.
  const std::vector<int> live = {0};
  cluster.checker.OnSspProceed(1, seg_id, 3, live, 0);  // 3 - 1 <= 2: legal
  EXPECT_EQ(cluster.checker.violation_count(), 0) << cluster.checker.ReportJson();
  cluster.checker.OnSspProceed(1, seg_id, 10, live, 0);  // 10 - 1 > 2: stale
  EXPECT_EQ(cluster.checker.CountFor(check::kSspStaleness), 1)
      << cluster.checker.ReportJson();
  EXPECT_EQ(cluster.checker.violation_count(), 1) << cluster.checker.ReportJson();
}

// Zero false positives under real contention: 8 ranks racing scatter/gather
// rounds with overwrite-on-full laps, torn in-flight reads, and periodic
// barriers. Every relaxed rule gets exercised; none may fire.
TEST(CheckShmem, EightRankStressHasNoFalsePositives) {
  const int n = 8;
  const int rounds = 30;
  const size_t dim = 16;
  CheckedCluster cluster(n);

  cluster.Run([&](int rank, Dstorm& d, ShmemRankCtx&) {
    SegmentOptions opts;
    opts.obj_bytes = dim * sizeof(float);
    opts.graph = AllToAllGraph(n);
    opts.queue_depth = 2;
    const SegmentId seg = d.CreateSegment(opts);

    std::vector<float> buf(dim);
    for (int round = 1; round <= rounds; ++round) {
      for (size_t i = 0; i < dim; ++i) {
        buf[i] = static_cast<float>(rank * 1000 + round);
      }
      ASSERT_TRUE(
          d.Scatter(seg, AsBytes(buf.data(), dim * sizeof(float)),
                    static_cast<uint32_t>(round))
              .ok());
      d.Gather(seg, [](const RecvObject&) {});
      if (round % 8 == 0) {
        ASSERT_TRUE(d.Barrier().ok());
      }
    }
    ASSERT_TRUE(d.Barrier().ok());
  });

  EXPECT_GT(cluster.checker.events_checked(), 0);
  EXPECT_EQ(cluster.checker.violation_count(), 0) << cluster.checker.ReportJson();
}

// --- concurrent-mode relaxations, pinned standalone ------------------------

// A reader may validate a store between the sender's WriteEnd and its
// completion hook: consuming the in-flight write is legal (and hash-checked).
TEST(CheckConcurrent, InFlightConsumeIsLegal) {
  ProtocolChecker checker(CheckLevel::kFull, 2);
  checker.SetConcurrent(true);
  checker.OnSegmentCreate(0, kRkey, 0, OneSenderLayout(2));
  const auto payload = Payload(8, 0x11);
  const auto wire = SlotImage(1, 1, payload, 1);

  checker.OnRemoteWriteApply(1, 0, kRkey, 0, wire, ApplyPhase::kFirstHalf, 10);
  checker.OnSlotRead(0, kRkey, 0, 0, 1, 1, 1, payload, ReadAction::kConsumed, 15);
  checker.OnRemoteWriteApply(1, 0, kRkey, 0, wire, ApplyPhase::kSecondHalf, 20);

  EXPECT_EQ(checker.violation_count(), 0) << checker.ReportJson();
}

// A consume matching a recent generation from the slot's history ring is
// legal (the reader snapshotted just before the sender lapped the slot) —
// but its payload must still hash-match the posted bytes.
TEST(CheckConcurrent, HistoryRingAcceptsRecentGenerationAndChecksBytes) {
  ProtocolChecker checker(CheckLevel::kFull, 2);
  checker.SetConcurrent(true);
  checker.OnSegmentCreate(0, kRkey, 0, OneSenderLayout(1));
  const auto old_payload = Payload(8, 0x22);
  const auto new_payload = Payload(8, 0x33);
  checker.OnRemoteWriteApply(1, 0, kRkey, 0, SlotImage(1, 1, old_payload, 1),
                             ApplyPhase::kFull, 10);
  checker.OnRemoteWriteApply(1, 0, kRkey, 0, SlotImage(2, 2, new_payload, 2),
                             ApplyPhase::kFull, 20);

  // Snapshot of the lapped generation, byte-exact: clean.
  checker.OnSlotRead(0, kRkey, 0, 0, 1, 1, 1, old_payload, ReadAction::kConsumed, 25);
  EXPECT_EQ(checker.violation_count(), 0) << checker.ReportJson();

  // Same generation with foreign bytes: torn bytes escaped the stamps.
  ProtocolChecker strict(CheckLevel::kFull, 2);
  strict.SetConcurrent(true);
  strict.OnSegmentCreate(0, kRkey, 0, OneSenderLayout(1));
  strict.OnRemoteWriteApply(1, 0, kRkey, 0, SlotImage(1, 1, old_payload, 1),
                            ApplyPhase::kFull, 10);
  strict.OnRemoteWriteApply(1, 0, kRkey, 0, SlotImage(2, 2, new_payload, 2),
                            ApplyPhase::kFull, 20);
  strict.OnSlotRead(0, kRkey, 0, 0, 1, 1, 1, new_payload, ReadAction::kConsumed, 25);
  EXPECT_EQ(strict.CountFor(check::kTornReadEscape), 1) << strict.ReportJson();
}

// A consumed seq newer than anything the ledger ever saw begin is still a
// phantom in concurrent mode.
TEST(CheckConcurrent, PhantomReadStillFlagged) {
  ProtocolChecker checker(CheckLevel::kFull, 2);
  checker.SetConcurrent(true);
  checker.OnSegmentCreate(0, kRkey, 0, OneSenderLayout(2));
  const auto payload = Payload(8, 0x44);
  checker.OnRemoteWriteApply(1, 0, kRkey, 0, SlotImage(1, 1, payload, 1),
                             ApplyPhase::kFull, 10);

  checker.OnSlotRead(0, kRkey, 0, 1, 4, 4, 4, payload, ReadAction::kConsumed, 20);
  EXPECT_EQ(checker.CountFor(check::kPhantomRead), 1) << checker.ReportJson();
  EXPECT_EQ(checker.violation_count(), 1) << checker.ReportJson();
}

// The windowed spurious-torn rule: a torn skip racing a write that began
// since the reader's last visit is legal; a torn skip with no write begun in
// the window (nothing could have been in flight) is spurious.
TEST(CheckConcurrent, SpuriousTornSkipIsWindowed) {
  ProtocolChecker checker(CheckLevel::kFull, 2);
  checker.SetConcurrent(true);
  checker.OnSegmentCreate(0, kRkey, 0, OneSenderLayout(2));
  const auto payload = Payload(8, 0x55);
  checker.OnRemoteWriteApply(1, 0, kRkey, 0, SlotImage(1, 1, payload, 1),
                             ApplyPhase::kFull, 10);

  // First visit: the write began after the reader's (never-happened) last
  // visit — a racy torn observation is plausible. Legal.
  checker.OnSlotRead(0, kRkey, 0, 0, 1, 0, 1, {}, ReadAction::kSkippedTorn, 20);
  EXPECT_EQ(checker.violation_count(), 0) << checker.ReportJson();

  // Second visit with no intervening write: nothing was in flight at any
  // point the reader could have observed. Spurious.
  checker.OnSlotRead(0, kRkey, 0, 0, 1, 0, 1, {}, ReadAction::kSkippedTorn, 30);
  EXPECT_EQ(checker.CountFor(check::kSpuriousTornSkip), 1) << checker.ReportJson();
}

// Lost-update certification: a committed, never-consumed generation the
// reader demonstrably visited and then stepped over — with no queue-depth
// lap to excuse the drop — is a lost update.
TEST(CheckConcurrent, SteppedOverCommittedUpdateIsLost) {
  ProtocolChecker checker(CheckLevel::kFull, 2);
  checker.SetConcurrent(true);
  checker.OnSegmentCreate(0, kRkey, 0, OneSenderLayout(4));
  const auto payload = Payload(8, 0x66);
  checker.OnRemoteWriteApply(1, 0, kRkey, 0, SlotImage(1, 1, payload, 1),
                             ApplyPhase::kFull, 10);
  checker.OnRemoteWriteApply(1, 0, kRkey, 32, SlotImage(2, 1, payload, 2),
                             ApplyPhase::kFull, 20);

  // The buggy reader visits seq 1 and misjudges it stale (flagged as a
  // discipline break), then consumes seq 2 over the gap: seq 1 sits
  // committed and unconsumed with no lap — a lost update.
  checker.OnSlotRead(0, kRkey, 0, 0, 1, 1, 1, {}, ReadAction::kSkippedStale, 30);
  EXPECT_EQ(checker.CountFor(check::kSeqDiscipline), 1) << checker.ReportJson();
  checker.OnSlotRead(0, kRkey, 0, 1, 2, 2, 1, payload, ReadAction::kConsumed, 40);
  EXPECT_EQ(checker.CountFor(check::kLostUpdate), 1) << checker.ReportJson();
  EXPECT_EQ(checker.violation_count(), 2) << checker.ReportJson();
}

// Overwrite-on-full drops are accounted but not violations: a sender lapping
// a slow reader is the protocol's documented drop mode, and the gap consume
// that follows is excused by the lap.
TEST(CheckConcurrent, QueueDepthLapIsAccountedNotFlagged) {
  ProtocolChecker checker(CheckLevel::kFull, 2);
  checker.SetConcurrent(true);
  checker.OnSegmentCreate(0, kRkey, 0, OneSenderLayout(2));
  const auto payload = Payload(8, 0x77);
  checker.OnRemoteWriteApply(1, 0, kRkey, 0, SlotImage(1, 1, payload, 1),
                             ApplyPhase::kFull, 10);
  checker.OnRemoteWriteApply(1, 0, kRkey, 32, SlotImage(2, 1, payload, 2),
                             ApplyPhase::kFull, 20);
  checker.OnRemoteWriteApply(1, 0, kRkey, 0, SlotImage(3, 2, payload, 3),
                             ApplyPhase::kFull, 30);  // laps unconsumed seq 1

  EXPECT_EQ(checker.lost_updates(), 1);  // the drop is on the books
  checker.OnSlotRead(0, kRkey, 0, 0, 3, 3, 2, payload, ReadAction::kConsumed, 40);
  EXPECT_EQ(checker.violation_count(), 0) << checker.ReportJson();
}

}  // namespace
}  // namespace malt
