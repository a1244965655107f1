// Protocol-checker validation (DESIGN.md §9): every planted fault must be
// reported as exactly the expected violation kind, and clean protocol
// executions — including ones where torn writes genuinely occur and are
// correctly skipped — must produce zero violations. True-positive and
// zero-false-positive coverage for src/check/check.{h,cc}.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include <span>
#include <string>
#include <vector>

#include "src/check/check.h"
#include "src/comm/graph.h"
#include "tests/sim_cluster.h"

namespace malt {
namespace {

using ApplyPhase = ProtocolChecker::ApplyPhase;
using ReadAction = ProtocolChecker::ReadAction;
using SegmentLayout = ProtocolChecker::SegmentLayout;

// One wire-format slot image: u64 seq_front | u32 iter | u32 bytes |
// payload | u64 seq_back. Mismatched stamps model a writer that skipped
// WriteEnd (the "no-seqlock" writer).
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

std::vector<std::byte> Payload(size_t n, uint8_t fill) {
  return std::vector<std::byte>(n, static_cast<std::byte>(fill));
}

// A one-queue shadow segment on node 0 fed by rank 1: obj_bytes 8, depth 2,
// stride AlignUp8(16 + 8 + 8) = 32. Registered under an arbitrary rkey.
constexpr uint32_t kRkey = 7;
constexpr int kSegId = 0;
constexpr size_t kObjBytes = 8;

SegmentLayout OneSenderLayout() {
  SegmentLayout layout;
  layout.slot_stride = 32;
  layout.obj_bytes = kObjBytes;
  layout.queue_depth = 2;
  layout.senders = {1};
  return layout;
}

// --- level plumbing -----------------------------------------------------------

TEST(CheckLevel, ParseRoundTrips) {
  EXPECT_EQ(*ParseCheckLevel("off"), CheckLevel::kOff);
  EXPECT_EQ(*ParseCheckLevel("cheap"), CheckLevel::kCheap);
  EXPECT_EQ(*ParseCheckLevel("full"), CheckLevel::kFull);
  EXPECT_FALSE(ParseCheckLevel("loud").ok());
  EXPECT_EQ(ToString(CheckLevel::kFull), "full");
}

TEST(CheckLevel, OffLevelIsInert) {
  ProtocolChecker checker(CheckLevel::kOff, 2);
  checker.OnSegmentCreate(0, kRkey, kSegId, OneSenderLayout());
  const auto payload = Payload(kObjBytes, 0xAA);
  const auto wire = SlotImage(1, 1, payload, 0);  // torn stamps: would violate
  checker.OnRemoteWriteApply(1, 0, kRkey, 0, wire, ApplyPhase::kFull, 10);
  checker.OnBarrierEnter(0, 1, 20);
  EXPECT_FALSE(checker.enabled());
  EXPECT_EQ(checker.events_checked(), 0);
  EXPECT_EQ(checker.violation_count(), 0);
}

// --- clean paths must be violation-free ---------------------------------------

TEST(CheckLedger, CleanSingleWriterRoundTrip) {
  ProtocolChecker checker(CheckLevel::kFull, 2);
  checker.OnSegmentCreate(0, kRkey, kSegId, OneSenderLayout());
  // seq s lands in slot (s-1) % depth; consume each write before the writer
  // laps it, exactly as dstorm's round-robin protocol behaves.
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    const auto payload = Payload(kObjBytes, static_cast<uint8_t>(seq));
    const auto wire = SlotImage(seq, static_cast<uint32_t>(seq), payload, seq);
    const size_t slot = (seq - 1) % 2;
    checker.OnRemoteWriteApply(1, 0, kRkey, slot * 32, wire, ApplyPhase::kFull,
                               static_cast<SimTime>(seq * 10));
    checker.OnSlotRead(0, kRkey, 0, static_cast<int>(slot), seq, seq,
                       static_cast<uint32_t>(seq), payload, ReadAction::kConsumed,
                       static_cast<SimTime>(seq * 10 + 5));
  }
  // Re-scanning an already-consumed slot as stale is the normal gather path.
  checker.OnSlotRead(0, kRkey, 0, 1, 4, 4, 4, {}, ReadAction::kSkippedStale, 60);
  EXPECT_GT(checker.events_checked(), 0);
  EXPECT_EQ(checker.violation_count(), 0) << checker.ReportJson();
}

TEST(CheckLedger, SplitApplyCompletedInOrderIsClean) {
  ProtocolChecker checker(CheckLevel::kFull, 2);
  checker.OnSegmentCreate(0, kRkey, kSegId, OneSenderLayout());
  const auto payload = Payload(kObjBytes, 0x5A);
  const auto wire = SlotImage(1, 1, payload, 1);
  checker.OnRemoteWriteApply(1, 0, kRkey, 0, wire, ApplyPhase::kFirstHalf, 10);
  checker.OnRemoteWriteApply(1, 0, kRkey, 0, wire, ApplyPhase::kSecondHalf, 14);
  checker.OnSlotRead(0, kRkey, 0, 0, 1, 1, 1, payload, ReadAction::kConsumed, 20);
  EXPECT_EQ(checker.violation_count(), 0) << checker.ReportJson();
}

// --- planted faults: each must be caught as exactly its kind ------------------

TEST(CheckLedger, ConsumeDuringSplitApplyIsTornEscape) {
  // The ISSUE's planted fault: header+payload land (first half) but the
  // trailer has not, and the reader consumes anyway.
  ProtocolChecker checker(CheckLevel::kCheap, 2);
  checker.OnSegmentCreate(0, kRkey, kSegId, OneSenderLayout());
  const auto payload = Payload(kObjBytes, 0x11);
  const auto wire = SlotImage(1, 1, payload, 1);
  checker.OnRemoteWriteApply(1, 0, kRkey, 0, wire, ApplyPhase::kFirstHalf, 10);
  checker.OnSlotRead(0, kRkey, 0, 0, 1, 1, 1, payload, ReadAction::kConsumed, 12);
  EXPECT_EQ(checker.CountFor(check::kTornReadEscape), 1);
  EXPECT_EQ(checker.violation_count(), 1) << checker.ReportJson();
}

TEST(CheckLedger, StragglerSecondHalfLeavesSlotTorn) {
  // slot 0 holds committed seq 1; seq 3 begins (first half), then a straggling
  // second half of seq 1 arrives. The slot is a mix of two writes: consuming
  // it must be flagged even though the reader saw matching stamps.
  ProtocolChecker checker(CheckLevel::kCheap, 2);
  checker.OnSegmentCreate(0, kRkey, kSegId, OneSenderLayout());
  const auto old_payload = Payload(kObjBytes, 0x01);
  const auto new_payload = Payload(kObjBytes, 0x03);
  const auto old_wire = SlotImage(1, 1, old_payload, 1);
  const auto new_wire = SlotImage(3, 2, new_payload, 3);
  checker.OnRemoteWriteApply(1, 0, kRkey, 0, old_wire, ApplyPhase::kFull, 10);
  checker.OnRemoteWriteApply(1, 0, kRkey, 32, SlotImage(2, 1, old_payload, 2),
                             ApplyPhase::kFull, 20);
  checker.OnRemoteWriteApply(1, 0, kRkey, 0, new_wire, ApplyPhase::kFirstHalf, 30);
  checker.OnRemoteWriteApply(1, 0, kRkey, 0, old_wire, ApplyPhase::kSecondHalf, 31);
  checker.OnSlotRead(0, kRkey, 0, 0, 3, 3, 2, new_payload, ReadAction::kConsumed, 40);
  EXPECT_EQ(checker.CountFor(check::kTornReadEscape), 1);
  EXPECT_EQ(checker.violation_count(), 1) << checker.ReportJson();
}

TEST(CheckLedger, FullLevelHashCatchesSilentCorruption) {
  // Stamps match and the seq is right, but the bytes handed to the app are
  // not the committed write. Only the full level can see this.
  const auto committed = Payload(kObjBytes, 0xAA);
  const auto corrupted = Payload(kObjBytes, 0xBB);
  const auto wire = SlotImage(1, 1, committed, 1);

  ProtocolChecker full(CheckLevel::kFull, 2);
  full.OnSegmentCreate(0, kRkey, kSegId, OneSenderLayout());
  full.OnRemoteWriteApply(1, 0, kRkey, 0, wire, ApplyPhase::kFull, 10);
  full.OnSlotRead(0, kRkey, 0, 0, 1, 1, 1, corrupted, ReadAction::kConsumed, 20);
  EXPECT_EQ(full.CountFor(check::kTornReadEscape), 1);
  EXPECT_EQ(full.violation_count(), 1);

  ProtocolChecker cheap(CheckLevel::kCheap, 2);
  cheap.OnSegmentCreate(0, kRkey, kSegId, OneSenderLayout());
  cheap.OnRemoteWriteApply(1, 0, kRkey, 0, wire, ApplyPhase::kFull, 10);
  cheap.OnSlotRead(0, kRkey, 0, 0, 1, 1, 1, corrupted, ReadAction::kConsumed, 20);
  EXPECT_EQ(cheap.violation_count(), 0) << "cheap level does not hash payloads";
}

TEST(CheckLedger, DuplicateConsumeFlagged) {
  ProtocolChecker checker(CheckLevel::kCheap, 2);
  checker.OnSegmentCreate(0, kRkey, kSegId, OneSenderLayout());
  const auto payload = Payload(kObjBytes, 0x22);
  checker.OnRemoteWriteApply(1, 0, kRkey, 0, SlotImage(1, 1, payload, 1),
                             ApplyPhase::kFull, 10);
  checker.OnSlotRead(0, kRkey, 0, 0, 1, 1, 1, payload, ReadAction::kConsumed, 20);
  checker.OnSlotRead(0, kRkey, 0, 0, 1, 1, 1, payload, ReadAction::kConsumed, 30);
  EXPECT_EQ(checker.CountFor(check::kDuplicateConsume), 1);
  EXPECT_EQ(checker.violation_count(), 1) << checker.ReportJson();
}

TEST(CheckLedger, PhantomReadFlagged) {
  // The reader claims a seq the ledger never saw land in this slot.
  ProtocolChecker checker(CheckLevel::kCheap, 2);
  checker.OnSegmentCreate(0, kRkey, kSegId, OneSenderLayout());
  const auto payload = Payload(kObjBytes, 0x33);
  checker.OnRemoteWriteApply(1, 0, kRkey, 0, SlotImage(1, 1, payload, 1),
                             ApplyPhase::kFull, 10);
  checker.OnSlotRead(0, kRkey, 0, 0, 7, 7, 1, payload, ReadAction::kConsumed, 20);
  EXPECT_EQ(checker.CountFor(check::kPhantomRead), 1);
  EXPECT_EQ(checker.violation_count(), 1) << checker.ReportJson();
}

TEST(CheckLedger, WriteSideIterRegressionFlagged) {
  ProtocolChecker checker(CheckLevel::kCheap, 2);
  checker.OnSegmentCreate(0, kRkey, kSegId, OneSenderLayout());
  const auto payload = Payload(kObjBytes, 0x44);
  checker.OnRemoteWriteApply(1, 0, kRkey, 0, SlotImage(1, 5, payload, 1),
                             ApplyPhase::kFull, 10);
  checker.OnRemoteWriteApply(1, 0, kRkey, 32, SlotImage(2, 3, payload, 2),
                             ApplyPhase::kFull, 20);
  EXPECT_EQ(checker.CountFor(check::kIterRegression), 1);
  EXPECT_EQ(checker.violation_count(), 1) << checker.ReportJson();
}

TEST(CheckLedger, SeqGapAndSlotMismatchAreDisciplineViolations) {
  ProtocolChecker checker(CheckLevel::kCheap, 2);
  checker.OnSegmentCreate(0, kRkey, kSegId, OneSenderLayout());
  const auto payload = Payload(kObjBytes, 0x55);
  checker.OnRemoteWriteApply(1, 0, kRkey, 0, SlotImage(1, 1, payload, 1),
                             ApplyPhase::kFull, 10);
  // seq jumps 1 -> 5 AND seq 5 belongs in slot (5-1)%2 = 0, not slot 1.
  checker.OnRemoteWriteApply(1, 0, kRkey, 32, SlotImage(5, 2, payload, 5),
                             ApplyPhase::kFull, 20);
  EXPECT_EQ(checker.CountFor(check::kSeqDiscipline), 2);
  EXPECT_EQ(checker.violation_count(), 2) << checker.ReportJson();
}

TEST(CheckLedger, ForeignWriterMisalignmentAndCorruptHeaders) {
  SegmentLayout layout;
  layout.slot_stride = 32;
  layout.obj_bytes = kObjBytes;
  layout.queue_depth = 2;
  layout.senders = {1, 2};  // queue 0 belongs to rank 1, queue 1 to rank 2
  ProtocolChecker checker(CheckLevel::kCheap, 3);
  checker.OnSegmentCreate(0, kRkey, kSegId, layout);
  const auto payload = Payload(kObjBytes, 0x66);

  // Rank 2 writes (valid image) into rank 1's queue.
  checker.OnRemoteWriteApply(2, 0, kRkey, 0, SlotImage(1, 1, payload, 1),
                             ApplyPhase::kFull, 10);
  EXPECT_EQ(checker.CountFor(check::kWrongQueue), 1);

  // A write that is not on a slot boundary.
  checker.OnRemoteWriteApply(1, 0, kRkey, 4, SlotImage(1, 1, payload, 1),
                             ApplyPhase::kFull, 20);
  EXPECT_EQ(checker.CountFor(check::kSlotMisaligned), 1);

  // Too short to be a slot image, and a byte count exceeding obj_bytes.
  checker.OnRemoteWriteApply(1, 0, kRkey, 32, Payload(8, 0), ApplyPhase::kFull, 30);
  checker.OnRemoteWriteApply(1, 0, kRkey, 32, SlotImage(1, 1, Payload(12, 0), 1),
                             ApplyPhase::kFull, 40);
  EXPECT_EQ(checker.CountFor(check::kHeaderCorrupt), 2);
  EXPECT_EQ(checker.violation_count(), 4) << checker.ReportJson();
}

TEST(CheckLedger, ReaderMisjudgmentsFlagged) {
  ProtocolChecker checker(CheckLevel::kCheap, 2);
  checker.OnSegmentCreate(0, kRkey, kSegId, OneSenderLayout());
  const auto payload = Payload(kObjBytes, 0x77);
  checker.OnRemoteWriteApply(1, 0, kRkey, 0, SlotImage(1, 1, payload, 1),
                             ApplyPhase::kFull, 10);
  // The ledger says seq 1 is cleanly committed: skipping it as torn means the
  // reader's stamp scan is broken.
  checker.OnSlotRead(0, kRkey, 0, 0, 1, 0, 1, {}, ReadAction::kSkippedTorn, 20);
  EXPECT_EQ(checker.CountFor(check::kSpuriousTornSkip), 1);
  // Skipping a never-consumed seq as stale loses an update silently.
  checker.OnSlotRead(0, kRkey, 0, 0, 1, 1, 1, {}, ReadAction::kSkippedStale, 30);
  EXPECT_EQ(checker.CountFor(check::kSeqDiscipline), 1);
  EXPECT_EQ(checker.violation_count(), 2) << checker.ReportJson();
}

// --- barrier / staleness certification ----------------------------------------

TEST(CheckBarrier, SeparationViolationAndVectorClockJoin) {
  ProtocolChecker checker(CheckLevel::kCheap, 3);
  checker.OnBarrierEnter(0, 1, 10);
  checker.OnBarrierEnter(1, 1, 11);
  const std::vector<int> members = {0, 1, 2};
  // Rank 2 never entered round 1: exiting past it breaks barrier separation.
  checker.OnBarrierExit(0, 1, members, 20);
  EXPECT_EQ(checker.CountFor(check::kBarrierSeparation), 1);
  // Once rank 2 is known-finished its counter is "infinity" — exempt.
  checker.OnRankFinished(2);
  checker.OnBarrierExit(1, 1, members, 21);
  EXPECT_EQ(checker.CountFor(check::kBarrierSeparation), 1);
  // The exit joined rank 0's clock into rank 1's.
  EXPECT_EQ(checker.VectorClock(1)[0], 1u);
  EXPECT_EQ(checker.violation_count(), 1) << checker.ReportJson();
}

TEST(CheckBarrier, RoundRegressionFlaggedButResumeIsNot) {
  ProtocolChecker checker(CheckLevel::kCheap, 2);
  checker.OnBarrierEnter(0, 5, 10);
  checker.OnBarrierEnter(0, 5, 11);  // BarrierResume re-arms the same round
  EXPECT_EQ(checker.violation_count(), 0);
  checker.OnBarrierEnter(0, 4, 12);
  EXPECT_EQ(checker.CountFor(check::kBarrierRegression), 1);
  EXPECT_EQ(checker.violation_count(), 1) << checker.ReportJson();
}

TEST(CheckSsp, StalenessBoundCertified) {
  ProtocolChecker checker(CheckLevel::kCheap, 2);
  checker.SetStalenessBound(2);
  checker.OnSegmentCreate(0, kRkey, kSegId, OneSenderLayout());
  const auto payload = Payload(kObjBytes, 0x88);
  checker.OnRemoteWriteApply(1, 0, kRkey, 0, SlotImage(1, 1, payload, 1),
                             ApplyPhase::kFull, 10);
  const std::vector<int> live = {1};
  checker.OnSspProceed(0, kSegId, 3, live, 20);  // 3 - 2 <= 1: within bound
  EXPECT_EQ(checker.violation_count(), 0);
  checker.OnSspProceed(0, kSegId, 4, live, 30);  // 4 - 2 > 1: bound broken
  EXPECT_EQ(checker.CountFor(check::kSspStaleness), 1);
  // No live in-neighbors: the gate is vacuously open at any iter.
  checker.OnSspProceed(0, kSegId, 100, {}, 40);
  EXPECT_EQ(checker.violation_count(), 1) << checker.ReportJson();
}

TEST(CheckVol, ScatterStampRegressionFlagged) {
  ProtocolChecker checker(CheckLevel::kCheap, 1);
  checker.OnVolScatter(0, kSegId, 5, 10);
  checker.OnVolScatter(0, kSegId, 5, 11);  // repeat of the same iter is fine
  checker.OnVolScatter(0, kSegId, 4, 12);
  EXPECT_EQ(checker.CountFor(check::kIterRegression), 1);
  checker.OnVolScatter(0, kSegId, 9, 13);
  EXPECT_EQ(checker.violation_count(), 1) << checker.ReportJson();
}

// --- SeqLock call discipline --------------------------------------------------

TEST(CheckSeqLock, DisciplineAcceptsProtocolAndRejectsAbuse) {
  ProtocolChecker checker(CheckLevel::kCheap, 1);
  SeqLockDiscipline lock(&checker, 0);
  lock.OnWriteBegin(1, 10);
  lock.OnWriteEnd(2, 11);
  lock.OnReadValidate(2, 2, /*accepted=*/true, 12);
  lock.OnReadValidate(1, 2, /*accepted=*/false, 13);  // conservative reject: fine
  EXPECT_EQ(checker.violation_count(), 0);

  lock.OnWriteBegin(3, 20);
  lock.OnWriteBegin(4, 21);  // begin while a write is open: even->odd broken
  EXPECT_EQ(checker.CountFor(check::kSeqlockProtocol), 1);
  lock.OnWriteEnd(5, 22);  // 4 is even, so this "end" is also out of protocol
  EXPECT_EQ(checker.CountFor(check::kSeqlockProtocol), 2);
  lock.OnReadValidate(5, 5, /*accepted=*/true, 23);  // accepted an odd sequence
  lock.OnReadValidate(2, 4, /*accepted=*/true, 24);  // accepted begin != end
  EXPECT_EQ(checker.CountFor(check::kSeqlockProtocol), 4);
  EXPECT_EQ(checker.violation_count(), 4) << checker.ReportJson();
}

// --- report shape -------------------------------------------------------------

TEST(CheckReport, JsonCarriesKindsAndSamples) {
  ProtocolChecker checker(CheckLevel::kFull, 2);
  checker.ReportViolation(check::kTornReadEscape, 1, 42, "planted");
  const std::string json = checker.ReportJson();
  EXPECT_NE(json.find("\"level\":\"full\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"violations\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"torn_read_escape\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"detail\":\"planted\""), std::string::npos) << json;

  const std::string path = ::testing::TempDir() + "check_report.json";
  ASSERT_TRUE(checker.WriteReportJson(path).ok());
}

// --- end-to-end: a rogue writer on the real stack -----------------------------

TEST(CheckIntegration, RogueNoSeqlockWriterCaughtOnRealFabric) {
  // Rank 0 runs the real protocol once, then posts a raw slot image with
  // mismatched stamps (a writer with no WriteEnd) straight through the
  // fabric into rank 1's receive region. Expect exactly one seqlock_protocol
  // violation at apply time; rank 1's gather must skip the torn slot without
  // consuming it (and without any spurious-skip or escape reports).
  ProtocolChecker checker(CheckLevel::kFull, 2);
  SimCluster cluster(2, FastNet(), &checker);
  Fabric& fabric = cluster.fabric;
  int first_gather = -1;
  int second_gather = -1;

  cluster.Run([&](int rank, Dstorm& d, Process& p) {
    SegmentOptions opts;
    opts.obj_bytes = 8;
    opts.graph = RingGraph(2);
    opts.queue_depth = 2;
    const SegmentId seg = d.CreateSegment(opts);
    if (rank == 0) {
      const auto payload = Payload(8, 0x42);
      ASSERT_TRUE(d.Scatter(seg, payload, 1).ok());
      ASSERT_TRUE(d.Flush().ok());
      ASSERT_TRUE(d.Barrier().ok());  // B1: rank 1 gathers the clean object
      ASSERT_TRUE(d.Barrier().ok());  // B2: gather done
      // Segment receive regions are registered after the barrier counters
      // (rkey 0) and probe scratch (rkey 1), so segment `seg` lives at
      // rkey seg + 2 on every node — the same computation a sender does.
      MrHandle victim;
      victim.node = 1;
      victim.rkey = static_cast<uint32_t>(seg) + 2;
      const auto rogue = SlotImage(5, 2, Payload(8, 0x66), 4);
      p.WaitUntil([&] { return fabric.HasSendRoom(0); });
      ASSERT_TRUE(fabric.PostWrite(0, p.now(), victim, 0, rogue).ok());
      ASSERT_TRUE(d.Flush().ok());    // completion implies the write applied
      ASSERT_TRUE(d.Barrier().ok());  // B3: rank 1 may gather again
    } else {
      ASSERT_TRUE(d.Barrier().ok());  // B1
      first_gather = d.Gather(seg, [](const RecvObject&) {});
      ASSERT_TRUE(d.Barrier().ok());  // B2
      ASSERT_TRUE(d.Barrier().ok());  // B3
      second_gather = d.Gather(seg, [](const RecvObject&) {});
    }
  });

  EXPECT_EQ(first_gather, 1);
  EXPECT_EQ(second_gather, 0) << "the torn slot must not be consumed";
  EXPECT_EQ(checker.CountFor(check::kSeqlockProtocol), 1);
  EXPECT_EQ(checker.violation_count(), 1) << checker.ReportJson();
  EXPECT_EQ(checker.violations()[0].rank, 1);  // observed on the victim node
  // The reader did hit the rogue slot and (correctly) skipped it.
  EXPECT_GE(fabric.telemetry().rank(1).metrics.GetCounter("dstorm.torn_slots_skipped")->value(),
            1);
  EXPECT_EQ(checker.CountFor(check::kSpuriousTornSkip), 0);
  EXPECT_EQ(checker.CountFor(check::kTornReadEscape), 0);
}

TEST(CheckIntegration, TornWriteSimulationIsCleanUnderFullCheck) {
  // torn_writes=true makes the fabric genuinely apply writes in two halves,
  // so readers race real in-flight writes. With serialization >= latency the
  // protocol holds: gathers skip every torn slot, and the full-level checker
  // (payload hashes on) must find nothing — the zero-false-positive property
  // on the hardest clean path.
  ProtocolChecker checker(CheckLevel::kFull, 3);
  FabricOptions fopts = FastNet();  // 1 us latency; 4 KB serializes in ~4 us
  fopts.torn_writes = true;
  SimCluster cluster(3, fopts, &checker);
  constexpr size_t kBytes = 4096;

  cluster.Run([&](int rank, Dstorm& d, Process& p) {
    SegmentOptions opts;
    opts.obj_bytes = kBytes;
    opts.graph = AllToAllGraph(3);
    opts.queue_depth = 2;
    const SegmentId seg = d.CreateSegment(opts);
    if (rank != 0) {
      std::vector<std::byte> payload(kBytes);
      for (uint32_t iter = 1; iter <= 200; ++iter) {
        std::memset(payload.data(), static_cast<int>(iter & 0xFF), payload.size());
        (void)d.Scatter(seg, payload, iter);
        p.Advance(5000);
      }
      (void)d.Flush();
      return;
    }
    for (int poll = 0; poll < 300; ++poll) {
      p.Advance(997);  // polls inside the senders' ~4 us torn windows
      d.Gather(seg, [](const RecvObject&) {});
    }
  });

  // The torn path was actually exercised...
  EXPECT_GE(cluster.fabric.telemetry().rank(0).metrics.GetCounter("dstorm.torn_slots_skipped")->value(),
            1);
  // ...and the checker certified every read decision against its ledger.
  EXPECT_GT(checker.events_checked(), 0);
  EXPECT_EQ(checker.violation_count(), 0) << checker.ReportJson();
}

}  // namespace
}  // namespace malt
