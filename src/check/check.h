// Protocol checker — a happens-before / torn-write validator for the dstorm
// one-sided memory protocol (DESIGN.md §9).
//
// The checker shadows the cluster: every one-sided write a transport applies
// and every gather read dstorm performs is mirrored into a per-slot ledger,
// and the reader's decisions (consume / skip-torn / skip-stale) are validated
// against what the ledger says the slot actually contained. A second
// component tracks barrier rounds with per-rank vector clocks and certifies
// barrier separation (no rank exits round R before every live group member
// entered R) plus the SSP staleness bound.
//
// The checker runs in two modes:
//
//   serialized (default) — the simulator executes one rank at a time, so the
//   ledger knows the slot's exact content at every instant and the checks
//   are exact equalities ("the consumed seq IS the committed seq").
//
//   concurrent (SetConcurrent(true)) — ranks are real threads (the shmem
//   transport). Hooks fire from the sender's and the reader's own threads;
//   the ledger is sharded with lock striping keyed by (node, rkey, queue) so
//   the checker itself is TSan-clean. Exact-instant assertions are replaced
//   by concurrency-tolerant ones: a read overlapping an in-flight write is
//   legal iff the reader reported it torn (seqlock parity); a consumed seq
//   may be the in-flight commit or a recent one from a short per-slot
//   history; `spurious_torn_skip` becomes a windowed check (torn is spurious
//   only if no write touched the slot since the reader's previous read); and
//   `lost_update` accounting counts overwrite-on-full drops against the
//   queue-depth bound. Soundness rests on the transport's seqlock ordering:
//   the sender's begin-hook runs before its WriteBegin (release), and a
//   reader that validated a write's content runs its hook after that, so the
//   ledger is never behind what the reader could legally observe.
//
// The dstorm slot wire format is defined once, by the constants below; dstorm
// reads and writes slots through them.
//
// Levels (MaltOptions::check / malt_run --check):
//   off   — every hook early-returns; the shadow state is never touched.
//   cheap — ledger + barrier + staleness checks (integer compares only).
//   full  — cheap plus payload hashing (byte-exact torn-read escapes) and,
//           in serialized mode, a trace instant per violation on the
//           observing rank's ring.
//
// Violations are recorded (capped sample list + per-kind counts), counted in
// the observing rank's telemetry registry as `check.violations.<kind>`, and
// exportable as a machine-readable JSON report (ReportJson).

#ifndef SRC_CHECK_CHECK_H_
#define SRC_CHECK_CHECK_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/status.h"
#include "src/base/thread_annotations.h"
#include "src/base/time_units.h"
#include "src/telemetry/telemetry.h"

namespace malt {

enum class CheckLevel : uint8_t {
  kOff = 0,
  kCheap = 1,
  kFull = 2,
};

[[nodiscard]] Result<CheckLevel> ParseCheckLevel(const std::string& s);
std::string ToString(CheckLevel level);

namespace check {

// dstorm slot wire format (the one definition; dstorm and the checker both
// use it):
//   u64 seq_front | u32 iter | u32 bytes | payload[bytes] | u64 seq_back
inline constexpr size_t kSeqFrontOff = 0;
inline constexpr size_t kIterOff = 8;
inline constexpr size_t kBytesOff = 12;
inline constexpr size_t kPayloadOff = 16;

// A decoded slot image — the ledger-as-oracle entry point shared by the
// model checker's dstorm-slot harness (src/modelcheck/harnesses.cc) and any
// other driver that reads raw slot bytes and feeds them to OnSlotRead. Keeps
// the wire layout knowledge in exactly one place.
struct SlotImage {
  uint64_t seq_front = 0;
  uint64_t seq_back = 0;
  uint32_t iter = 0;
  uint32_t bytes = 0;                // payload length claimed by the header
  std::span<const std::byte> payload;  // views into the parsed buffer

  bool torn() const { return seq_front != seq_back; }
};

// Decodes `slot` (a full slot-stride snapshot). Returns false when the slot
// is structurally unusable — too short for the header/trailer or claiming
// more payload bytes than the snapshot holds — which a reader must treat as
// torn, never consume. The payload span aliases `slot`.
bool ParseSlotImage(std::span<const std::byte> slot, SlotImage* out);

// Encodes a consistent slot image (seq_back = seq_front = `seq`) into `slot`
// for harnesses and tests that fabricate sender-side wire bytes. `slot` must
// hold at least kPayloadOff + payload.size() + 8 bytes.
void EncodeSlotImage(std::span<std::byte> slot, uint64_t seq, uint32_t iter,
                     std::span<const std::byte> payload);

// Violation kinds. Static strings: they double as trace-event names and as
// the suffix of the `check.violations.<kind>` telemetry counter.
inline constexpr const char* kTornReadEscape = "torn_read_escape";
inline constexpr const char* kSeqlockProtocol = "seqlock_protocol";
inline constexpr const char* kSeqDiscipline = "seq_discipline";
inline constexpr const char* kWrongQueue = "wrong_queue";
inline constexpr const char* kSlotMisaligned = "slot_misaligned";
inline constexpr const char* kHeaderCorrupt = "header_corrupt";
inline constexpr const char* kIterRegression = "iter_regression";
inline constexpr const char* kDuplicateConsume = "duplicate_consume";
inline constexpr const char* kPhantomRead = "phantom_read";
inline constexpr const char* kSpuriousTornSkip = "spurious_torn_skip";
inline constexpr const char* kLostUpdate = "lost_update";
inline constexpr const char* kBarrierSeparation = "barrier_separation";
inline constexpr const char* kBarrierRegression = "barrier_round_regression";
inline constexpr const char* kSspStaleness = "ssp_staleness";

// Every kind above, for counter pre-registration (BindTelemetry caches one
// counter per rank per kind so ReportViolation never touches the registry
// map from a foreign thread).
inline constexpr std::array<const char*, 14> kAllKinds = {
    kTornReadEscape, kSeqlockProtocol, kSeqDiscipline,    kWrongQueue,
    kSlotMisaligned, kHeaderCorrupt,   kIterRegression,   kDuplicateConsume,
    kPhantomRead,    kSpuriousTornSkip, kLostUpdate,      kBarrierSeparation,
    kBarrierRegression, kSspStaleness,
};

}  // namespace check

struct Violation {
  const char* kind = "";
  int rank = -1;      // rank on which the violation was observed
  SimTime time = 0;   // time of the observing event (virtual or wall ns)
  std::string detail;
};

class ProtocolChecker {
 public:
  // Geometry of one dstorm segment's receive region on one node, as the
  // checker needs it to map a raw (offset, length) write onto (queue, slot).
  struct SegmentLayout {
    size_t slot_stride = 0;    // header + payload capacity + trailer, aligned
    size_t obj_bytes = 0;      // payload capacity
    int queue_depth = 0;       // slots per sender
    std::vector<int> senders;  // in-edge list; queue q belongs to senders[q]
  };

  // How the transport applied a remote write to the destination region.
  // The simulated fabric uses kFull for whole writes and the half pair for
  // its torn-write fault injection; the shmem transport brackets every real
  // store with kFirstHalf (before the seqlock'd copy) and kSecondHalf
  // (after), so the ledger always knows a write is in flight.
  enum class ApplyPhase : uint8_t {
    kFull = 0,        // whole payload landed in one event
    kFirstHalf = 1,   // first half only / store about to start
    kSecondHalf = 2,  // the matching completion of a kFirstHalf
  };

  // What the reader decided about one receive slot during a gather.
  enum class ReadAction : uint8_t {
    kConsumed = 0,     // folded into the local model
    kSkippedTorn = 1,  // seq_front != seq_back observed
    // Already consumed earlier. Readers decide this from the header alone
    // and report seq_back = seq_front (the trailer is never read).
    kSkippedStale = 2,
  };

  ProtocolChecker(CheckLevel level, int world);

  // Routes violation counters (and, serialized full level, trace instants)
  // into the observing rank's registry. Optional; safe to skip in standalone
  // stacks. Call before traffic starts: it pre-registers one counter per
  // (rank, kind) so the hot path never mutates a registry map.
  void BindTelemetry(TelemetryDomain* telemetry);

  // Concurrent mode: hooks may fire from many threads at once and the
  // exact-instant assertions are relaxed to concurrency-tolerant ones (see
  // file comment). Must be set before traffic starts (the shmem runtime sets
  // it at construction).
  void SetConcurrent(bool concurrent) { concurrent_ = concurrent; }
  bool concurrent() const { return concurrent_; }

  CheckLevel level() const { return level_; }
  bool enabled() const { return level_ != CheckLevel::kOff; }
  int world() const { return world_; }

  // SSP bound advertised by the runtime (MaltOptions::staleness).
  void SetStalenessBound(int64_t bound) { ssp_bound_ = bound; }
  int64_t staleness_bound() const { return ssp_bound_; }

  // --- layout registration (dstorm CreateSegment) ---------------------------

  void OnSegmentCreate(int node, uint32_t rkey, int segment, SegmentLayout layout);

  // --- transport-side events (one-sided write applied to a region) ----------

  // `wire` is the full posted image (transports snapshot or hold the payload
  // across the apply, so it is available even for split applies).
  // Unregistered regions (barrier counters, probe scratch) are ignored.
  // Thread-safe; call from the applying (sender's) thread.
  void OnRemoteWriteApply(int src, int dst, uint32_t rkey, size_t offset,
                          std::span<const std::byte> wire, ApplyPhase phase, SimTime now);

  // --- dstorm reader-side events (gather) -----------------------------------

  // `payload` is what the reader is about to hand to the application; only
  // needed for kConsumed (used for byte-exact validation at full level).
  // Thread-safe; call from the reading rank's thread.
  void OnSlotRead(int reader, uint32_t rkey, int queue_pos, int slot, uint64_t seq_front,
                  uint64_t seq_back, uint32_t iter, std::span<const std::byte> payload,
                  ReadAction action, SimTime now);

  // --- barrier / iteration tracking -----------------------------------------

  void OnBarrierEnter(int rank, uint64_t round, SimTime now);
  // `members` is the rank's current view of the live group.
  void OnBarrierExit(int rank, uint64_t round, std::span<const int> members, SimTime now);
  // The rank returned from its worker body (its barrier counter is infinity).
  void OnRankFinished(int rank);

  // VOL scatter stamp: outgoing iteration stamps must not regress per vector.
  void OnVolScatter(int rank, int segment, uint32_t iter, SimTime now);

  // SSP gate release: `rank` proceeds at `iter`; the checker recomputes the
  // slowest live in-neighbor from its own shadow (newest applied stamp per
  // queue) and flags iter - min_peer > staleness_bound().
  void OnSspProceed(int rank, int segment, uint32_t iter, std::span<const int> live_senders,
                    SimTime now);

  // Vector clock of `rank` over barrier rounds: entry m is the newest round
  // `rank` knows m to have entered (via barrier joins). Post-run accessor:
  // do not call while rank threads are still inside barriers — hence the
  // deliberate analysis hole (returns a reference out of barrier_mu_'s
  // protection).
  const std::vector<uint64_t>& VectorClock(int rank) const MALT_NO_THREAD_SAFETY_ANALYSIS;

  // Race-free copy of `rank`'s vector clock, safe to call MID-RUN (takes
  // the barrier ledger lock) — the flight recorder snapshots clocks while
  // rank threads are still inside barriers.
  std::vector<uint64_t> VectorClockSnapshot(int rank) const;

  // Manual report (used by auxiliary validators and fault-injection tests).
  void ReportViolation(const char* kind, int rank, SimTime now, std::string detail);

  // --- results ---------------------------------------------------------------

  int64_t events_checked() const {
    return events_checked_.load(std::memory_order_relaxed);
  }
  int64_t violation_count() const {
    return violation_count_.load(std::memory_order_relaxed);
  }
  // Overwrite-on-full drops observed at apply time (accounting, not a
  // violation by itself: laps are legal when the reader falls more than
  // queue_depth behind; `lost_update` fires when a drop has no lap).
  int64_t lost_updates() const {
    return lost_updates_.load(std::memory_order_relaxed);
  }
  int64_t CountFor(const std::string& kind) const;
  // Capped sample of violations (first kMaxStoredViolations). Post-run
  // accessor: the returned reference is unguarded, a deliberate analysis
  // hole — callers read it only after traffic has stopped.
  const std::vector<Violation>& violations() const MALT_NO_THREAD_SAFETY_ANALYSIS {
    return violations_;
  }

  // {"level":...,"events":N,"violations":N,"by_kind":{...},"samples":[...]}
  std::string ReportJson() const;
  [[nodiscard]] Status WriteReportJson(const std::string& path) const;

 private:
  // One committed slot generation: what a consistent read of the slot at
  // that point would have returned.
  struct Commit {
    uint64_t seq = 0;
    uint32_t iter = 0;
    uint32_t bytes = 0;
    uint64_t hash = 0;  // payload hash (full level only)
  };

  struct ShadowSlot {
    Commit committed;             // newest fully applied write
    // Short ring of older commits. In concurrent mode a reader may validate
    // a write and report it a beat after the sender committed the next one;
    // a consume matching a recent generation is legal (and hash-checked at
    // full level) instead of a phantom.
    static constexpr size_t kHistory = 4;
    std::array<Commit, kHistory> history;
    size_t history_next = 0;
    bool mid_write = false;       // first half applied / store in flight
    bool poisoned = false;        // a protocol-violating write landed here
    bool reader_saw_torn = false; // last reader visit reported torn
    Commit pending;               // the write named by mid_write
    // Write-window counters for the relaxed torn-skip / lost-update rules:
    // how many writes have begun on this slot, ever, and the value of that
    // counter when the reader last visited the slot.
    uint64_t writes_begun = 0;
    uint64_t writes_begun_at_last_read = 0;
  };

  struct ShadowQueue {
    uint64_t last_posted_seq = 0;
    uint32_t last_posted_iter = 0;
    uint64_t last_consumed_seq = 0;
    int64_t last_consumed_iter = -1;
    int64_t newest_applied_iter = -1;  // newest applied stamp (see OnSspProceed)
    int64_t lost_updates = 0;          // overwrite-on-full drops (accounting)
  };

  struct ShadowSegment {
    SegmentLayout layout;
    int segment = -1;
    uint32_t rkey = 0;  // back-reference for stripe keying (OnSspProceed)
    std::vector<ShadowSlot> slots;    // [queue * depth + slot]
    std::vector<ShadowQueue> queues;  // [queue]
  };

  static constexpr size_t kMaxStoredViolations = 128;
  // Lock striping for the shadow ledger. A stripe is keyed by
  // (node, rkey, queue): the queue is the protocol's unit of sharing — one
  // sender thread writes it, one reader thread consumes it — and all of a
  // queue's slots plus its ShadowQueue counters live under one stripe, so
  // cross-slot rules (lost-update gap accounting) stay atomic. Distinct
  // queues hash to mostly distinct stripes and proceed in parallel.
  static constexpr size_t kLedgerStripes = 64;

  Mutex& StripeFor(int node, uint32_t rkey, size_t queue) const;

  // Callers hold reg_mu_ (shared).
  ShadowSegment* FindSegmentLocked(int node, uint32_t rkey) const MALT_REQUIRES_SHARED(reg_mu_);
  ShadowSegment* FindSegmentByIdLocked(int node, int segment) const
      MALT_REQUIRES_SHARED(reg_mu_);
  // Callers hold the queue's stripe mutex. The (node, rkey, queue) stripe key
  // is threaded through explicitly so the REQUIRES expression names the same
  // StripeFor(...) call the lock site used — that textual match is how the
  // analysis ties the held stripe to the precondition.
  void CommitWrite(int node, uint32_t rkey, ShadowSegment& seg, size_t queue, size_t slot,
                   const Commit& commit) MALT_REQUIRES(StripeFor(node, rkey, queue));
  void CheckConsumedConcurrent(ShadowSegment& seg, ShadowSlot& shadow, int reader,
                               uint32_t rkey, size_t queue, int sender, size_t slot,
                               uint64_t seq_front, std::span<const std::byte> payload,
                               SimTime now) MALT_REQUIRES(StripeFor(reader, rkey, queue));
  void CheckLostUpdates(ShadowSegment& seg, ShadowQueue& q, uint32_t rkey, size_t queue,
                        int reader, int sender, uint64_t consumed_seq, SimTime now)
      MALT_REQUIRES(StripeFor(reader, rkey, queue));

  CheckLevel level_;
  int world_;
  bool concurrent_ = false;
  int64_t ssp_bound_ = -1;  // <0: no bound advertised
  TelemetryDomain* telemetry_ = nullptr;

  // Pre-resolved violation counters: [rank] -> total + one per kind in
  // check::kAllKinds. Counter bumps are relaxed atomics, safe from any
  // thread; resolving them lazily would race the owning rank's registry.
  struct RankCounters {
    Counter* total = nullptr;
    std::array<Counter*, check::kAllKinds.size()> per_kind{};
  };
  std::vector<RankCounters> rank_counters_;

  // Registration (rare, before traffic) vs lookup (hot): a reader/writer
  // lock keeps lookups concurrent. ShadowSegments are held by unique_ptr so
  // pointers stay stable across registrations. Per-slot/queue ledger state
  // reached through a ShadowSegment* is guarded by the queue's stripe (the
  // REQUIRES annotations above), not by reg_mu_.
  mutable SharedMutex reg_mu_;
  // [node][rkey] -> shadow (null for unregistered rkeys).
  std::vector<std::vector<std::unique_ptr<ShadowSegment>>> shadows_ MALT_GUARDED_BY(reg_mu_);

  mutable std::array<Mutex, kLedgerStripes> ledger_mu_;

  // Barrier tracking (one mutex: barrier entry/exit is not a hot path).
  mutable Mutex barrier_mu_;
  std::vector<uint64_t> entered_round_ MALT_GUARDED_BY(barrier_mu_);
  std::vector<uint64_t> exited_round_ MALT_GUARDED_BY(barrier_mu_);
  std::vector<bool> finished_ MALT_GUARDED_BY(barrier_mu_);
  std::vector<std::vector<uint64_t>> vclock_ MALT_GUARDED_BY(barrier_mu_);  // [rank][rank]

  // VOL scatter stamps: (rank, segment) -> last outgoing stamp.
  Mutex vol_mu_;
  std::map<std::pair<int, int>, uint32_t> vol_stamp_ MALT_GUARDED_BY(vol_mu_);

  std::atomic<int64_t> events_checked_{0};
  std::atomic<int64_t> violation_count_{0};
  std::atomic<int64_t> lost_updates_{0};
  mutable Mutex report_mu_;
  std::map<std::string, int64_t> by_kind_ MALT_GUARDED_BY(report_mu_);
  std::vector<Violation> violations_ MALT_GUARDED_BY(report_mu_);
};

// Validates the call discipline of one SeqLock (src/base/seqlock.h) from an
// event stream: WriteBegin must take the sequence even->odd, WriteEnd
// odd->even, and a read may only validate against an even begin sequence that
// is still current at validate time. Violations are reported into the
// ProtocolChecker as `seqlock_protocol`. Single-threaded: one discipline
// instance tracks one lock from one observer's event order.
class SeqLockDiscipline {
 public:
  SeqLockDiscipline(ProtocolChecker* checker, int rank) : checker_(checker), rank_(rank) {}

  void OnWriteBegin(uint64_t seq_after, SimTime now);
  void OnWriteEnd(uint64_t seq_after, SimTime now);
  void OnReadValidate(uint64_t begin_seq, uint64_t end_seq, bool accepted, SimTime now);

  uint64_t sequence() const { return seq_; }

 private:
  ProtocolChecker* checker_;
  int rank_;
  uint64_t seq_ = 0;  // last sequence value the discipline has accepted
};

}  // namespace malt

#endif  // SRC_CHECK_CHECK_H_
