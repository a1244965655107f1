#include "src/check/check.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "src/base/hash.h"
#include "src/base/log.h"
#include "src/telemetry/metrics.h"

namespace malt {

namespace {

uint64_t LoadU64(const std::byte* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t LoadU32(const std::byte* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t HashBytes(std::span<const std::byte> bytes) {
  Fnv1a h;
  h.Mix(bytes.data(), bytes.size());
  return h.digest();
}

}  // namespace

Result<CheckLevel> ParseCheckLevel(const std::string& s) {
  if (s == "off") {
    return CheckLevel::kOff;
  }
  if (s == "cheap") {
    return CheckLevel::kCheap;
  }
  if (s == "full") {
    return CheckLevel::kFull;
  }
  return InvalidArgumentError("unknown check level '" + s + "' (off|cheap|full)");
}

std::string ToString(CheckLevel level) {
  switch (level) {
    case CheckLevel::kOff:
      return "off";
    case CheckLevel::kCheap:
      return "cheap";
    case CheckLevel::kFull:
      return "full";
  }
  return "?";
}

namespace check {

bool ParseSlotImage(std::span<const std::byte> slot, SlotImage* out) {
  if (slot.size() < kPayloadOff + sizeof(uint64_t)) {
    return false;
  }
  out->seq_front = LoadU64(slot.data() + kSeqFrontOff);
  out->iter = LoadU32(slot.data() + kIterOff);
  out->bytes = LoadU32(slot.data() + kBytesOff);
  if (kPayloadOff + out->bytes + sizeof(uint64_t) > slot.size()) {
    return false;  // header claims more payload than the snapshot holds
  }
  out->payload = slot.subspan(kPayloadOff, out->bytes);
  out->seq_back = LoadU64(slot.data() + kPayloadOff + out->bytes);
  return true;
}

void EncodeSlotImage(std::span<std::byte> slot, uint64_t seq, uint32_t iter,
                     std::span<const std::byte> payload) {
  const uint32_t bytes = static_cast<uint32_t>(payload.size());
  MALT_CHECK(kPayloadOff + payload.size() + sizeof(uint64_t) <= slot.size())
      << "slot too small for payload";
  std::memcpy(slot.data() + kSeqFrontOff, &seq, sizeof(seq));
  std::memcpy(slot.data() + kIterOff, &iter, sizeof(iter));
  std::memcpy(slot.data() + kBytesOff, &bytes, sizeof(bytes));
  std::memcpy(slot.data() + kPayloadOff, payload.data(), payload.size());
  std::memcpy(slot.data() + kPayloadOff + payload.size(), &seq, sizeof(seq));
}

}  // namespace check

ProtocolChecker::ProtocolChecker(CheckLevel level, int world)
    : level_(level),
      world_(world),
      shadows_(static_cast<size_t>(world)),
      entered_round_(static_cast<size_t>(world), 0),
      exited_round_(static_cast<size_t>(world), 0),
      finished_(static_cast<size_t>(world), false),
      vclock_(static_cast<size_t>(world), std::vector<uint64_t>(static_cast<size_t>(world), 0)) {
  MALT_CHECK(world >= 1) << "checker needs at least one rank";
}

void ProtocolChecker::BindTelemetry(TelemetryDomain* telemetry) {
  MALT_CHECK(telemetry == nullptr || telemetry->ranks() >= world_)
      << "telemetry domain smaller than checker world";
  telemetry_ = telemetry;
  rank_counters_.clear();
  if (telemetry_ == nullptr || !enabled()) {
    return;
  }
  // Resolve every violation counter up front: registry lookups mutate a map
  // owned by the rank's thread, but a violation can be observed (and must be
  // counted) from any thread. The bumps happen under report_mu_.
  rank_counters_.reserve(static_cast<size_t>(world_));
  for (int rank = 0; rank < world_; ++rank) {
    MetricRegistry& reg = telemetry_->rank(rank).metrics;
    RankCounters rc;
    rc.total = reg.GetCounter("check.violations");
    for (size_t i = 0; i < check::kAllKinds.size(); ++i) {
      rc.per_kind[i] = reg.GetCounter(std::string("check.violations.") + check::kAllKinds[i]);
    }
    rank_counters_.push_back(rc);
  }
}

void ProtocolChecker::ReportViolation(const char* kind, int rank, SimTime now,
                                      std::string detail) {
  violation_count_.fetch_add(1, std::memory_order_relaxed);
  const RankCounters* rc = rank >= 0 && static_cast<size_t>(rank) < rank_counters_.size()
                               ? &rank_counters_[static_cast<size_t>(rank)]
                               : nullptr;
  {
    MutexLock lock(report_mu_);
    ++by_kind_[kind];
    if (violations_.size() < kMaxStoredViolations) {
      violations_.push_back(Violation{kind, rank, now, detail});
    }
    // The counters have one writer (metrics.h): whoever holds report_mu_.
    if (rc != nullptr) {
      rc->total->Add(1);
      for (size_t i = 0; i < check::kAllKinds.size(); ++i) {
        if (std::strcmp(check::kAllKinds[i], kind) == 0) {
          rc->per_kind[i]->Add(1);
          break;
        }
      }
    }
  }
  MALT_LOG_S(kWarning) << "check: " << kind << " on rank " << rank << " at t=" << now << "ns: "
                       << detail;
  if (rc != nullptr) {
    // Trace rings are single-writer (the owning rank's thread); a violation
    // can be observed from a foreign thread in concurrent mode, so the
    // per-violation trace instant is a serialized-mode feature.
    if (level_ == CheckLevel::kFull && !concurrent_ && telemetry_ != nullptr) {
      telemetry_->rank(rank).trace.Instant(kind, now);
    }
  }
}

Mutex& ProtocolChecker::StripeFor(int node, uint32_t rkey, size_t queue) const {
  uint64_t h = static_cast<uint64_t>(node) + 0x9E3779B97F4A7C15ull;
  h = (h ^ rkey) * 0x100000001B3ull;
  h = (h ^ queue) * 0x100000001B3ull;
  return ledger_mu_[h % kLedgerStripes];
}

ProtocolChecker::ShadowSegment* ProtocolChecker::FindSegmentLocked(int node,
                                                                   uint32_t rkey) const {
  if (node < 0 || node >= world_) {
    return nullptr;
  }
  const auto& per_node = shadows_[static_cast<size_t>(node)];
  if (rkey >= per_node.size()) {
    return nullptr;
  }
  return per_node[rkey].get();
}

ProtocolChecker::ShadowSegment* ProtocolChecker::FindSegmentByIdLocked(int node,
                                                                       int segment) const {
  if (node < 0 || node >= world_) {
    return nullptr;
  }
  for (const auto& shadow : shadows_[static_cast<size_t>(node)]) {
    if (shadow != nullptr && shadow->segment == segment) {
      return shadow.get();
    }
  }
  return nullptr;
}

void ProtocolChecker::OnSegmentCreate(int node, uint32_t rkey, int segment,
                                      SegmentLayout layout) {
  if (!enabled()) {
    return;
  }
  MALT_CHECK(node >= 0 && node < world_) << "bad node " << node;
  MALT_CHECK(layout.slot_stride > 0 && layout.queue_depth > 0) << "degenerate segment layout";
  WriterMutexLock lock(reg_mu_);
  auto& per_node = shadows_[static_cast<size_t>(node)];
  if (per_node.size() <= rkey) {
    per_node.resize(static_cast<size_t>(rkey) + 1);
  }
  auto shadow = std::make_unique<ShadowSegment>();
  shadow->segment = segment;
  shadow->rkey = rkey;
  shadow->queues.resize(layout.senders.size());
  shadow->slots.resize(layout.senders.size() * static_cast<size_t>(layout.queue_depth));
  shadow->layout = std::move(layout);
  per_node[rkey] = std::move(shadow);
}

void ProtocolChecker::CommitWrite([[maybe_unused]] int node, [[maybe_unused]] uint32_t rkey,
                                  ShadowSegment& seg, size_t queue, size_t slot,
                                  const Commit& commit) {
  ShadowSlot& s = seg.slots[queue * static_cast<size_t>(seg.layout.queue_depth) + slot];
  if (s.committed.seq != 0) {
    s.history[s.history_next] = s.committed;
    s.history_next = (s.history_next + 1) % ShadowSlot::kHistory;
  }
  s.committed = commit;
  s.mid_write = false;
  seg.queues[queue].newest_applied_iter =
      std::max(seg.queues[queue].newest_applied_iter, static_cast<int64_t>(commit.iter));
}

void ProtocolChecker::OnRemoteWriteApply(int src, int dst, uint32_t rkey, size_t offset,
                                         std::span<const std::byte> wire, ApplyPhase phase,
                                         SimTime now) {
  if (!enabled()) {
    return;
  }
  ReaderMutexLock reg_lock(reg_mu_);
  ShadowSegment* seg = FindSegmentLocked(dst, rkey);
  if (seg == nullptr) {
    return;  // barrier counters, probe scratch: not slot-structured
  }
  events_checked_.fetch_add(1, std::memory_order_relaxed);

  const size_t stride = seg->layout.slot_stride;
  const size_t depth = static_cast<size_t>(seg->layout.queue_depth);
  const size_t queue = offset / (stride * depth);
  const size_t slot = (offset % (stride * depth)) / stride;
  // The second half of a split apply carries the same image the first half
  // already validated and reported on; it only resolves the in-flight state.
  const bool report = phase != ApplyPhase::kSecondHalf;

  if (offset % stride != 0 || queue >= seg->queues.size()) {
    if (report) {
      ReportViolation(check::kSlotMisaligned, dst, now,
                      "write from rank " + std::to_string(src) + " at offset " +
                          std::to_string(offset) + " is not on a slot boundary");
    }
    if (queue < seg->queues.size()) {
      MutexLock lock(StripeFor(dst, rkey, queue));
      seg->slots[queue * depth + slot].poisoned = true;
    }
    return;
  }

  MutexLock lock(StripeFor(dst, rkey, queue));
  ShadowSlot& shadow = seg->slots[queue * depth + slot];
  ShadowQueue& q = seg->queues[queue];
  if (phase != ApplyPhase::kSecondHalf) {
    ++shadow.writes_begun;
  }

  // Header sanity: the wire image must be a complete slot write.
  if (wire.size() < check::kPayloadOff + sizeof(uint64_t) || wire.size() > stride) {
    if (report) {
      ReportViolation(check::kHeaderCorrupt, dst, now,
                      "write of " + std::to_string(wire.size()) + " bytes from rank " +
                          std::to_string(src) + " is not a slot image (stride " +
                          std::to_string(stride) + ")");
    }
    shadow.poisoned = true;
    return;
  }
  const uint64_t seq_front = LoadU64(wire.data() + check::kSeqFrontOff);
  const uint32_t iter = LoadU32(wire.data() + check::kIterOff);
  const uint32_t bytes = LoadU32(wire.data() + check::kBytesOff);
  if (bytes > seg->layout.obj_bytes ||
      wire.size() != check::kPayloadOff + bytes + sizeof(uint64_t)) {
    if (report) {
      ReportViolation(check::kHeaderCorrupt, dst, now,
                      "byte count " + std::to_string(bytes) + " inconsistent with wire size " +
                          std::to_string(wire.size()) + " from rank " + std::to_string(src));
    }
    shadow.poisoned = true;
    return;
  }
  const uint64_t seq_back = LoadU64(wire.data() + check::kPayloadOff + bytes);

  // Seqlock protocol: a well-formed write carries equal nonzero stamps — a
  // writer that skipped WriteEnd (or never stamped) posts a torn image.
  if (seq_front == 0 || seq_front != seq_back) {
    if (report) {
      ReportViolation(check::kSeqlockProtocol, dst, now,
                      "rank " + std::to_string(src) + " posted stamps front=" +
                          std::to_string(seq_front) + " back=" + std::to_string(seq_back) +
                          " (missing WriteEnd)");
    }
    // The slot content is torn from now on; a reader consuming it escapes.
    shadow.mid_write = true;
    shadow.pending.seq = seq_front;
    return;
  }

  // Sender identity: queue q of this region belongs to senders[q] alone.
  if (src != seg->layout.senders[queue]) {
    if (report) {
      ReportViolation(check::kWrongQueue, dst, now,
                      "rank " + std::to_string(src) + " wrote into the queue of sender " +
                          std::to_string(seg->layout.senders[queue]));
    }
    shadow.poisoned = true;
    return;
  }

  if (phase != ApplyPhase::kSecondHalf) {
    // Per-queue write discipline: stamps increase by one per post and slots
    // round-robin in stamp order, so (seq - 1) % depth names the slot.
    if (q.last_posted_seq != 0 && seq_front != q.last_posted_seq + 1) {
      ReportViolation(check::kSeqDiscipline, dst, now,
                      "rank " + std::to_string(src) + " posted seq " +
                          std::to_string(seq_front) + " after " +
                          std::to_string(q.last_posted_seq));
    }
    if ((seq_front - 1) % depth != slot) {
      ReportViolation(check::kSeqDiscipline, dst, now,
                      "seq " + std::to_string(seq_front) + " landed in slot " +
                          std::to_string(slot) + ", round-robin expects " +
                          std::to_string((seq_front - 1) % depth));
    }
    if (iter < q.last_posted_iter) {
      ReportViolation(check::kIterRegression, dst, now,
                      "rank " + std::to_string(src) + " posted iter " + std::to_string(iter) +
                          " after " + std::to_string(q.last_posted_iter));
    }
    // Overwrite-on-full accounting: this write laps a committed generation
    // the reader never consumed. A lap is legal (the reader is more than
    // queue_depth behind); the lost_update check at consume time flags
    // drops that happened without one.
    if (shadow.committed.seq != 0 && shadow.committed.seq > q.last_consumed_seq &&
        seq_front > shadow.committed.seq) {
      ++q.lost_updates;
      lost_updates_.fetch_add(1, std::memory_order_relaxed);
    }
    q.last_posted_seq = std::max(q.last_posted_seq, seq_front);
    q.last_posted_iter = std::max(q.last_posted_iter, iter);
    if (concurrent_) {
      // Record the stamp when the write *begins*: the SSP gate may observe
      // the store the moment it lands, before the sender's completion hook
      // runs, and the certifier must never lag the gate's legal view (that
      // would manufacture staleness violations out of benign races).
      q.newest_applied_iter =
          std::max(q.newest_applied_iter, static_cast<int64_t>(iter));
    }
  }

  const uint64_t hash =
      level_ == CheckLevel::kFull
          ? HashBytes(wire.subspan(check::kPayloadOff, bytes))
          : 0;
  const Commit commit{seq_front, iter, bytes, hash};

  switch (phase) {
    case ApplyPhase::kFull:
      CommitWrite(dst, rkey, *seg, queue, slot, commit);
      shadow.pending = commit;
      break;
    case ApplyPhase::kFirstHalf:
      shadow.mid_write = true;
      shadow.pending = commit;
      break;
    case ApplyPhase::kSecondHalf:
      // Only the newest begun write's completion makes the slot consistent;
      // a straggling second half of an older write leaves (or makes) it torn.
      if (shadow.pending.seq == seq_front) {
        CommitWrite(dst, rkey, *seg, queue, slot, commit);
      } else {
        shadow.mid_write = true;
      }
      break;
  }
}

// Concurrent-mode consume validation. The serialized checker demands the
// consumed seq equal the committed seq at that exact instant; with real
// threads the reader may validate a store between the sender's WriteEnd and
// its completion hook, or a beat before the sender commits the next
// generation. Legal outcomes, in order of checking: the in-flight write
// itself (hash-checked against the pending image), the committed write or a
// recent generation from the slot history (hash-checked), or something older
// than the history window (accepted, unverifiable). A consumed seq newer
// than anything the ledger has ever seen begun is a phantom.
void ProtocolChecker::CheckConsumedConcurrent(ShadowSegment& seg, ShadowSlot& shadow,
                                              int reader, [[maybe_unused]] uint32_t rkey,
                                              [[maybe_unused]] size_t queue, int sender,
                                              size_t slot, uint64_t seq_front,
                                              std::span<const std::byte> payload,
                                              SimTime now) {
  const size_t depth = static_cast<size_t>(seg.layout.queue_depth);
  if ((seq_front - 1) % depth != slot) {
    ReportViolation(check::kSeqDiscipline, reader, now,
                    "consumed seq " + std::to_string(seq_front) + " from slot " +
                        std::to_string(slot) + ", round-robin expects slot " +
                        std::to_string((seq_front - 1) % depth));
    return;
  }
  const Commit* match = nullptr;
  if (shadow.mid_write && shadow.pending.seq == seq_front) {
    match = &shadow.pending;
  } else if (shadow.committed.seq == seq_front) {
    match = &shadow.committed;
  } else {
    for (const Commit& h : shadow.history) {
      if (h.seq != 0 && h.seq == seq_front) {
        match = &h;
        break;
      }
    }
  }
  if (match != nullptr) {
    if (level_ == CheckLevel::kFull &&
        (payload.size() != match->bytes || HashBytes(payload) != match->hash)) {
      ReportViolation(check::kTornReadEscape, reader, now,
                      "payload of seq " + std::to_string(seq_front) + " from rank " +
                          std::to_string(sender) +
                          " does not match the posted write (torn bytes escaped the stamps)");
    }
    return;
  }
  if (seq_front > std::max(shadow.pending.seq, shadow.committed.seq)) {
    ReportViolation(check::kPhantomRead, reader, now,
                    "consumed seq " + std::to_string(seq_front) + " from rank " +
                        std::to_string(sender) + " but the ledger has only seen seq " +
                        std::to_string(std::max(shadow.pending.seq, shadow.committed.seq)) +
                        " begin");
  }
  // Older than the history window: legal but unverifiable.
}

// Lost-update certification, run when a consume leaves a gap over the
// queue's previous consume. Each skipped seq must be accounted for: lapped
// by a write at least queue_depth ahead (overwrite-on-full, the protocol's
// documented drop mode), observed torn/poisoned at the skip, overwritten in
// the ledger, or plausibly missed by scan skew (a write landed after the
// reader's last visit to that slot). A consistent, committed, never-consumed
// update that the reader demonstrably saw and stepped over is a lost update.
void ProtocolChecker::CheckLostUpdates(ShadowSegment& seg, ShadowQueue& q,
                                       [[maybe_unused]] uint32_t rkey, size_t queue,
                                       int reader, int sender, uint64_t consumed_seq,
                                       SimTime now) {
  if (consumed_seq <= q.last_consumed_seq + 1) {
    return;  // no gap
  }
  const size_t depth = static_cast<size_t>(seg.layout.queue_depth);
  uint64_t lo = q.last_consumed_seq + 1;
  if (consumed_seq > depth && lo < consumed_seq - depth) {
    // Anything a full lap below the consumed seq was necessarily overwritten
    // (posts are contiguous); only the last lap can hide an illegal drop.
    lo = consumed_seq - depth;
  }
  for (uint64_t s = lo; s < consumed_seq; ++s) {
    if (q.last_posted_seq >= s + depth) {
      continue;  // lapped: a legal overwrite-on-full drop
    }
    ShadowSlot& sl = seg.slots[queue * depth + static_cast<size_t>((s - 1) % depth)];
    if (sl.mid_write || sl.poisoned || sl.reader_saw_torn) {
      continue;  // torn when the reader passed it
    }
    if (std::max(sl.pending.seq, sl.committed.seq) > s) {
      continue;  // overwritten since
    }
    if (sl.committed.seq != s) {
      continue;  // never fully landed: not attributable to the reader
    }
    if (sl.writes_begun != sl.writes_begun_at_last_read) {
      continue;  // scan skew: the slot changed after the reader's last visit
    }
    ReportViolation(check::kLostUpdate, reader, now,
                    "consumed seq " + std::to_string(consumed_seq) + " from rank " +
                        std::to_string(sender) + " but seq " + std::to_string(s) +
                        " sits committed and unconsumed without a queue-depth lap (depth " +
                        std::to_string(depth) + ", last posted " +
                        std::to_string(q.last_posted_seq) + ")");
    break;  // one report per consume keeps counts deterministic
  }
}

void ProtocolChecker::OnSlotRead(int reader, uint32_t rkey, int queue_pos, int slot,
                                 uint64_t seq_front, uint64_t seq_back, uint32_t iter,
                                 std::span<const std::byte> payload, ReadAction action,
                                 SimTime now) {
  if (!enabled()) {
    return;
  }
  ReaderMutexLock reg_lock(reg_mu_);
  ShadowSegment* seg = FindSegmentLocked(reader, rkey);
  if (seg == nullptr) {
    return;
  }
  events_checked_.fetch_add(1, std::memory_order_relaxed);
  const size_t depth = static_cast<size_t>(seg->layout.queue_depth);
  const size_t queue = static_cast<size_t>(queue_pos);
  MALT_CHECK(queue < seg->queues.size() && static_cast<size_t>(slot) < depth)
      << "slot read outside segment geometry";
  MutexLock lock(StripeFor(reader, rkey, queue));
  ShadowSlot& shadow = seg->slots[queue * depth + static_cast<size_t>(slot)];
  ShadowQueue& q = seg->queues[queue];
  const int sender = seg->layout.senders[queue];

  switch (action) {
    case ReadAction::kConsumed: {
      if (seq_front != seq_back) {
        ReportViolation(check::kSeqlockProtocol, reader, now,
                        "reader consumed slot " + std::to_string(slot) + " from rank " +
                            std::to_string(sender) + " despite stamps front=" +
                            std::to_string(seq_front) + " back=" + std::to_string(seq_back));
      }
      if (concurrent_) {
        if (shadow.poisoned) {
          ReportViolation(check::kTornReadEscape, reader, now,
                          "consumed seq " + std::to_string(seq_front) + " from rank " +
                              std::to_string(sender) + " while the slot was poisoned");
        } else {
          CheckConsumedConcurrent(*seg, shadow, reader, rkey, queue, sender,
                                  static_cast<size_t>(slot), seq_front, payload, now);
        }
      } else if (shadow.poisoned || shadow.mid_write) {
        ReportViolation(check::kTornReadEscape, reader, now,
                        "consumed seq " + std::to_string(seq_front) + " from rank " +
                            std::to_string(sender) + " while the slot was " +
                            (shadow.poisoned ? "poisoned" : "mid-write"));
      } else if (seq_front != shadow.committed.seq) {
        ReportViolation(check::kPhantomRead, reader, now,
                        "consumed seq " + std::to_string(seq_front) + " from rank " +
                            std::to_string(sender) + " but the ledger holds seq " +
                            std::to_string(shadow.committed.seq));
      } else if (level_ == CheckLevel::kFull) {
        if (payload.size() != shadow.committed.bytes ||
            HashBytes(payload) != shadow.committed.hash) {
          ReportViolation(check::kTornReadEscape, reader, now,
                          "payload of seq " + std::to_string(seq_front) + " from rank " +
                              std::to_string(sender) +
                              " does not match the committed write (torn bytes escaped the "
                              "stamps)");
        }
      }
      if (seq_front <= q.last_consumed_seq) {
        ReportViolation(check::kDuplicateConsume, reader, now,
                        "seq " + std::to_string(seq_front) + " from rank " +
                            std::to_string(sender) + " consumed again (last consumed " +
                            std::to_string(q.last_consumed_seq) + ")");
      }
      if (static_cast<int64_t>(iter) < q.last_consumed_iter) {
        ReportViolation(check::kIterRegression, reader, now,
                        "consumed iter " + std::to_string(iter) + " from rank " +
                            std::to_string(sender) + " after iter " +
                            std::to_string(q.last_consumed_iter));
      }
      CheckLostUpdates(*seg, q, rkey, queue, reader, sender, seq_front, now);
      q.last_consumed_seq = std::max(q.last_consumed_seq, seq_front);
      q.last_consumed_iter = std::max(q.last_consumed_iter, static_cast<int64_t>(iter));
      shadow.reader_saw_torn = false;
      break;
    }
    case ReadAction::kSkippedTorn: {
      bool spurious;
      if (concurrent_) {
        // Windowed: with real threads the in-flight write may have committed
        // (and its completion hook run) before the reader's own hook gets
        // here, so "the ledger says committed" is not proof of a misjudged
        // read. Torn is spurious only if *no* write has touched the slot
        // since the reader's previous visit — nothing was in flight at any
        // point the reader could have observed.
        spurious = !shadow.mid_write && !shadow.poisoned && shadow.committed.seq != 0 &&
                   shadow.writes_begun == shadow.writes_begun_at_last_read;
      } else {
        spurious = !shadow.mid_write && !shadow.poisoned && shadow.committed.seq != 0;
      }
      if (spurious) {
        ReportViolation(check::kSpuriousTornSkip, reader, now,
                        "reader observed torn stamps front=" + std::to_string(seq_front) +
                            " back=" + std::to_string(seq_back) + " but the ledger says seq " +
                            std::to_string(shadow.committed.seq) + " is committed");
      }
      shadow.reader_saw_torn = true;
      break;
    }
    case ReadAction::kSkippedStale: {
      if (seq_front != seq_back) {
        ReportViolation(check::kSeqlockProtocol, reader, now,
                        "reader skipped slot " + std::to_string(slot) + " from rank " +
                            std::to_string(sender) + " as stale despite stamps front=" +
                            std::to_string(seq_front) + " back=" + std::to_string(seq_back));
      }
      if (seq_front > q.last_consumed_seq) {
        ReportViolation(check::kSeqDiscipline, reader, now,
                        "fresh seq " + std::to_string(seq_front) + " from rank " +
                            std::to_string(sender) + " skipped as stale (last consumed " +
                            std::to_string(q.last_consumed_seq) + ")");
      }
      shadow.reader_saw_torn = false;
      break;
    }
  }
  // Refresh the reader-visit window only when the ledger still matches what
  // the reader observed. The hook runs after the reader's raw slot read, so
  // a write landing in between would otherwise be credited as "seen" —
  // manufacturing lost_update reports out of benign scan races. An in-flight
  // begin (single writer per queue: at most one) is likewise discounted,
  // since it may predate the hook but postdate the read.
  if (shadow.committed.seq == seq_front) {
    shadow.writes_begun_at_last_read = shadow.writes_begun - (shadow.mid_write ? 1 : 0);
  }
}

void ProtocolChecker::OnBarrierEnter(int rank, uint64_t round, SimTime now) {
  if (!enabled()) {
    return;
  }
  events_checked_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(barrier_mu_);
  const size_t r = static_cast<size_t>(rank);
  if (round < entered_round_[r]) {
    ReportViolation(check::kBarrierRegression, rank, now,
                    "entered round " + std::to_string(round) + " after round " +
                        std::to_string(entered_round_[r]));
    return;
  }
  entered_round_[r] = round;
  vclock_[r][r] = std::max(vclock_[r][r], round);
}

void ProtocolChecker::OnBarrierExit(int rank, uint64_t round, std::span<const int> members,
                                    SimTime now) {
  if (!enabled()) {
    return;
  }
  events_checked_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(barrier_mu_);
  const size_t r = static_cast<size_t>(rank);
  for (int member : members) {
    if (member == rank || finished_[static_cast<size_t>(member)]) {
      continue;
    }
    const size_t m = static_cast<size_t>(member);
    if (entered_round_[m] < round) {
      ReportViolation(check::kBarrierSeparation, rank, now,
                      "exited round " + std::to_string(round) + " but member " +
                          std::to_string(member) + " has only entered round " +
                          std::to_string(entered_round_[m]));
      continue;
    }
    // Barrier synchronization: join the member's knowledge into ours.
    for (size_t k = 0; k < vclock_[r].size(); ++k) {
      vclock_[r][k] = std::max(vclock_[r][k], vclock_[m][k]);
    }
  }
  exited_round_[r] = std::max(exited_round_[r], round);
}

void ProtocolChecker::OnRankFinished(int rank) {
  if (!enabled()) {
    return;
  }
  MutexLock lock(barrier_mu_);
  finished_[static_cast<size_t>(rank)] = true;
}

void ProtocolChecker::OnVolScatter(int rank, int segment, uint32_t iter, SimTime now) {
  if (!enabled()) {
    return;
  }
  events_checked_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(vol_mu_);
  auto [it, inserted] = vol_stamp_.try_emplace({rank, segment}, iter);
  if (!inserted) {
    if (iter < it->second) {
      ReportViolation(check::kIterRegression, rank, now,
                      "vector on segment " + std::to_string(segment) + " scattered iter " +
                          std::to_string(iter) + " after iter " + std::to_string(it->second));
    }
    it->second = std::max(it->second, iter);
  }
}

void ProtocolChecker::OnSspProceed(int rank, int segment, uint32_t iter,
                                   std::span<const int> live_senders, SimTime now) {
  if (!enabled() || ssp_bound_ < 0) {
    return;
  }
  ReaderMutexLock reg_lock(reg_mu_);
  ShadowSegment* seg = FindSegmentByIdLocked(rank, segment);
  if (seg == nullptr) {
    return;
  }
  events_checked_.fetch_add(1, std::memory_order_relaxed);
  // The slowest live in-neighbor, from the ledger's applied stamps (an
  // independent path from the region reads the SSP gate itself used).
  int64_t min_peer = -2;  // -2: no live in-neighbor (gate vacuously open)
  for (int sender : live_senders) {
    for (size_t queue = 0; queue < seg->layout.senders.size(); ++queue) {
      if (seg->layout.senders[queue] == sender) {
        MutexLock lock(StripeFor(rank, seg->rkey, queue));
        const int64_t newest = seg->queues[queue].newest_applied_iter;
        min_peer = min_peer == -2 ? newest : std::min(min_peer, newest);
        break;
      }
    }
  }
  if (min_peer != -2 && static_cast<int64_t>(iter) - ssp_bound_ > min_peer) {
    ReportViolation(check::kSspStaleness, rank, now,
                    "proceeded at iter " + std::to_string(iter) +
                        " with slowest live in-neighbor at iter " + std::to_string(min_peer) +
                        " (bound " + std::to_string(ssp_bound_) + ")");
  }
}

const std::vector<uint64_t>& ProtocolChecker::VectorClock(int rank) const {
  return vclock_[static_cast<size_t>(rank)];
}

std::vector<uint64_t> ProtocolChecker::VectorClockSnapshot(int rank) const {
  MutexLock lock(barrier_mu_);
  return vclock_[static_cast<size_t>(rank)];
}

int64_t ProtocolChecker::CountFor(const std::string& kind) const {
  MutexLock lock(report_mu_);
  const auto it = by_kind_.find(kind);
  return it == by_kind_.end() ? 0 : it->second;
}

std::string ProtocolChecker::ReportJson() const {
  MutexLock lock(report_mu_);
  std::string out;
  out += "{\"level\":";
  AppendJsonEscaped(&out, ToString(level_));
  out += ",\"events\":";
  AppendJsonNumber(&out, static_cast<double>(events_checked()));
  out += ",\"violations\":";
  AppendJsonNumber(&out, static_cast<double>(violation_count()));
  out += ",\"lost_updates\":";
  AppendJsonNumber(&out, static_cast<double>(lost_updates()));
  out += ",\"by_kind\":{";
  bool first = true;
  for (const auto& [kind, count] : by_kind_) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendJsonEscaped(&out, kind);
    out += ':';
    AppendJsonNumber(&out, static_cast<double>(count));
  }
  out += "},\"samples\":[";
  for (size_t i = 0; i < violations_.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    const Violation& v = violations_[i];
    out += "{\"kind\":";
    AppendJsonEscaped(&out, v.kind);
    out += ",\"rank\":";
    AppendJsonNumber(&out, static_cast<double>(v.rank));
    out += ",\"time_ns\":";
    AppendJsonNumber(&out, static_cast<double>(v.time));
    out += ",\"detail\":";
    AppendJsonEscaped(&out, v.detail);
    out += '}';
  }
  out += "]}";
  return out;
}

Status ProtocolChecker::WriteReportJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) {
    return InternalError("cannot open " + path + " for writing");
  }
  out << ReportJson() << '\n';
  return out.good() ? OkStatus() : InternalError("write to " + path + " failed");
}

// --- SeqLockDiscipline --------------------------------------------------------

void SeqLockDiscipline::OnWriteBegin(uint64_t seq_after, SimTime now) {
  if ((seq_ & 1) != 0 || seq_after != seq_ + 1) {
    checker_->ReportViolation(check::kSeqlockProtocol, rank_, now,
                              "WriteBegin took sequence " + std::to_string(seq_) + " -> " +
                                  std::to_string(seq_after) +
                                  " (expected even -> odd, +1)");
  }
  seq_ = seq_after;
}

void SeqLockDiscipline::OnWriteEnd(uint64_t seq_after, SimTime now) {
  if ((seq_ & 1) != 1 || seq_after != seq_ + 1) {
    checker_->ReportViolation(check::kSeqlockProtocol, rank_, now,
                              "WriteEnd took sequence " + std::to_string(seq_) + " -> " +
                                  std::to_string(seq_after) +
                                  " (expected odd -> even, +1)");
  }
  seq_ = seq_after;
}

void SeqLockDiscipline::OnReadValidate(uint64_t begin_seq, uint64_t end_seq, bool accepted,
                                       SimTime now) {
  if (!accepted) {
    return;  // conservative rejects are always allowed
  }
  if ((begin_seq & 1) != 0) {
    checker_->ReportViolation(check::kSeqlockProtocol, rank_, now,
                              "read validated against odd sequence " +
                                  std::to_string(begin_seq) + " (write in progress)");
  } else if (begin_seq != end_seq) {
    checker_->ReportViolation(check::kSeqlockProtocol, rank_, now,
                              "read accepted with begin=" + std::to_string(begin_seq) +
                                  " end=" + std::to_string(end_seq));
  } else if (begin_seq != seq_) {
    checker_->ReportViolation(check::kSeqlockProtocol, rank_, now,
                              "read accepted sequence " + std::to_string(begin_seq) +
                                  " but the lock is at " + std::to_string(seq_));
  }
}

}  // namespace malt
