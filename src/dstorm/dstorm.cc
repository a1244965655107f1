#include "src/dstorm/dstorm.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "src/base/log.h"

namespace malt {

namespace {

using check::kBytesOff;
using check::kIterOff;
using check::kPayloadOff;
using check::kSeqFrontOff;

size_t AlignUp8(size_t v) { return (v + 7) & ~size_t{7}; }

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

void StoreU64(std::byte* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
void StoreU32(std::byte* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

// Bounds Gather's per-sender candidate list; CreateSegment rejects deeper
// queues up front.
constexpr int kMaxQueueDepth = 16;

enum class SlotState : uint8_t {
  kValid,        // consistent: stamps equal and nonzero (ReadHeader: a candidate)
  kEmpty,        // never written, or header mid-write
  kStale,        // header stamp <= the reader's last consumed: nothing new
  kTornRead,     // Transport::Snapshot saw an overwrite in flight (shmem only)
  kTornStamps,   // stamps differ, or the front moved past the header's: a write landed
};

struct SlotHeader {
  uint64_t seq_front = 0;
  uint64_t seq_back = 0;
  uint32_t iter = 0;
  uint32_t bytes = 0;
};

// The header half of every receive-side slot read. A slot whose front stamp
// is at most `last_consumed` is stale, decided from the 16-byte header alone.
// kValid here means "a candidate": ReadTail decides. PeerIteration passes 0,
// so it never sees kStale.
SlotState ReadHeader(const Transport& transport, MrHandle mr, size_t base_off, size_t obj_bytes,
                     uint64_t last_consumed, SlotHeader* out) {
  std::byte scratch[kPayloadOff];
  const std::span<const std::byte> header = transport.Snapshot(mr, base_off, kPayloadOff, scratch);
  if (header.empty()) {
    return SlotState::kTornRead;
  }
  out->seq_front = LoadU64(header.data() + kSeqFrontOff);
  out->iter = LoadU32(header.data() + kIterOff);
  out->bytes = LoadU32(header.data() + kBytesOff);
  if (out->seq_front == 0 || out->bytes > obj_bytes) {
    return SlotState::kEmpty;
  }
  if (out->seq_front <= last_consumed) {
    out->seq_back = out->seq_front;  // the trailer is never read
    return SlotState::kStale;
  }
  return SlotState::kValid;
}

// The tail half, for a candidate `h` from ReadHeader. With `image` null it
// reads only the back stamp behind h's payload (the FreshAvailable /
// PeerIteration polls). Otherwise (Gather) it takes header + payload + back
// stamp in one Transport::Snapshot, atomic against a write since a slot is
// one guard stripe, and sets `*image` to it: a view of the slot on the
// simulator, a copy in `scratch` on shmem. The slot is valid only if the
// image's front stamp is still h's and equals its back stamp: after a
// shorter object overwrites the slot, the longer one's back stamp survives
// past the new trailer. On return `h` holds the stamps seen.
SlotState ReadTail(const Transport& transport, MrHandle mr, size_t base_off,
                   std::span<std::byte> scratch, SlotHeader* h,
                   std::span<const std::byte>* image) {
  const size_t back_off = kPayloadOff + h->bytes;
  const size_t from = image != nullptr ? 0 : back_off;
  const std::span<const std::byte> view =
      transport.Snapshot(mr, base_off + from, back_off + sizeof(uint64_t) - from, scratch);
  if (view.empty()) {
    return SlotState::kTornRead;
  }
  const uint64_t candidate = h->seq_front;
  if (image != nullptr) {
    *image = view;
    h->seq_front = LoadU64(view.data() + kSeqFrontOff);
  }
  h->seq_back = LoadU64(view.data() + back_off - from);
  return h->seq_front == candidate && h->seq_front == h->seq_back ? SlotState::kValid
                                                                  : SlotState::kTornStamps;
}

// The header + trailer poll behind FreshAvailable and PeerIteration.
SlotState PollSlot(const Transport& transport, MrHandle mr, size_t base_off, size_t obj_bytes,
                   uint64_t last_consumed, SlotHeader* h) {
  const SlotState state = ReadHeader(transport, mr, base_off, obj_bytes, last_consumed, h);
  std::byte trailer[sizeof(uint64_t)];
  return state == SlotState::kValid ? ReadTail(transport, mr, base_off, trailer, h, nullptr)
                                    : state;
}

}  // namespace

// --- DstormDomain -----------------------------------------------------------

DstormDomain::DstormDomain(Transport& transport, int nodes, TelemetryDomain* telemetry)
    : transport_(transport) {
  TelemetryDomain* tel = telemetry == nullptr ? &transport.telemetry() : telemetry;
  MALT_CHECK(tel->ranks() >= nodes) << "telemetry domain smaller than dstorm domain";
  nodes_.reserve(static_cast<size_t>(nodes));
  for (int rank = 0; rank < nodes; ++rank) {
    nodes_.push_back(std::unique_ptr<Dstorm>(
        new Dstorm(this, &transport_, rank, nodes, &tel->rank(rank))));
  }
  // rkey 0 on every node: the barrier counter array; rkey 1: probe scratch.
  // Both are arrays of independently-written aligned u64 words — no striped
  // guard needed (word writes cannot tear).
  for (int rank = 0; rank < nodes; ++rank) {
    MrHandle mr = transport_.RegisterMemory(rank, static_cast<size_t>(nodes) * sizeof(uint64_t));
    MALT_CHECK(mr.rkey == 0) << "barrier region must be rkey 0";
    nodes_[static_cast<size_t>(rank)]->barrier_mr_ = mr;
    MrHandle probe =
        transport_.RegisterMemory(rank, static_cast<size_t>(nodes) * sizeof(uint64_t));
    MALT_CHECK(probe.rkey == 1) << "probe region must be rkey 1";
    nodes_[static_cast<size_t>(rank)]->probe_mr_ = probe;
  }
}

// --- Dstorm -----------------------------------------------------------------

Dstorm::Dstorm(DstormDomain* domain, Transport* transport, int rank, int world,
               RankTelemetry* telemetry)
    : domain_(domain),
      transport_(transport),
      rank_(rank),
      world_(world),
      telemetry_(telemetry),
      group_member_(static_cast<size_t>(world), true),
      peer_failed_(static_cast<size_t>(world), false) {
  MetricRegistry& reg = telemetry_->metrics;
  c_scatters_ = reg.GetCounter("dstorm.scatters");
  c_objects_sent_ = reg.GetCounter("dstorm.objects_sent");
  c_gathers_ = reg.GetCounter("dstorm.gathers");
  c_objects_folded_ = reg.GetCounter("dstorm.objects_folded");
  c_torn_skipped_ = reg.GetCounter("dstorm.torn_slots_skipped");
  c_gather_bytes_copied_ = reg.GetCounter("dstorm.gather_bytes_copied");
  c_overwrites_ = reg.GetCounter("dstorm.overwrites_on_full");
  c_barriers_ = reg.GetCounter("dstorm.barriers");
  c_barrier_timeouts_ = reg.GetCounter("dstorm.barrier_timeouts");
  c_error_completions_ = reg.GetCounter("dstorm.error_completions");
  c_flushes_ = reg.GetCounter("dstorm.flushes");
  c_flush_ns_ = reg.GetCounter("dstorm.flush_wait_ns");
  c_probes_ = reg.GetCounter("dstorm.probes");
  c_send_stalls_ = reg.GetCounter("fabric.send_queue_stalls");
  c_send_stall_ns_ = reg.GetCounter("fabric.send_queue_stall_ns");
  flow_events_ = transport_->telemetry().options().flow_events;
}

Dstorm::Segment& Dstorm::GetSegment(SegmentId seg) const {
  MALT_CHECK(seg >= 0 && static_cast<size_t>(seg) < own_segments_.size())
      << "rank " << rank_ << " has no segment " << seg << " (created "
      << own_segments_.size() << ")";
  return *own_segments_[static_cast<size_t>(seg)];
}

void Dstorm::WaitForSendRoom() {
  if (transport_->HasSendRoom(rank_)) {
    return;
  }
  const SimTime t0 = ctx_->Now();
  ctx_->Wait([this] { return transport_->HasSendRoom(rank_); });
  c_send_stalls_->Add(1);
  c_send_stall_ns_->Add(ctx_->Now() - t0);
}

size_t Dstorm::SlotOffset(const Segment& s, int sender_pos, int slot) const {
  return (static_cast<size_t>(sender_pos) * static_cast<size_t>(s.options.queue_depth) +
          static_cast<size_t>(slot)) *
         s.slot_stride;
}

SegmentId Dstorm::CreateSegment(const SegmentOptions& options) {
  MALT_CHECK(options.obj_bytes > 0) << "segment object size must be positive";
  MALT_CHECK(options.queue_depth >= 1 && options.queue_depth <= kMaxQueueDepth)
      << "queue depth must be in [1, " << kMaxQueueDepth << "], got " << options.queue_depth;
  MALT_CHECK(options.graph.size() == world_)
      << "dataflow graph size " << options.graph.size() << " != world " << world_;
  // Segment ids are assigned by per-node call order; the collective contract
  // is that every node creates the same segments in the same order. (The id
  // cannot come from segments_.size(): the first creator materializes the
  // segment on every node, so peers' lists grow before their own call. Every
  // call appends to own_segments_ exactly once.)
  const auto seg_id = static_cast<SegmentId>(own_segments_.size());
  // Queue slots are header + payload + trailer, and each slot is its own
  // guard stripe: concurrent senders own disjoint slots, so stripes never see
  // two writers.
  const size_t stride = AlignUp8(kPayloadOff + options.obj_bytes + sizeof(uint64_t));

  // Collective registry: the first caller defines the spec and registers the
  // receive region on *every* node (the paper's synchronous segment
  // creation), so remote-key layout is identical cluster-wide. The domain
  // mutex serializes racing creators under the shmem transport; a later
  // caller's lock acquisition orders the first creator's appends before its
  // own data-plane use.
  MutexLock lock(domain_->mu_);
  std::vector<SegmentOptions>& specs = domain_->specs_;
  if (static_cast<size_t>(seg_id) < specs.size()) {
    const SegmentOptions& spec = specs[static_cast<size_t>(seg_id)];
    MALT_CHECK(spec.obj_bytes == options.obj_bytes && spec.queue_depth == options.queue_depth)
        << "collective segment creation called with mismatched options on rank " << rank_;
    own_segments_.push_back(&segments_[static_cast<size_t>(seg_id)]);
    return seg_id;
  }
  specs.push_back(options);
  for (int node = 0; node < world_; ++node) {
    // Receive space: one queue per in-neighbor only (a star topology's
    // leaves keep just one queue instead of world-many).
    const size_t region_bytes =
        options.graph.InEdges(node).size() * static_cast<size_t>(options.queue_depth) * stride;
    MrHandle mr = transport_->RegisterMemory(node, region_bytes, stride);
    MALT_CHECK(mr.rkey == static_cast<uint32_t>(seg_id) + 2)
        << "segment rkey layout diverged on node " << node;
    if (!transport_->NodeAlive(node)) {
      transport_->DeregisterMemory(mr);
    }
    Dstorm& peer = *domain_->nodes_[static_cast<size_t>(node)];
    // Same domain object as the lock above; the analysis cannot see through
    // the peer's back-pointer, so state the held fact.
    peer.domain_->mu_.AssertHeld();
    peer.segments_.push_back(Segment{});
    Segment& s = peer.segments_.back();
    s.options = options;
    s.recv_mr = mr;
    s.slot_stride = stride;
    s.snapshot.resize(stride);
    s.sender_pos_at.assign(static_cast<size_t>(world_), -1);
    for (int dst = 0; dst < world_; ++dst) {
      const auto& in_edges = options.graph.InEdges(dst);
      for (size_t pos = 0; pos < in_edges.size(); ++pos) {
        if (in_edges[pos] == node) {
          s.sender_pos_at[static_cast<size_t>(dst)] = static_cast<int>(pos);
          break;
        }
      }
    }
    s.next_send_seq.assign(static_cast<size_t>(world_), 0);
    s.next_send_slot.assign(static_cast<size_t>(world_), 0);
    s.last_consumed.assign(static_cast<size_t>(world_), 0);
    ProtocolChecker& checker = transport_->checker();
    if (checker.enabled()) {
      ProtocolChecker::SegmentLayout layout;
      layout.slot_stride = stride;
      layout.obj_bytes = options.obj_bytes;
      layout.queue_depth = options.queue_depth;
      layout.senders = options.graph.InEdges(node);
      checker.OnSegmentCreate(node, mr.rkey, seg_id, std::move(layout));
    }
  }
  own_segments_.push_back(&segments_[static_cast<size_t>(seg_id)]);
  return seg_id;
}

Status Dstorm::PostObject(SegmentId seg, Segment& s, int dst, std::span<std::byte> wire,
                          uint32_t iter) {
  const int sender_pos = s.sender_pos_at[static_cast<size_t>(dst)];
  if (sender_pos < 0) {
    return FailedPreconditionError("rank " + std::to_string(rank_) +
                                   " is not an in-neighbor of " + std::to_string(dst));
  }
  const uint64_t seq = ++s.next_send_seq[static_cast<size_t>(dst)];
  const int slot = s.next_send_slot[static_cast<size_t>(dst)];
  s.next_send_slot[static_cast<size_t>(dst)] = (slot + 1) % s.options.queue_depth;

  // Both sequence stamps carry `seq`; a reader that observes mismatched
  // stamps is seeing a write in flight. The rest of the image is the same
  // for every destination of one scatter.
  StoreU64(wire.data() + kSeqFrontOff, seq);
  StoreU64(wire.data() + wire.size() - sizeof(uint64_t), seq);

  // Sender-side back-pressure (paper §3.1): block while the NIC queue is full.
  WaitForSendRoom();

  const MrHandle dst_mr{dst, static_cast<uint32_t>(seg) + 2};
  const size_t offset = SlotOffset(s, sender_pos, slot);
  const SimTime post_now = ctx_->Now();
  WireTrace trace;  // flow id 0 when flow tracing is off: the write is untraced
  if (flow_events_) {
    // Lineage context: the flow id is recomputable at consume time from
    // (sender, reader, rkey, slot seq), so nothing extra rides the wire.
    trace.flow_id = MakeFlowId(rank_, dst, dst_mr.rkey, seq);
    trace.iter = iter;
    trace.sent_at = post_now;
    telemetry_->trace.FlowStart(kFlowUpdateName, post_now, trace.flow_id,
                                static_cast<int64_t>(iter));
  }
  Result<uint64_t> posted = transport_->PostWrite(rank_, post_now, dst_mr, offset, wire, trace);
  if (!posted.ok()) {
    return posted.status();
  }
  c_objects_sent_->Add(1);
  return OkStatus();
}

Status Dstorm::Scatter(SegmentId seg, std::span<const std::byte> payload, uint32_t iter) {
  return ScatterTo(seg, GetSegment(seg).options.graph.OutEdges(rank_), payload, iter);
}

Status Dstorm::ScatterTo(SegmentId seg, std::span<const int> dsts,
                         std::span<const std::byte> payload, uint32_t iter) {
  MALT_CHECK(ctx_ != nullptr) << "Dstorm not bound to an execution context";
  Segment& s = GetSegment(seg);
  if (payload.size() > s.options.obj_bytes) {
    return InvalidArgumentError("payload exceeds segment object size");
  }
  // The slot image is built once per scatter in a reused buffer; PostObject
  // patches only the two stamps per destination. Only header + payload +
  // trailer travel on the wire (the back stamp's position follows from the
  // header's byte count), so a short object does not pay for the slot's full
  // capacity. Both transports snapshot the bytes at post time, so the buffer
  // (and the caller's payload) may be reused as soon as PostWrite returns.
  const size_t wire_bytes = kPayloadOff + payload.size() + sizeof(uint64_t);
  if (send_buf_.size() < wire_bytes) {
    send_buf_.resize(wire_bytes);
  }
  const std::span<std::byte> wire(send_buf_.data(), wire_bytes);
  StoreU32(wire.data() + kIterOff, iter);
  StoreU32(wire.data() + kBytesOff, static_cast<uint32_t>(payload.size()));
  std::memcpy(wire.data() + kPayloadOff, payload.data(), payload.size());

  Status first_error;
  for (int dst : dsts) {
    if (!group_member_[static_cast<size_t>(dst)]) {
      continue;
    }
    Status status = PostObject(seg, s, dst, wire, iter);
    if (!status.ok() && first_error.ok()) {
      first_error = status;
    }
  }
  c_scatters_->Add(1);
  DrainCompletions();
  return first_error;
}

int Dstorm::Gather(SegmentId seg, const std::function<void(const RecvObject&)>& consume,
                   int64_t max_iter) {
  Segment& s = GetSegment(seg);
  int consumed = 0;

  ProtocolChecker& checker = transport_->checker();
  const bool checking = checker.enabled();
  const SimTime check_now = ctx_ != nullptr ? ctx_->Now() : transport_->now();

  const auto& in_edges = s.options.graph.InEdges(rank_);
  const int depth = s.options.queue_depth;
  const std::span<std::byte> scratch(s.snapshot);
  int64_t bytes_copied = 0;
  for (size_t pos = 0; pos < in_edges.size(); ++pos) {
    const int sender = in_edges[pos];
    if (!group_member_[static_cast<size_t>(sender)]) {
      continue;
    }
    uint64_t& last_consumed = s.last_consumed[static_cast<size_t>(sender)];
    // Step 1: headers only. Stale and empty slots are decided here.
    struct Candidate {
      SlotHeader h;
      int slot;
    };
    Candidate fresh[kMaxQueueDepth];
    int fresh_count = 0;
    for (int slot = 0; slot < depth; ++slot) {
      SlotHeader h;
      const SlotState state = ReadHeader(*transport_, s.recv_mr,
                                         SlotOffset(s, static_cast<int>(pos), slot),
                                         s.options.obj_bytes, last_consumed, &h);
      if (state == SlotState::kStale && checking) {
        checker.OnSlotRead(rank_, s.recv_mr.rkey, static_cast<int>(pos), slot, h.seq_front,
                           h.seq_back, h.iter, {}, ProtocolChecker::ReadAction::kSkippedStale,
                           check_now);
      } else if (state == SlotState::kTornRead) {
        c_torn_skipped_->Add(1);
      } else if (state == SlotState::kValid) {
        fresh[fresh_count++] = Candidate{h, slot};
      }
    }
    std::sort(fresh, fresh + fresh_count, [](const Candidate& a, const Candidate& b) {
      return a.h.seq_front < b.h.seq_front;
    });
    // Step 2, oldest first: one snapshot per candidate, consumed before the
    // next one is taken.
    for (int i = 0; i < fresh_count; ++i) {
      SlotHeader h = fresh[i].h;
      if (max_iter >= 0 && static_cast<int64_t>(h.iter) > max_iter) {
        break;  // a later round's object: it and everything newer stay queued
      }
      const int slot = fresh[i].slot;
      std::span<const std::byte> image;
      const SlotState state = ReadTail(*transport_, s.recv_mr,
                                       SlotOffset(s, static_cast<int>(pos), slot), scratch, &h,
                                       &image);
      if (image.data() == scratch.data()) {
        bytes_copied += static_cast<int64_t>(image.size());
      }
      if (state != SlotState::kValid) {
        c_torn_skipped_->Add(1);
        if (checking && state == SlotState::kTornStamps) {
          checker.OnSlotRead(rank_, s.recv_mr.rkey, static_cast<int>(pos), slot, h.seq_front,
                             h.seq_back, h.iter, {}, ProtocolChecker::ReadAction::kSkippedTorn,
                             check_now);
        }
        continue;  // torn (write in flight) — skip, the paper's atomic gather
      }
      const uint64_t seq = h.seq_front;
      RecvObject obj;
      obj.sender = sender;
      obj.iter = h.iter;
      obj.bytes = image.subspan(kPayloadOff, h.bytes);
      if (checking) {
        checker.OnSlotRead(rank_, s.recv_mr.rkey, static_cast<int>(pos), slot, seq, seq,
                           obj.iter, obj.bytes, ProtocolChecker::ReadAction::kConsumed, check_now);
      }
      if (flow_events_) {
        // Close the update's lineage: same flow id the sender computed at
        // post time (src, dst, rkey, wire seq), now landing in the reader's
        // gather span.
        telemetry_->trace.FlowFinish(kFlowUpdateName, check_now,
                                     MakeFlowId(sender, rank_, s.recv_mr.rkey, seq),
                                     static_cast<int64_t>(obj.iter));
      }
      // On the simulator obj.bytes views the receive slot itself, which the
      // next write into the region replaces: a consume that yields to the
      // engine would read (or keep) freed bytes.
      const uint64_t generation = transport_->ViewGeneration();
      consume(obj);
      MALT_CHECK(transport_->ViewGeneration() == generation)
          << "rank " << rank_ << ": a write landed while Gather's consume callback held sender "
          << sender << "'s object; consume must not yield";
      // Stamps skipped since the last consume were lost to overwrite-on-full.
      if (seq > last_consumed + 1) {
        c_overwrites_->Add(static_cast<int64_t>(seq - last_consumed - 1));
      }
      last_consumed = seq;
      ++consumed;
    }
  }
  c_gathers_->Add(1);
  c_objects_folded_->Add(consumed);
  c_gather_bytes_copied_->Add(bytes_copied);
  return consumed;
}

int64_t Dstorm::PeerIteration(SegmentId seg, int sender) const {
  const Segment& s = GetSegment(seg);
  const auto& in_edges = s.options.graph.InEdges(rank_);
  const auto it = std::find(in_edges.begin(), in_edges.end(), sender);
  if (it == in_edges.end()) {
    return -1;  // not an in-neighbor: nothing can ever arrive from it
  }
  const int pos = static_cast<int>(it - in_edges.begin());
  int64_t best = -1;
  for (int slot = 0; slot < s.options.queue_depth; ++slot) {
    // A torn slot is skipped: its stamp will be visible next poll.
    SlotHeader h;
    if (PollSlot(*transport_, s.recv_mr, SlotOffset(s, pos, slot), s.options.obj_bytes,
                 /*last_consumed=*/0, &h) == SlotState::kValid) {
      best = std::max(best, static_cast<int64_t>(h.iter));
    }
  }
  return best;
}

bool Dstorm::FreshAvailable(SegmentId seg) const {
  const Segment& s = GetSegment(seg);
  const auto& in_edges = s.options.graph.InEdges(rank_);
  for (size_t pos = 0; pos < in_edges.size(); ++pos) {
    const int sender = in_edges[pos];
    if (!group_member_[static_cast<size_t>(sender)]) {
      continue;
    }
    for (int slot = 0; slot < s.options.queue_depth; ++slot) {
      SlotHeader h;
      if (PollSlot(*transport_, s.recv_mr, SlotOffset(s, static_cast<int>(pos), slot),
                   s.options.obj_bytes, s.last_consumed[static_cast<size_t>(sender)],
                   &h) == SlotState::kValid) {
        return true;
      }
    }
  }
  return false;
}

void Dstorm::DrainCompletions() {
  Completion batch[32];
  for (;;) {
    const int n = transport_->PollCq(rank_, batch);
    if (n == 0) {
      return;
    }
    for (int i = 0; i < n; ++i) {
      if (batch[i].status == WcStatus::kSuccess) {
        continue;
      }
      c_error_completions_->Add(1);
      const int dst = batch[i].dst;
      if (!peer_failed_[static_cast<size_t>(dst)]) {
        peer_failed_[static_cast<size_t>(dst)] = true;
        failed_unreported_.push_back(dst);
        MALT_LOG_S(kInfo) << "dstorm rank " << rank_ << ": write to " << dst
                          << " failed (" << static_cast<int>(batch[i].status) << ")";
      }
    }
  }
}

Status Dstorm::Flush() {
  MALT_CHECK(ctx_ != nullptr) << "Dstorm not bound to an execution context";
  const SimTime t0 = ctx_->Now();
  ctx_->Wait([this] { return transport_->OutstandingWrites(rank_) == 0; });
  c_flushes_->Add(1);
  c_flush_ns_->Add(ctx_->Now() - t0);
  DrainCompletions();
  return failed_unreported_.empty()
             ? OkStatus()
             : UnavailableError("peer failure detected during flush");
}

bool Dstorm::ProbePeer(int peer) {
  MALT_CHECK(ctx_ != nullptr) << "Dstorm not bound to an execution context";
  if (peer == rank_) {
    return true;
  }
  if (peer_failed_[static_cast<size_t>(peer)]) {
    return false;  // fail-stop: once dead, stays dead
  }
  std::byte wire[sizeof(uint64_t)];
  StoreU64(wire, ++probe_count_);
  c_probes_->Add(1);
  WaitForSendRoom();
  const MrHandle dst_mr{peer, 1};
  Result<uint64_t> posted = transport_->PostWrite(rank_, ctx_->Now(), dst_mr,
                                                  static_cast<size_t>(rank_) * sizeof(uint64_t),
                                                  wire);
  if (!posted.ok()) {
    return false;
  }
  // Wait for this probe (and anything before it) to complete, then inspect
  // the failure record.
  ctx_->Wait([this] { return transport_->OutstandingWrites(rank_) == 0; });
  DrainCompletions();
  return !peer_failed_[static_cast<size_t>(peer)];
}

std::vector<int> Dstorm::TakeFailedPeers() {
  DrainCompletions();
  std::vector<int> failed = std::move(failed_unreported_);
  failed_unreported_.clear();
  return failed;
}

void Dstorm::RemoveFromGroup(int failed) {
  if (!group_member_[static_cast<size_t>(failed)]) {
    return;
  }
  group_member_[static_cast<size_t>(failed)] = false;
  ++group_epoch_;
}

std::vector<int> Dstorm::GroupMembers() const {
  std::vector<int> members;
  for (int node = 0; node < world_; ++node) {
    if (group_member_[static_cast<size_t>(node)]) {
      members.push_back(node);
    }
  }
  return members;
}

Status Dstorm::Barrier(SimDuration timeout) {
  ++barrier_round_;
  c_barriers_->Add(1);
  return BarrierResume(timeout);
}

void Dstorm::FinishBarriers() {
  MALT_CHECK(ctx_ != nullptr) << "Dstorm not bound to an execution context";
  constexpr uint64_t kFinished = std::numeric_limits<uint64_t>::max();
  // Like OnBarrierEnter in BarrierResume, this must precede the counter
  // writes: a peer's barrier can complete on our "finished" counter the
  // instant it applies, before our completions return.
  transport_->checker().OnRankFinished(rank_);
  std::byte wire[sizeof(uint64_t)];
  StoreU64(wire, kFinished);
  transport_->Write(barrier_mr_, static_cast<size_t>(rank_) * sizeof(uint64_t), wire);
  for (int member : GroupMembers()) {
    if (member == rank_) {
      continue;
    }
    WaitForSendRoom();
    const MrHandle dst_mr{member, 0};
    (void)transport_->PostWrite(rank_, ctx_->Now(), dst_mr,
                                static_cast<size_t>(rank_) * sizeof(uint64_t), wire);
  }
  // Drain so the writes are on the wire before this rank exits.
  ctx_->Wait([this] { return transport_->OutstandingWrites(rank_) == 0; });
  DrainCompletions();
}

Status Dstorm::BarrierResume(SimDuration timeout) {
  MALT_CHECK(ctx_ != nullptr) << "Dstorm not bound to an execution context";
  const uint64_t round = barrier_round_;

  ProtocolChecker& checker = transport_->checker();
  if (checker.enabled()) {
    // Enter precedes the arrival writes below, so no peer can observe (and
    // exit on) this round before the checker knows we entered it.
    checker.OnBarrierEnter(rank_, round, ctx_->Now());
  }

  // Publish my arrival: local store for my own slot, one-sided writes to the
  // rest of the group.
  std::byte wire[sizeof(uint64_t)];
  StoreU64(wire, round);
  transport_->Write(barrier_mr_, static_cast<size_t>(rank_) * sizeof(uint64_t), wire);
  for (int member : GroupMembers()) {
    if (member == rank_) {
      continue;
    }
    WaitForSendRoom();
    const MrHandle dst_mr{member, 0};
    Result<uint64_t> posted = transport_->PostWrite(
        rank_, ctx_->Now(), dst_mr, static_cast<size_t>(rank_) * sizeof(uint64_t), wire);
    if (!posted.ok()) {
      return posted.status();
    }
  }

  // Wait for every (current) group member to reach this round. The predicate
  // re-reads the membership list so a concurrent RemoveFromGroup (fault
  // recovery on this node) lets the barrier complete with the survivors.
  // Counters are read through the transport so peers' word-atomic arrival
  // writes are observed race-free under the shmem backend.
  last_barrier_blocker_ = -1;
  auto arrived = [this, round] {
    for (int member = 0; member < world_; ++member) {
      if (!group_member_[static_cast<size_t>(member)] || member == rank_) {
        continue;
      }
      std::byte seen_wire[sizeof(uint64_t)];
      if (!transport_->Read(barrier_mr_, static_cast<size_t>(member) * sizeof(uint64_t),
                            seen_wire)) {
        last_barrier_blocker_ = member;
        return false;  // counter word mid-write: not arrived yet
      }
      if (LoadU64(seen_wire) < round) {
        last_barrier_blocker_ = member;
        return false;
      }
    }
    return true;
  };

  if (timeout <= 0) {
    ctx_->Wait(arrived);
    DrainCompletions();
    if (checker.enabled()) {
      const std::vector<int> members = GroupMembers();
      checker.OnBarrierExit(rank_, round, members, ctx_->Now());
    }
    return OkStatus();
  }
  const bool ok = ctx_->WaitOr(arrived, ctx_->Now() + timeout);
  DrainCompletions();
  if (!ok) {
    c_barrier_timeouts_->Add(1);
    return DeadlineExceededError("barrier timeout on rank " + std::to_string(rank_));
  }
  if (checker.enabled()) {
    const std::vector<int> members = GroupMembers();
    checker.OnBarrierExit(rank_, round, members, ctx_->Now());
  }
  return OkStatus();
}

}  // namespace malt
