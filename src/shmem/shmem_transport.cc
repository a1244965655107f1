#include "src/shmem/shmem_transport.h"

#include <bit>

#include "src/base/log.h"

namespace malt {

// --- CompletionRing ----------------------------------------------------------

CompletionRing::CompletionRing(size_t capacity_pow2)
    : buf_(capacity_pow2), mask_(capacity_pow2 - 1) {
  MALT_CHECK(capacity_pow2 >= 2 && std::has_single_bit(capacity_pow2))
      << "completion ring capacity must be a power of two";
}

bool CompletionRing::TryPush(const Completion& c) {
  const uint64_t tail = tail_.load(std::memory_order_relaxed);
  const uint64_t head = head_.load(std::memory_order_acquire);
  if (tail - head > mask_) {
    return false;  // full
  }
  mc::PlainStore(&buf_[static_cast<size_t>(tail) & mask_], c);
  // Mutation kRingRelaxedPublish: publish the new tail without release
  // ordering — the consumer can observe the index before the slot contents.
  tail_.store(tail + 1, MALT_MC_MUTATE(kRingRelaxedPublish) ? std::memory_order_relaxed
                                                            : std::memory_order_release);
  return true;
}

bool CompletionRing::TryPop(Completion* out) {
  const uint64_t head = head_.load(std::memory_order_relaxed);
  const uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head == tail) {
    return false;  // empty
  }
  *out = mc::PlainLoad(&buf_[static_cast<size_t>(head) & mask_]);
  head_.store(head + 1, std::memory_order_release);
  return true;
}

bool CompletionRing::Empty() const {
  return head_.load(std::memory_order_acquire) == tail_.load(std::memory_order_acquire);
}

// --- ShmemTransport ----------------------------------------------------------

ShmemTransport::Region::Region(size_t bytes_arg, size_t stripe_arg)
    : bytes(bytes_arg), stripe_bytes(stripe_arg) {
  if (stripe_bytes > 0) {
    guards = std::vector<SeqLock>((bytes_arg + stripe_bytes - 1) / stripe_bytes);
  }
}

ShmemTransport::ShmemTransport(int nodes, ShmemOptions options, TelemetryDomain* telemetry,
                               ProtocolChecker* checker)
    : nodes_(nodes),
      options_(options),
      owned_telemetry_(telemetry == nullptr ? std::make_unique<TelemetryDomain>(nodes)
                                            : nullptr),
      telemetry_(telemetry == nullptr ? owned_telemetry_.get() : telemetry),
      owned_checker_(checker == nullptr
                         ? std::make_unique<ProtocolChecker>(CheckLevel::kOff, nodes)
                         : nullptr),
      checker_(checker == nullptr ? owned_checker_.get() : checker),
      flow_events_(telemetry_->options().flow_events),
      edges_(static_cast<size_t>(nodes) * static_cast<size_t>(nodes)),
      stats_(nodes),
      regions_(static_cast<size_t>(nodes)),
      region_index_(static_cast<size_t>(nodes) * kMaxRegionsPerNode),
      next_wr_id_(static_cast<size_t>(nodes), 1) {
  MALT_CHECK(nodes >= 1) << "shmem transport needs at least one rank";
  MALT_CHECK(telemetry_->ranks() >= nodes) << "telemetry domain smaller than transport";
  // A bound checker's hooks fire concurrently from every rank's thread; its
  // exact-instant (serialized) mode would misreport benign races.
  MALT_CHECK(!checker_->enabled() || checker_->concurrent())
      << "a checker bound to the shmem transport must be in concurrent mode";
  counters_.resize(static_cast<size_t>(nodes));
  for (int node = 0; node < nodes; ++node) {
    MetricRegistry& reg = telemetry_->rank(node).metrics;
    NodeCounters& c = counters_[static_cast<size_t>(node)];
    c.writes_posted = reg.GetCounter("fabric.writes_posted");
    c.bytes_sent = reg.GetCounter("fabric.bytes_sent");
    c.bytes_received = reg.GetCounter("fabric.bytes_received");
    c.completions_success = reg.GetCounter("fabric.completions.success");
    c.completions_remote_dead = reg.GetCounter("fabric.completions.remote_dead");
    c.completions_invalid_rkey = reg.GetCounter("fabric.completions.invalid_rkey");
    c.write_bytes = reg.GetHistogram("fabric.write_bytes",
                                     HistogramMetric::Options{0.0, 1.0e6, 64});
    cq_.emplace_back(options_.cq_capacity);
    alive_.emplace_back(true);
  }
}

ShmemTransport::ResolvedEdge ShmemTransport::Edge(int src, int dst) {
  EdgeCells& cell = edges_[static_cast<size_t>(src) * static_cast<size_t>(nodes_) +
                           static_cast<size_t>(dst)];
  Counter* bytes = cell.bytes.load(std::memory_order_acquire);
  if (bytes == nullptr) {
    MetricRegistry& reg = telemetry_->rank(dst).metrics;
    bytes = reg.GetCounter(EdgeMetricName(src, dst, "bytes"));
    cell.msgs.store(reg.GetCounter(EdgeMetricName(src, dst, "msgs")),
                    std::memory_order_release);
    cell.delivery_ns.store(reg.GetHistogram(EdgeMetricName(src, dst, "delivery_ns"),
                                            EdgeDeliveryHistogramOptions()),
                           std::memory_order_release);
    cell.bytes.store(bytes, std::memory_order_release);
  }
  return ResolvedEdge{bytes, cell.msgs.load(std::memory_order_acquire),
                      cell.delivery_ns.load(std::memory_order_acquire)};
}

void ShmemTransport::AccountPost(int src, int dst, size_t bytes) {
  stats_.Record(src, dst, bytes);
  NodeCounters& sc = counters_[static_cast<size_t>(src)];
  sc.writes_posted->Add(1);
  sc.bytes_sent->Add(static_cast<int64_t>(bytes));
  sc.write_bytes->Observe(static_cast<double>(bytes));
  // Cross-thread bump of the receiver's cells; every metric primitive is a
  // relaxed atomic (see metrics.h).
  counters_[static_cast<size_t>(dst)].bytes_received->Add(static_cast<int64_t>(bytes));
  const ResolvedEdge edge = Edge(src, dst);
  edge.bytes->Add(static_cast<int64_t>(bytes));
  edge.msgs->Add(1);
}

MrHandle ShmemTransport::RegisterMemory(int node, size_t bytes, size_t guard_stripe_bytes) {
  MALT_CHECK(node >= 0 && node < nodes_) << "bad node " << node;
  MutexLock lock(region_mu_);
  auto& list = regions_[static_cast<size_t>(node)];
  MALT_CHECK(list.size() < kMaxRegionsPerNode)
      << "region index full on node " << node << " (" << kMaxRegionsPerNode << " regions)";
  list.push_back(std::make_unique<Region>(bytes, guard_stripe_bytes));
  const auto rkey = static_cast<uint32_t>(list.size() - 1);
  region_index_[static_cast<size_t>(node) * kMaxRegionsPerNode + rkey].store(
      list.back().get(), std::memory_order_release);
  return MrHandle{node, rkey};
}

void ShmemTransport::DeregisterMemory(MrHandle mr) {
  Region* region = FindRegion(mr);
  MALT_CHECK(region != nullptr) << "deregister of invalid handle";
  region->registered.store(false, std::memory_order_release);
}

ShmemTransport::Region* ShmemTransport::FindRegion(MrHandle mr) const {
  if (!mr.valid() || mr.node >= nodes_ || mr.rkey >= kMaxRegionsPerNode) {
    return nullptr;
  }
  return region_index_[static_cast<size_t>(mr.node) * kMaxRegionsPerNode + mr.rkey].load(
      std::memory_order_acquire);
}

std::span<std::byte> ShmemTransport::Data(MrHandle mr) {
  Region* region = FindRegion(mr);
  MALT_CHECK(region != nullptr) << "data access through invalid handle";
  return std::span<std::byte>(region->bytes.data(), region->bytes.size());
}

void ShmemTransport::GuardedStore(Region& region, size_t offset,
                                  std::span<const std::byte> data) {
  if (region.stripe_bytes == 0 || data.empty()) {
    // Release fence: an unguarded store acts as a publish (barrier counters,
    // probe stamps) — prior writes by this thread must be visible to a
    // reader that observes it (Read's acquire fence is the other half).
    // Mutation kShmemPublishFenceDropped removes the fence, letting earlier
    // payload stores surface after the publish.
    if (!MALT_MC_MUTATE(kShmemPublishFenceDropped)) {
      mc::Fence(std::memory_order_release);
    }
    AtomicStoreBytes(region.bytes.data() + offset, data.data(), data.size());
    return;
  }
  const size_t first = offset / region.stripe_bytes;
  const size_t last = (offset + data.size() - 1) / region.stripe_bytes;
  for (size_t s = first; s <= last; ++s) {
    region.guards[s].WriteBegin();
  }
  AtomicStoreBytes(region.bytes.data() + offset, data.data(), data.size());
  for (size_t s = last + 1; s-- > first;) {
    region.guards[s].WriteEnd();
  }
}

bool ShmemTransport::Read(MrHandle mr, size_t offset, std::span<std::byte> out) const {
  Region* region = FindRegion(mr);
  MALT_CHECK(region != nullptr) << "read through invalid handle";
  MALT_CHECK(offset + out.size() <= region->bytes.size())
      << "read past region end (rkey " << mr.rkey << ")";
  if (region->stripe_bytes == 0 || out.empty()) {
    AtomicLoadBytes(out.data(), region->bytes.data() + offset, out.size());
    // Acquire half of the unguarded-store publish protocol (see
    // GuardedStore).
    mc::Fence(std::memory_order_acquire);
    return true;
  }
  const size_t first = offset / region->stripe_bytes;
  const size_t last = (offset + out.size() - 1) / region->stripe_bytes;
  // dstorm reads stay within one stripe (slot reads within a slot-sized
  // stripe; word reads in word-striped regions). Multi-stripe snapshots
  // can't be validated as one unit; cap how many we track.
  constexpr size_t kMaxStripes = 8;
  uint64_t begin_seq[kMaxStripes];
  const size_t nstripes = last - first + 1;
  MALT_CHECK(nstripes <= kMaxStripes) << "read spans too many guard stripes";
  for (size_t s = 0; s < nstripes; ++s) {
    begin_seq[s] = region->guards[first + s].sequence();
    if (begin_seq[s] & 1) {
      return false;  // write in flight
    }
  }
  AtomicLoadBytes(out.data(), region->bytes.data() + offset, out.size());
  // Order the payload loads before the validating sequence loads.
  mc::Fence(std::memory_order_acquire);
  for (size_t s = 0; s < nstripes; ++s) {
    if (region->guards[first + s].sequence() != begin_seq[s]) {
      return false;  // overwritten mid-read: torn
    }
  }
  return true;
}

void ShmemTransport::Write(MrHandle mr, size_t offset, std::span<const std::byte> data) {
  Region* region = FindRegion(mr);
  MALT_CHECK(region != nullptr) << "write through invalid handle";
  MALT_CHECK(offset + data.size() <= region->bytes.size())
      << "write past region end (rkey " << mr.rkey << ")";
  GuardedStore(*region, offset, data);
}

void ShmemTransport::PushCompletion(int src, const Completion& c) {
  CompletionRing& ring = cq_[static_cast<size_t>(src)];
  if (!ring.TryPush(c)) {
    // Inline completion + generous capacity makes this unreachable in
    // practice; count rather than block so a pathological caller degrades
    // into lost completions, not deadlock.
    ring.CountDrop();
    return;
  }
  NodeCounters& sc = counters_[static_cast<size_t>(src)];
  switch (c.status) {
    case WcStatus::kSuccess:
      sc.completions_success->Add(1);
      break;
    case WcStatus::kRemoteDead:
      sc.completions_remote_dead->Add(1);
      break;
    case WcStatus::kUnreachable:
    case WcStatus::kInvalidRkey:
      sc.completions_invalid_rkey->Add(1);
      break;
  }
}

Result<uint64_t> ShmemTransport::PostWrite(int src, SimTime now, MrHandle dst_mr,
                                           size_t dst_offset,
                                           std::span<const std::byte> data,
                                           const WireTrace& trace) {
  (void)now;  // wall time passes on its own
  MALT_CHECK(src >= 0 && src < nodes_) << "bad src " << src;
  if (!dst_mr.valid()) {
    return InvalidArgumentError("invalid destination memory handle");
  }
  const int dst = dst_mr.node;
  const uint64_t wr_id = next_wr_id_[static_cast<size_t>(src)]++;
  WcStatus status = WcStatus::kSuccess;
  if (!NodeAlive(dst)) {
    status = WcStatus::kRemoteDead;
  } else {
    Region* region = FindRegion(dst_mr);
    if (region == nullptr || !region->registered.load(std::memory_order_acquire) ||
        dst_offset + data.size() > region->bytes.size()) {
      status = WcStatus::kInvalidRkey;
    } else {
      // The sender's CPU is the DMA engine: copy into the peer's segment
      // under the stripe guard, receiver uninvolved. The checker's apply
      // hooks bracket the store: the begin hook precedes the seqlock
      // WriteBegin, so a reader that validated this content (acquire on the
      // guard) is guaranteed to observe the ledger entry, and the end hook
      // marks the write consistent once the stamps are in place.
      const bool checked = checker_->enabled();
      if (checked) {
        checker_->OnRemoteWriteApply(src, dst, dst_mr.rkey, dst_offset, data,
                                     ProtocolChecker::ApplyPhase::kFirstHalf, clock_.NowNs());
      }
      GuardedStore(*region, dst_offset, data);
      if (checked) {
        checker_->OnRemoteWriteApply(src, dst, dst_mr.rkey, dst_offset, data,
                                     ProtocolChecker::ApplyPhase::kSecondHalf, clock_.NowNs());
      }
      if (trace.enabled() && flow_events_) {
        // Receiver-side apply, emitted from the sender's thread into the
        // receiver's (internally locked) ring: a small slice for the 't'
        // flow event to bind to, plus the wall-clock delivery latency on
        // the edge's histogram.
        const SimTime apply_now = clock_.NowNs();
        // The apply events land in the SENDER's ring (tagged with the
        // receiver's track id for the export): every ring stays
        // single-writer, so the per-write hot path never contends a lock —
        // which matters badly when ranks timeslice a single core.
        TraceRing& ring = telemetry_->rank(src).trace;
        ring.EmitPair({"update.apply", 'X', apply_now, 100, nullptr, 0, 0, dst},
                      {kFlowUpdateName, 't', apply_now, 0, "iter",
                       static_cast<int64_t>(trace.iter), trace.flow_id, dst});
        Edge(src, dst).delivery_ns->Observe(static_cast<double>(apply_now - trace.sent_at));
      }
    }
  }
  AccountPost(src, dst, data.size());
  PushCompletion(src, Completion{wr_id, dst, status});
  return wr_id;
}

int ShmemTransport::PollCq(int node, std::span<Completion> out) {
  CompletionRing& ring = cq_[static_cast<size_t>(node)];
  int produced = 0;
  while (produced < static_cast<int>(out.size()) &&
         ring.TryPop(&out[static_cast<size_t>(produced)])) {
    ++produced;
  }
  return produced;
}

bool ShmemTransport::CqNonEmpty(int node) const {
  return !cq_[static_cast<size_t>(node)].Empty();
}

Status ShmemTransport::SetReachable(int a, int b, bool reachable) {
  (void)a;
  (void)b;
  (void)reachable;
  return FailedPreconditionError(
      "partition injection needs a network to partition; the shmem transport has none "
      "(use --transport=sim)");
}

bool ShmemTransport::Reachable(int a, int b) const { return NodeAlive(a) && NodeAlive(b); }

void ShmemTransport::MarkDead(int node) {
  MALT_CHECK(node >= 0 && node < nodes_) << "bad node " << node;
  alive_[static_cast<size_t>(node)].store(false, std::memory_order_release);
  // The HCA is gone: the dead node's regions stop accepting remote writes.
  MutexLock lock(region_mu_);
  for (const auto& region : regions_[static_cast<size_t>(node)]) {
    if (region != nullptr) {
      region->registered.store(false, std::memory_order_release);
    }
  }
}

}  // namespace malt
