#include "src/shmem/shmem_transport.h"

#include "src/base/log.h"

namespace malt {

ShmemTransport::Region::Region(size_t bytes_arg, size_t stripe_arg)
    : bytes(bytes_arg), stripe_bytes(stripe_arg) {
  if (stripe_bytes > 0) {
    guards = std::vector<SeqLock>((bytes_arg + stripe_bytes - 1) / stripe_bytes);
  }
}

ShmemTransport::ShmemTransport(int nodes, TelemetryDomain* telemetry, ProtocolChecker* checker)
    : Transport(nodes, telemetry, checker),
      regions_(static_cast<size_t>(nodes)),
      region_index_(static_cast<size_t>(nodes) * kMaxRegionsPerNode),
      next_wr_id_(static_cast<size_t>(nodes), 1) {
  MALT_CHECK(nodes >= 1) << "shmem transport needs at least one rank";
  // A bound checker's hooks fire concurrently from every rank's thread; its
  // exact-instant (serialized) mode would misreport benign races.
  MALT_CHECK(!this->checker().enabled() || this->checker().concurrent())
      << "a checker bound to the shmem transport must be in concurrent mode";
  for (int node = 0; node < nodes; ++node) {
    alive_.emplace_back(true);
  }
}

MrHandle ShmemTransport::RegisterMemory(int node, size_t bytes, size_t guard_stripe_bytes) {
  MALT_CHECK(node >= 0 && node < nodes()) << "bad node " << node;
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
  if (!mr.valid() || mr.node >= nodes() || mr.rkey >= kMaxRegionsPerNode) {
    return nullptr;
  }
  return region_index_[static_cast<size_t>(mr.node) * kMaxRegionsPerNode + mr.rkey].load(
      std::memory_order_acquire);
}

void ShmemTransport::GuardedStore(Region& region, size_t offset,
                                  std::span<const std::byte> data) {
  if (region.stripe_bytes == 0 || data.empty()) {
    // Release fence: an unguarded store acts as a publish (barrier counters,
    // probe stamps) — prior writes by this thread must be visible to a
    // reader that observes it (Snapshot's acquire fence is the other half).
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
  // One bulk copy: the stripe sequences, not per-word atomicity, keep a
  // reader from accepting a torn payload (GuardedStoreBytes).
  GuardedStoreBytes(region.bytes.data() + offset, data.data(), data.size());
  for (size_t s = last + 1; s-- > first;) {
    region.guards[s].WriteEnd();
  }
}

std::span<const std::byte> ShmemTransport::Snapshot(MrHandle mr, size_t offset, size_t len,
                                                    std::span<std::byte> scratch) const {
  Region* region = FindRegion(mr);
  MALT_CHECK(region != nullptr) << "read through invalid handle";
  MALT_CHECK(offset + len <= region->bytes.size())
      << "read past region end (rkey " << mr.rkey << ")";
  MALT_CHECK(len <= scratch.size()) << "snapshot scratch smaller than the read";
  const std::span<std::byte> out = scratch.first(len);
  if (region->stripe_bytes == 0 || len == 0) {
    AtomicLoadBytes(out.data(), region->bytes.data() + offset, len);
    // Acquire half of the unguarded-store publish protocol (see
    // GuardedStore).
    mc::Fence(std::memory_order_acquire);
    return out;
  }
  const size_t first = offset / region->stripe_bytes;
  const size_t last = (offset + len - 1) / region->stripe_bytes;
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
      return {};  // write in flight
    }
  }
  GuardedLoadBytes(out.data(), region->bytes.data() + offset, len);
  // Order the payload loads before the validating sequence loads.
  mc::Fence(std::memory_order_acquire);
  for (size_t s = 0; s < nstripes; ++s) {
    if (region->guards[first + s].sequence() != begin_seq[s]) {
      return {};  // overwritten mid-read: torn
    }
  }
  return out;
}

void ShmemTransport::Write(MrHandle mr, size_t offset, std::span<const std::byte> data) {
  Region* region = FindRegion(mr);
  MALT_CHECK(region != nullptr) << "write through invalid handle";
  MALT_CHECK(offset + data.size() <= region->bytes.size())
      << "write past region end (rkey " << mr.rkey << ")";
  GuardedStore(*region, offset, data);
}

Result<uint64_t> ShmemTransport::PostWrite(int src, SimTime now, MrHandle dst_mr,
                                           size_t dst_offset,
                                           std::span<const std::byte> data,
                                           const WireTrace& trace) {
  (void)now;  // wall time passes on its own
  MALT_CHECK(src >= 0 && src < nodes()) << "bad src " << src;
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
      ProtocolChecker& check = checker();
      const bool checked = check.enabled();
      if (checked) {
        check.OnRemoteWriteApply(src, dst, dst_mr.rkey, dst_offset, data,
                                 ProtocolChecker::ApplyPhase::kFirstHalf, clock_.NowNs());
      }
      GuardedStore(*region, dst_offset, data);
      if (checked) {
        check.OnRemoteWriteApply(src, dst, dst_mr.rkey, dst_offset, data,
                                 ProtocolChecker::ApplyPhase::kSecondHalf, clock_.NowNs());
      }
      if (trace.enabled()) {
        RecordApply(src, dst, trace, clock_.NowNs());
      }
    }
  }
  AccountPost(src, dst, data.size());
  Complete(src, Completion{wr_id, dst, status});
  return wr_id;
}

void ShmemTransport::MarkDead(int node) {
  MALT_CHECK(node >= 0 && node < nodes()) << "bad node " << node;
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
