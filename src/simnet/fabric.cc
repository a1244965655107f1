#include "src/simnet/fabric.h"

#include <algorithm>
#include <cstring>

#include "src/base/log.h"

namespace malt {

Fabric::Fabric(Engine& engine, int nodes, FabricOptions options, TelemetryDomain* telemetry,
               ProtocolChecker* checker)
    : Transport(nodes, telemetry, checker),
      engine_(engine),
      options_(options),
      regions_(static_cast<size_t>(nodes)),
      outstanding_(static_cast<size_t>(nodes), 0),
      nic_busy_until_(static_cast<size_t>(nodes), 0),
      alive_(static_cast<size_t>(nodes), true),
      unreachable_(static_cast<size_t>(nodes) * static_cast<size_t>(nodes), false) {
  engine_.AddKillHook([this](int pid) { OnKill(pid); });
}

void Fabric::OnKill(int pid) {
  if (pid < 0 || pid >= nodes()) {
    return;  // auxiliary process (not a fabric node)
  }
  alive_[static_cast<size_t>(pid)] = false;
  // The HCA is gone: local regions stop accepting remote writes.
  for (auto& region : regions_[static_cast<size_t>(pid)]) {
    if (region != nullptr) {
      region->registered = false;
    }
  }
}

MrHandle Fabric::RegisterMemory(int node, size_t bytes, size_t guard_stripe_bytes) {
  MALT_CHECK(node >= 0 && node < nodes()) << "bad node " << node;
  auto region = std::make_unique<Region>();
  region->size = bytes;
  region->striped = guard_stripe_bytes > 0 && bytes > 0;
  region->stripe = region->striped ? std::min(guard_stripe_bytes, bytes) : bytes;
  const size_t count = bytes == 0 ? 0 : (bytes + region->stripe - 1) / region->stripe;
  region->stripes.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    region->stripes.push_back(region->NewBuffer());
  }
  auto& list = regions_[static_cast<size_t>(node)];
  list.push_back(std::move(region));
  return MrHandle{node, static_cast<uint32_t>(list.size() - 1)};
}

std::byte* Fabric::Region::NewBuffer() {
  owned.push_back(std::make_unique<std::byte[]>(stripe));
  return owned.back().get();
}

void Fabric::Region::CopyIn(size_t offset, std::span<const std::byte> data) {
  for (size_t done = 0; done < data.size();) {
    const size_t at = offset + done;
    const size_t n = std::min(stripe - at % stripe, data.size() - done);
    std::memcpy(stripes[at / stripe] + at % stripe, data.data() + done, n);
    done += n;
  }
}

Fabric::Region* Fabric::FindRegion(MrHandle mr) const {
  if (!mr.valid() || mr.node >= nodes()) {
    return nullptr;
  }
  const auto& list = regions_[static_cast<size_t>(mr.node)];
  return mr.rkey < list.size() ? list[mr.rkey].get() : nullptr;
}

void Fabric::DeregisterMemory(MrHandle mr) {
  Region* region = FindRegion(mr);
  MALT_CHECK(region != nullptr) << "deregister of invalid handle";
  region->registered = false;
}

std::span<const std::byte> Fabric::Snapshot(MrHandle mr, size_t offset, size_t len,
                                            std::span<std::byte> scratch) const {
  const Region* region = FindRegion(mr);
  MALT_CHECK(region != nullptr) << "read through invalid handle";
  MALT_CHECK(offset + len <= region->size) << "read past region end (rkey " << mr.rkey << ")";
  if (len == 0) {
    return {};
  }
  const size_t in = offset % region->stripe;
  if (in + len <= region->stripe) {
    return {region->stripes[offset / region->stripe] + in, len};
  }
  MALT_CHECK(len <= scratch.size()) << "snapshot scratch smaller than the read";
  for (size_t done = 0; done < len;) {
    const size_t at = offset + done;
    const size_t n = std::min(region->stripe - at % region->stripe, len - done);
    std::memcpy(scratch.data() + done, region->stripes[at / region->stripe] + at % region->stripe,
                n);
    done += n;
  }
  return scratch.first(len);
}

void Fabric::Write(MrHandle mr, size_t offset, std::span<const std::byte> data) {
  Region* region = FindRegion(mr);
  MALT_CHECK(region != nullptr) << "write through invalid handle";
  MALT_CHECK(offset + data.size() <= region->size)
      << "write past region end (rkey " << mr.rkey << ")";
  ++view_generation_;
  region->CopyIn(offset, data);
}

bool Fabric::HasSendRoom(int node) const {
  return outstanding_[static_cast<size_t>(node)] < options_.send_queue_depth;
}

int Fabric::OutstandingWrites(int node) const { return outstanding_[static_cast<size_t>(node)]; }

void Fabric::SetReachable(int a, int b, bool reachable) {
  const auto n = static_cast<size_t>(nodes());
  unreachable_[static_cast<size_t>(a) * n + static_cast<size_t>(b)] = !reachable;
  unreachable_[static_cast<size_t>(b) * n + static_cast<size_t>(a)] = !reachable;
}

bool Fabric::Reachable(int a, int b) const {
  return !unreachable_[static_cast<size_t>(a) * static_cast<size_t>(nodes()) +
                       static_cast<size_t>(b)];
}

void Fabric::DeliverCompletion(int src, uint64_t wr_id, int dst, WcStatus status, SimTime when) {
  engine_.ScheduleEvent(when, [this, src, wr_id, dst, status] {
    if (!alive_[static_cast<size_t>(src)]) {
      return;  // sender died meanwhile; nobody polls this CQ
    }
    outstanding_[static_cast<size_t>(src)] -= 1;
    Complete(src, Completion{wr_id, dst, status});
  });
}

Result<uint64_t> Fabric::PostWrite(int src, SimTime now, MrHandle dst_mr, size_t dst_offset,
                                   std::span<const std::byte> data, const WireTrace& trace) {
  MALT_CHECK(src >= 0 && src < nodes()) << "bad src " << src;
  if (!dst_mr.valid()) {
    return InvalidArgumentError("invalid destination memory handle");
  }
  if (!HasSendRoom(src)) {
    return ResourceExhaustedError("send queue full on node " + std::to_string(src));
  }
  const int dst = dst_mr.node;
  const uint64_t wr_id = next_wr_id_++;

  // NIC serialization: back-to-back posts queue behind one another; this is
  // what lets the network-saturation test (§6.2) observe line rate.
  const SimTime depart = std::max(now, nic_busy_until_[static_cast<size_t>(src)]);
  const SimTime dma_done = depart + options_.net.SerializationDelay(data.size());
  nic_busy_until_[static_cast<size_t>(src)] = dma_done;
  const SimTime arrival = dma_done + options_.net.latency;
  const SimTime ack = arrival + options_.net.latency;

  outstanding_[static_cast<size_t>(src)] += 1;
  AccountPost(src, dst, data.size());

  // DMA snapshot: the payload is captured at post time, so the application
  // may immediately reuse its buffer (same contract as a copying send; the
  // zero-copy variant would pin the buffer until completion). A write that
  // fills the start of one stripe of a striped region is captured into a
  // spare stripe buffer, which the arrival swaps in whole; any other write
  // keeps a private copy that the arrival copies into place.
  const bool split = options_.torn_writes && data.size() >= 2;
  Region* region = FindRegion(dst_mr);
  const bool swap = region != nullptr && region->striped && !split &&
                    dst_offset % region->stripe == 0 && data.size() <= region->stripe &&
                    dst_offset + data.size() <= region->size;
  std::byte* stripe_buf = nullptr;
  std::shared_ptr<const std::vector<std::byte>> copy;
  if (swap) {
    if (region->spare.empty()) {
      region->spare.push_back(region->NewBuffer());
    }
    stripe_buf = region->spare.back();
    region->spare.pop_back();
    std::memcpy(stripe_buf, data.data(), data.size());
  } else {
    copy = std::make_shared<const std::vector<std::byte>>(data.begin(), data.end());
  }
  const size_t len = data.size();
  const SimTime second_half_at = arrival + options_.net.latency;

  engine_.ScheduleEvent(arrival, [this, src, dst, dst_mr, dst_offset, wr_id, ack, stripe_buf, copy,
                                  len, split, second_half_at, trace] {
    const std::span<const std::byte> payload = stripe_buf != nullptr
                                                   ? std::span<const std::byte>(stripe_buf, len)
                                                   : std::span<const std::byte>(*copy);
    Region* dst_region = FindRegion(dst_mr);
    WcStatus status = WcStatus::kSuccess;
    if (!alive_[static_cast<size_t>(dst)]) {
      status = WcStatus::kRemoteDead;
    } else if (!Reachable(src, dst)) {
      status = WcStatus::kUnreachable;
    } else if (dst_region == nullptr || !dst_region->registered ||
               dst_offset + len > dst_region->size) {
      status = WcStatus::kInvalidRkey;
    }
    if (status != WcStatus::kSuccess) {
      if (stripe_buf != nullptr) {
        dst_region->spare.push_back(stripe_buf);
      }
      DeliverCompletion(src, wr_id, dst, status, ack);
      return;
    }
    ++view_generation_;
    if (stripe_buf != nullptr) {
      // The stripe's bytes past the payload are the installed buffer's as of
      // now; the replaced buffer goes back to the spares.
      std::byte*& installed = dst_region->stripes[dst_offset / dst_region->stripe];
      std::memcpy(stripe_buf + len, installed + len, dst_region->stripe - len);
      dst_region->spare.push_back(installed);
      installed = stripe_buf;
    } else {
      dst_region->CopyIn(dst_offset, split ? payload.first(len / 2) : payload);
    }
    if (trace.enabled()) {
      RecordApply(src, dst, trace, engine_.now());
    }
    if (split) {
      checker().OnRemoteWriteApply(src, dst, dst_mr.rkey, dst_offset, payload,
                                   ProtocolChecker::ApplyPhase::kFirstHalf, engine_.now());
      // Second half lands one latency later — a reader in between observes
      // a torn write, which the dstorm sequence stamps detect.
      engine_.ScheduleEvent(second_half_at, [this, src, dst, dst_mr, dst_offset, dst_region, copy] {
        if (!dst_region->registered) {
          return;
        }
        const size_t half = copy->size() / 2;
        ++view_generation_;
        dst_region->CopyIn(dst_offset + half, std::span<const std::byte>(*copy).subspan(half));
        checker().OnRemoteWriteApply(src, dst, dst_mr.rkey, dst_offset, *copy,
                                     ProtocolChecker::ApplyPhase::kSecondHalf, engine_.now());
      });
    } else {
      checker().OnRemoteWriteApply(src, dst, dst_mr.rkey, dst_offset, payload,
                                   ProtocolChecker::ApplyPhase::kFull, engine_.now());
    }
    DeliverCompletion(src, wr_id, dst, status, ack);
  });
  return wr_id;
}

}  // namespace malt
