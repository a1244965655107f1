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
  (void)guard_stripe_bytes;  // concurrency hint; meaningless under event serialization
  MALT_CHECK(node >= 0 && node < nodes()) << "bad node " << node;
  auto region = std::make_unique<Region>();
  region->bytes.resize(bytes);
  auto& list = regions_[static_cast<size_t>(node)];
  list.push_back(std::move(region));
  return MrHandle{node, static_cast<uint32_t>(list.size() - 1)};
}

void Fabric::DeregisterMemory(MrHandle mr) {
  MALT_CHECK(mr.valid()) << "deregister of invalid handle";
  regions_[static_cast<size_t>(mr.node)][mr.rkey]->registered = false;
}

std::span<std::byte> Fabric::Data(MrHandle mr) {
  MALT_CHECK(mr.valid()) << "data access through invalid handle";
  Region& region = *regions_[static_cast<size_t>(mr.node)][mr.rkey];
  return std::span<std::byte>(region.bytes.data(), region.bytes.size());
}

bool Fabric::Read(MrHandle mr, size_t offset, std::span<std::byte> out) const {
  MALT_CHECK(mr.valid()) << "read through invalid handle";
  const Region& region = *regions_[static_cast<size_t>(mr.node)][mr.rkey];
  MALT_CHECK(offset + out.size() <= region.bytes.size())
      << "read past region end (rkey " << mr.rkey << ")";
  std::memcpy(out.data(), region.bytes.data() + offset, out.size());
  return true;  // event serialization: a local read never races an apply
}

void Fabric::Write(MrHandle mr, size_t offset, std::span<const std::byte> data) {
  MALT_CHECK(mr.valid()) << "write through invalid handle";
  Region& region = *regions_[static_cast<size_t>(mr.node)][mr.rkey];
  MALT_CHECK(offset + data.size() <= region.bytes.size())
      << "write past region end (rkey " << mr.rkey << ")";
  std::memcpy(region.bytes.data() + offset, data.data(), data.size());
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
  // zero-copy variant would pin the buffer until completion).
  auto payload = std::make_shared<std::vector<std::byte>>(data.begin(), data.end());

  auto apply_payload = [this, dst_mr, dst_offset, payload](size_t from, size_t to) {
    Region& region = *regions_[static_cast<size_t>(dst_mr.node)][dst_mr.rkey];
    if (!region.registered) {
      return false;
    }
    if (dst_offset + payload->size() > region.bytes.size()) {
      return false;
    }
    std::memcpy(region.bytes.data() + dst_offset + from, payload->data() + from, to - from);
    return true;
  };

  const bool split = options_.torn_writes && payload->size() >= 2;
  const size_t half = payload->size() / 2;
  const SimTime second_half_at = arrival + options_.net.latency;

  engine_.ScheduleEvent(arrival, [this, src, dst, dst_mr, dst_offset, wr_id, ack, apply_payload,
                                  split, half, second_half_at, payload, trace] {
    WcStatus status = WcStatus::kSuccess;
    if (!alive_[static_cast<size_t>(dst)]) {
      status = WcStatus::kRemoteDead;
    } else if (!Reachable(src, dst)) {
      status = WcStatus::kUnreachable;
    } else {
      const bool ok = split ? apply_payload(0, half) : apply_payload(0, payload->size());
      if (!ok) {
        status = WcStatus::kInvalidRkey;
      } else {
        if (trace.enabled()) {
          RecordApply(src, dst, trace, engine_.now());
        }
        if (split) {
          checker().OnRemoteWriteApply(src, dst, dst_mr.rkey, dst_offset, *payload,
                                       ProtocolChecker::ApplyPhase::kFirstHalf, engine_.now());
          // Second half lands one latency later — a reader in between
          // observes a torn write, which the dstorm sequence stamps detect.
          engine_.ScheduleEvent(
              second_half_at,
              [this, src, dst, dst_mr, dst_offset, apply_payload, half, payload] {
                if (apply_payload(half, payload->size())) {
                  checker().OnRemoteWriteApply(src, dst, dst_mr.rkey, dst_offset, *payload,
                                               ProtocolChecker::ApplyPhase::kSecondHalf,
                                               engine_.now());
                }
              });
        } else {
          checker().OnRemoteWriteApply(src, dst, dst_mr.rkey, dst_offset, *payload,
                                       ProtocolChecker::ApplyPhase::kFull, engine_.now());
        }
      }
    }
    DeliverCompletion(src, wr_id, dst, status, ack);
  });
  return wr_id;
}

}  // namespace malt
