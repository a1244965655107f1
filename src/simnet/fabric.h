// Simulated RDMA fabric: the verbs one-sided-write subset that dstorm needs
// (the simulator backend of the Transport interface, src/comm/transport.h).
//
// The paper's dstorm runs over one-sided RDMA on InfiniBand and relies on three
// hardware properties, all preserved here:
//   1. One-sidedness — a remote write lands in the destination's registered
//      memory without involving the destination CPU. In the simulator the
//      payload is snapshotted at post time (DMA read) and applied by the
//      engine at the virtual arrival instant, moving each payload once:
//      a striped region (RegisterMemory's stripe hint; dstorm's receive
//      slots) keeps every stripe in its own buffer, a stripe-aligned post
//      copies its payload into a spare stripe buffer from the region's free
//      list, and the arrival event copies in only the stripe's bytes past
//      the payload (as they are at that instant) and swaps the buffer in.
//      Snapshot() then hands the reader a view of the installed buffer, not
//      a copy. Unstriped regions, writes that do not start on a stripe
//      boundary or cross one, and the split writes of `torn_writes` keep a
//      private payload copy that the arrival copies into place.
//   2. Low latency / high bandwidth — a NetworkModel charges one-way latency
//      plus serialization at line rate; the sender NIC serializes writes
//      (back-to-back posts queue behind each other).
//   3. Asynchronous completions — a post returns immediately; a completion
//      (success, or error when the destination is dead/unreachable) appears
//      on the sender's completion queue one ack-latency after arrival. Fault
//      monitors key off error completions exactly as the paper describes.
//
// Failure semantics: when the engine kills a process, a kill hook marks the
// node dead; in-flight and future writes to it complete with an error.
// SetReachable() injects network partitions.

#ifndef SRC_SIMNET_FABRIC_H_
#define SRC_SIMNET_FABRIC_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/base/time_units.h"
#include "src/check/check.h"
#include "src/comm/transport.h"
#include "src/sim/engine.h"
#include "src/telemetry/telemetry.h"

namespace malt {

struct NetworkModel {
  // Defaults approximate the paper's testbed: Mellanox Connect-V3 56 Gbps IB,
  // ~40 Gbps effective after encoding (§6), 1-3 us one-way latency (§3.1).
  SimDuration latency = FromMicros(1.5);
  double bandwidth_bytes_per_sec = 5.0e9;  // 40 Gbps
  SimDuration per_message_overhead = FromMicros(0.3);  // doorbell + DMA setup

  SimDuration SerializationDelay(size_t bytes) const {
    return static_cast<SimDuration>(static_cast<double>(bytes) / bandwidth_bytes_per_sec * 1e9) +
           per_message_overhead;
  }
};

struct FabricOptions {
  NetworkModel net;
  int send_queue_depth = 64;  // max outstanding writes per node (back-pressure)
  // When true, a write is applied in two events (first half, then second half
  // one serialization-time later) so torn reads actually occur and the
  // seqlock/atomic-gather path is exercised. Off by default.
  bool torn_writes = false;
};

class Fabric : public Transport {
 public:
  // `telemetry` and `checker` may be null; see Transport's constructor.
  Fabric(Engine& engine, int nodes, FabricOptions options,
         TelemetryDomain* telemetry = nullptr, ProtocolChecker* checker = nullptr);

  TransportKind kind() const override { return TransportKind::kSim; }
  SimTime now() const override { return engine_.now(); }
  const FabricOptions& options() const { return options_; }

  // Registers `bytes` of fabric-owned memory on `node`; the region is
  // remotely writable by any peer holding the handle. A nonzero stripe hint
  // makes each stripe its own buffer, the unit a write lands in by swap.
  MrHandle RegisterMemory(int node, size_t bytes, size_t guard_stripe_bytes) override;
  using Transport::RegisterMemory;

  // De-registers (further writes fail with kInvalidRkey).
  void DeregisterMemory(MrHandle mr) override;

  // Local consistent access: events are serialized by the engine, so a
  // local access never races a remote apply and a read is never torn. A
  // range inside one stripe comes back as a view of the stripe's buffer,
  // valid until the next write into the region; a range across stripes is
  // copied into `scratch`.
  [[nodiscard]] std::span<const std::byte> Snapshot(MrHandle mr, size_t offset, size_t len,
                                                    std::span<std::byte> scratch) const override;
  void Write(MrHandle mr, size_t offset, std::span<const std::byte> data) override;
  uint64_t ViewGeneration() const override { return view_generation_; }

  // Posts a one-sided RDMA write of `data` into `dst_mr` at `dst_offset`,
  // from process `src` at virtual time `now`. Returns the work-request id, or
  // an error if the send queue is full (caller should WaitUntil HasSendRoom)
  // or arguments are invalid. The payload is snapshotted immediately. When
  // `trace` is enabled, the arrival event records the receiver-side apply
  // (Transport::RecordApply) at the virtual arrival instant. The completion
  // reaches `src`'s CQ one ack-latency after arrival.
  [[nodiscard]] Result<uint64_t> PostWrite(int src, SimTime now, MrHandle dst_mr, size_t dst_offset,
                             std::span<const std::byte> data, const WireTrace& trace) override;
  using Transport::PostWrite;

  // True when `node` may post another write without exceeding the send queue.
  bool HasSendRoom(int node) const override;
  int OutstandingWrites(int node) const override;

  // Liveness, as observed by the transport layer.
  bool NodeAlive(int node) const override { return alive_[static_cast<size_t>(node)]; }

  // Partition injection: when false, writes between a and b fail (both ways).
  void SetReachable(int a, int b, bool reachable);
  bool Reachable(int a, int b) const;

 private:
  // A region's bytes, as stripes of `stripe` bytes, each in its own buffer
  // (an unstriped region is one stripe). Buffers are owned by `owned` and
  // never freed before the fabric, so in-flight posts and events hold plain
  // pointers to them.
  struct Region {
    size_t size = 0;
    size_t stripe = 0;                // stripe length; the whole region when unstriped
    bool striped = false;             // registered with a stripe hint: aligned writes swap
    std::vector<std::byte*> stripes;  // the installed buffer of each stripe
    std::vector<std::byte*> spare;    // free stripe buffers, for posts to take
    std::vector<std::unique_ptr<std::byte[]>> owned;
    bool registered = true;

    std::byte* NewBuffer();
    // Copies `data` into the region at `offset`, across stripes.
    void CopyIn(size_t offset, std::span<const std::byte> data);
  };

  // Null when the handle names no region.
  Region* FindRegion(MrHandle mr) const;
  void OnKill(int pid);
  void DeliverCompletion(int src, uint64_t wr_id, int dst, WcStatus status, SimTime when);

  Engine& engine_;
  const FabricOptions options_;
  std::vector<std::vector<std::unique_ptr<Region>>> regions_;  // [node][rkey]
  std::vector<int> outstanding_;                               // [node]
  std::vector<SimTime> nic_busy_until_;                        // [node]
  std::vector<bool> alive_;                                    // [node]
  std::vector<bool> unreachable_;                              // [a*nodes+b]
  uint64_t next_wr_id_ = 1;
  uint64_t view_generation_ = 0;  // bumped by every apply and local Write
};

}  // namespace malt

#endif  // SRC_SIMNET_FABRIC_H_
