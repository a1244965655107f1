// Transport — the one-sided-write substrate dstorm programs against.
//
// The paper's dstorm runs over one-sided RDMA on InfiniBand; this repo has two
// implementations of the same verbs-like subset:
//   - Fabric (src/simnet): a discrete-event simulation with virtual time,
//     latency/bandwidth modeling, partition injection, and deterministic
//     schedules — the backend for modeled figures and protocol checking.
//   - ShmemTransport (src/shmem): ranks are real concurrent OS threads and a
//     one-sided write is an actual memcpy into a peer-owned segment — the
//     backend for wall-clock throughput/latency numbers.
// Swapping the transport under an unchanged application API follows the
// multi-backend pattern of distributed TensorFlow's MPI substrate.
//
// RankCtx is the matching execution context: how a rank observes time,
// charges modeled compute, blocks on a predicate, and dies. The simulator
// implements it over Process (virtual time, cooperative scheduling); the
// shmem backend over the wall clock and cancellation flags.

#ifndef SRC_COMM_TRANSPORT_H_
#define SRC_COMM_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/base/time_units.h"
#include "src/check/check.h"
#include "src/telemetry/telemetry.h"

namespace malt {

enum class TransportKind : uint8_t {
  kSim = 0,    // discrete-event simulation, virtual time
  kShmem = 1,  // shared memory, concurrent threads, wall-clock time
};

[[nodiscard]] Result<TransportKind> ParseTransportKind(const std::string& s);
std::string ToString(TransportKind kind);

enum class WcStatus : uint8_t {
  kSuccess = 0,
  kRemoteDead = 1,    // destination killed (fail-stop)
  kUnreachable = 2,   // network partition
  kInvalidRkey = 3,   // no such memory region / out of bounds
};

struct Completion {
  uint64_t wr_id = 0;
  int dst = -1;
  WcStatus status = WcStatus::kSuccess;
};

// Handle to a registered memory region.
struct MrHandle {
  int node = -1;
  uint32_t rkey = 0;
  bool valid() const { return node >= 0; }
};

// Compact lineage context riding along a one-sided write (in memory only —
// the wire format is unchanged). When enabled, the transport emits a
// receiver-side 't' flow event at apply time and observes the delivery
// latency (apply time − sent_at) into the edge's
// "comm.edge.<src>-<dst>.delivery_ns" histogram. A zero flow id disables
// both (the default for untraced writes: barriers, probes, raw benches).
struct WireTrace {
  uint64_t flow_id = 0;  // MakeFlowId(src, dst, rkey, seq); 0 = untraced
  uint32_t iter = 0;     // sender's epoch when the update was posted
  SimTime sent_at = 0;   // transport-clock timestamp of the post
  bool enabled() const { return flow_id != 0; }
};

// Per-node byte/message accounting — regenerates Fig. 13. A read-only view
// of the telemetry cells Transport::AccountPost bumps, not a second tally:
// TxBytes/TxMessages read the node's "fabric.bytes_sent" /
// "fabric.writes_posted", RxBytes sums the "comm.edge.<src>-<node>.bytes"
// cells. Reads look cells up by name, so call them after a run or between
// posts, not per message.
class TrafficStats {
 public:
  TrafficStats(int nodes, const TelemetryDomain* telemetry)
      : nodes_(nodes), telemetry_(telemetry) {}

  int64_t TxBytes(int node) const;
  int64_t RxBytes(int node) const;
  int64_t TxMessages(int node) const;
  int64_t TotalBytes() const;
  int64_t TotalMessages() const;

 private:
  int64_t Read(int node, const std::string& name) const;

  int nodes_;
  const TelemetryDomain* telemetry_;
};

// The one-sided-write subset of verbs that dstorm needs. All `node` / `src`
// arguments are ranks in [0, nodes()).
//
// The base class holds what both backends account the same way: the
// telemetry domain and protocol checker (or owned fallbacks), the per-node
// "fabric.*" counters, the lazily resolved "comm.edge.<src>-<dst>.*" cells,
// the TrafficStats view over them and one completion FIFO per node. A backend
// implements region storage and apply, timing and the send queue, liveness
// and wr_id numbering, and reports each post through AccountPost, each
// traced apply through RecordApply and each completion through Complete.
//
// A node's CQ is a plain FIFO, so its completions must be pushed and polled
// by one thread at a time: the simulator serializes everything on its
// engine, and the shmem backend completes inline on the poster's thread.
class Transport {
 public:
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  virtual TransportKind kind() const = 0;
  int nodes() const { return nodes_; }

  // Transport-level clock: virtual nanoseconds for the simulator, wall-clock
  // nanoseconds since transport construction for shmem.
  virtual SimTime now() const = 0;

  TelemetryDomain& telemetry() { return *telemetry_; }
  const TelemetryDomain& telemetry() const { return *telemetry_; }
  ProtocolChecker& checker() { return *checker_; }
  const ProtocolChecker& checker() const { return *checker_; }
  const TrafficStats& stats() const { return stats_; }

  // Registers `bytes` of transport-owned memory on `node`; the region is
  // remotely writable by any peer holding the handle. `guard_stripe_bytes`
  // says writers touch disjoint stripe-aligned windows of that size
  // (dstorm's per-sender slots); 0 means no stripes (regions of single-word
  // writes). The shmem backend gives each stripe its own SeqLock, so
  // Snapshot() can detect in-flight overwrites. The simulator keeps each
  // stripe in its own buffer, so a stripe-aligned write lands by swapping in
  // the buffer its post filled (see Fabric).
  virtual MrHandle RegisterMemory(int node, size_t bytes, size_t guard_stripe_bytes) = 0;
  MrHandle RegisterMemory(int node, size_t bytes) { return RegisterMemory(node, bytes, 0); }

  // De-registers (further writes fail with kInvalidRkey).
  virtual void DeregisterMemory(MrHandle mr) = 0;

  // The `len` bytes of the region at `offset`, as of now (a local read by
  // the region's owner; no network). The simulator returns a view of the
  // region itself when the range lies in one stripe, and otherwise copies
  // into `scratch`; the shmem backend always copies into `scratch` under
  // the stripe guards and returns an empty span when a concurrent remote
  // write was detected mid-read: the caller treats the range as torn and
  // retries or skips. `scratch` must hold `len` bytes and `len` must be
  // positive. A returned view stays valid only until the region's next
  // write; ViewGeneration() tells whether one happened.
  [[nodiscard]] virtual std::span<const std::byte> Snapshot(MrHandle mr, size_t offset, size_t len,
                                                            std::span<std::byte> scratch) const = 0;

  // Copies `out.size()` bytes of the region at `offset` into `out` through
  // Snapshot. Returns false when the read was torn (shmem only).
  [[nodiscard]] bool Read(MrHandle mr, size_t offset, std::span<std::byte> out) const;

  // Advances on every write that can change bytes behind a view Snapshot
  // returned earlier. The shmem backend's snapshots are private copies, so
  // it stays 0 there.
  virtual uint64_t ViewGeneration() const { return 0; }

  // Stores `data` into the region locally (the owner updating its own
  // segment, e.g. its barrier counter slot), with the same guard/atomicity
  // discipline remote writes use.
  virtual void Write(MrHandle mr, size_t offset, std::span<const std::byte> data) = 0;

  // Posts a one-sided RDMA write of `data` into `dst_mr` at `dst_offset`,
  // from rank `src` at time `now`. Returns the work-request id, or an error
  // if the send queue is full (caller should wait on HasSendRoom) or the
  // arguments are invalid. The payload is snapshotted immediately; a
  // completion appears on `src`'s CQ. `trace` carries the update's lineage
  // context (see WireTrace); the 5-argument overload posts untraced.
  [[nodiscard]] virtual Result<uint64_t> PostWrite(int src, SimTime now, MrHandle dst_mr, size_t dst_offset,
                                     std::span<const std::byte> data,
                                     const WireTrace& trace) = 0;
  [[nodiscard]] Result<uint64_t> PostWrite(int src, SimTime now, MrHandle dst_mr, size_t dst_offset,
                             std::span<const std::byte> data) {
    return PostWrite(src, now, dst_mr, dst_offset, data, WireTrace{});
  }

  // True when `node` may post another write without exceeding the send
  // queue. The shmem transport applies writes inline and is never full.
  virtual bool HasSendRoom(int node) const = 0;
  virtual int OutstandingWrites(int node) const = 0;

  // Drains up to `out.size()` completions pending on `node`'s CQ. Returns
  // the number written.
  int PollCq(int node, std::span<Completion> out);

  // Liveness, as observed by the transport layer.
  virtual bool NodeAlive(int node) const = 0;

 protected:
  // When `telemetry` is null the transport creates a private domain, so
  // standalone construction (tests, microbenches) still gets counters; the
  // runtime passes its own domain so all layers of a rank share registries.
  // Likewise for `checker`: when null, a private off-level ProtocolChecker
  // is created, so instrumented paths never null-check.
  Transport(int nodes, TelemetryDomain* telemetry, ProtocolChecker* checker);

  // Accounts one posted write of `bytes` from `src` to `dst`: src's fabric.*
  // cells and the (src→dst) edge cells. Every cell it bumps belongs to `src`
  // alone, so it must run on src's thread (one writer per cell, metrics.h).
  void AccountPost(int src, int dst, size_t bytes);

  // Pushes `c` onto `src`'s CQ and counts its status.
  void Complete(int src, const Completion& c);

  // The receiver-side apply of a traced write (call only when
  // trace.enabled()): an "update.apply" slice for the 't' flow event to
  // bind to, plus the delivery latency (now − sent_at) on the edge's
  // histogram. The events go into the SENDER's ring tagged with the
  // receiver's track id, so every ring stays single-writer and the
  // per-write path never contends a lock. No-op when flow events are off.
  void RecordApply(int src, int dst, const WireTrace& trace, SimTime now);

 private:
  // Per-node cells, resolved once at construction; only the node's own
  // posts bump them.
  struct NodeCounters {
    Counter* writes_posted = nullptr;
    Counter* bytes_sent = nullptr;
    Counter* completions[4] = {};  // indexed by WcStatus
    HistogramMetric* write_bytes = nullptr;
  };

  // Per-(src→dst) edge cells under "comm.edge.<src>-<dst>.*" in the
  // *receiver's* registry. Lazily resolved, so only edges that carry
  // traffic allocate metrics. Like the cells themselves, an edge's cache
  // slot is touched only by `src`'s posts, so it needs no atomics.
  struct EdgeCells {
    Counter* bytes = nullptr;
    Counter* msgs = nullptr;
    HistogramMetric* delivery_ns = nullptr;
  };
  const EdgeCells& Edge(int src, int dst);

  const int nodes_;
  std::unique_ptr<TelemetryDomain> owned_telemetry_;  // set when none was passed
  TelemetryDomain* telemetry_;
  std::unique_ptr<ProtocolChecker> owned_checker_;  // off-level, set when none passed
  ProtocolChecker* checker_;
  const bool flow_events_;                  // TelemetryOptions::flow_events, cached
  std::vector<NodeCounters> counters_;      // [node]
  std::vector<EdgeCells> edges_;            // [src*nodes+dst], lazily resolved
  TrafficStats stats_;
  std::vector<std::deque<Completion>> cq_;  // [node]
};

// How a rank's code observes time, charges modeled compute, blocks, and
// dies. One instance per rank, used only from that rank's thread.
class RankCtx {
 public:
  virtual ~RankCtx() = default;

  // Current time on the transport's clock (virtual or wall).
  virtual SimTime Now() const = 0;

  // Consumes `dt` of modeled compute time. Virtual time advances by dt in
  // the simulator; on a real backend the compute itself took wall time, so
  // this is only a cancellation point.
  virtual void Advance(SimDuration dt) = 0;

  // Yields to other ranks without consuming time.
  virtual void Yield() = 0;

  // Blocks until pred() holds.
  virtual void Wait(const std::function<bool()>& pred) = 0;

  // Like Wait but gives up at `deadline` (same clock as Now()). Returns
  // true if the predicate held, false on timeout.
  virtual bool WaitOr(const std::function<bool()>& pred, SimTime deadline) = 0;

  // Terminates this rank fail-stop. Unwinds the rank's stack by throwing
  // ProcessKilled; never returns.
  [[noreturn]] virtual void KillSelf() = 0;
};

}  // namespace malt

#endif  // SRC_COMM_TRANSPORT_H_
