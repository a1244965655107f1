// dstorm — DiSTributed One-sided Remote Memory (paper §3.1).
//
// Every node creates shared-memory "segments" collectively. A segment on node
// R reserves a receive queue of `queue_depth` slots for every potential
// sender S; sender S round-robins its writes over its own slots, so
// write-write conflicts are impossible by construction and a scatter never
// involves the receiver's CPU (lockless model propagation).
//
// Slot wire format (offsets computable by the sender with no remote reads):
//   u64 seq_front | u32 iter | u32 bytes | payload[obj_bytes] | u64 seq_back
// A slot is consistent when seq_front == seq_back and nonzero; a torn write
// (in-flight overwrite) shows mismatched stamps and is skipped by Gather —
// this is the paper's "atomic gather" without any reader/writer locking.
//
// Overwrite-on-full: a sender that laps the reader simply overwrites its
// oldest slot; Gather folds only not-yet-consumed consistent slots, newest
// last, per sender. Gather reads in two steps, per sender:
//   1. the 16-byte header of every slot: empty and stale slots (front stamp
//      <= the sender's last consumed stamp) are decided here and never
//      copied;
//   2. oldest fresh stamp first, each candidate's header + payload + back
//      stamp in one Transport::Snapshot: a view of the slot on the
//      simulator, a copy into the segment's one scratch buffer on shmem.
//      A slot is one guard stripe, so the read is atomic against a write;
//      the snapshot is consumed only if its front stamp is still the
//      candidate's and equals its back stamp, and the consume callback runs
//      before the next slot is read.
//
// Data-plane calls take no locks: each endpoint indexes its own segments
// through an owner-thread table filled by its own CreateSegment calls, and
// a scatter builds its slot image once, patching only the stamps per
// destination.
//
// dstorm is transport-agnostic: it programs against Transport/RankCtx
// (src/comm/transport.h) and runs unchanged over the discrete-event simulator
// (src/simnet: Fabric + its RankCtx) or real concurrent threads
// (src/shmem: ShmemTransport + ShmemRankCtx). All receive-side polling goes
// through Transport::Snapshot, which reports concurrent overwrites as torn —
// on the simulator it degenerates to a view of the region.

#ifndef SRC_DSTORM_DSTORM_H_
#define SRC_DSTORM_DSTORM_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/status.h"
#include "src/base/thread_annotations.h"
#include "src/base/time_units.h"
#include "src/comm/graph.h"
#include "src/comm/transport.h"

namespace malt {

using SegmentId = int;

struct SegmentOptions {
  size_t obj_bytes = 0;  // payload capacity per object
  Graph graph;           // dataflow: who pushes to whom
  int queue_depth = 2;   // receive-queue slots per sender, 1..16
};

// One object received by Gather.
struct RecvObject {
  int sender = -1;
  uint32_t iter = 0;  // sender's iteration stamp
  // Valid inside the consume callback, which must not yield (no Advance,
  // Wait or Yield on the rank's context, so no ChargeFlops either). On the
  // simulator it views the receive slot itself, which the next write into
  // the region replaces, and Gather aborts if a write landed while the
  // callback ran; on shmem it points into the segment's scratch buffer,
  // which the next slot's read overwrites. Fold (or copy) it there.
  std::span<const std::byte> bytes;
};

class DstormDomain;

// Per-node endpoint. All calls must come from the bound rank's
// process/thread. Cache-line aligned: the endpoints are heap-allocated back
// to back, and each rank thread stores to its own barrier state inside spin-wait
// predicates, which must not invalidate the line a neighbouring rank's
// endpoint lives on. Without the alignment, a 16-byte change in this class's
// size moved 4-rank shmem dense-SVM throughput by ~15% on a 4-core x86 box.
class alignas(64) Dstorm {
 public:
  int rank() const { return rank_; }
  int world() const { return world_; }

  // Binds this endpoint to its rank's execution context (the simulated
  // process's RankCtx, or ShmemRankCtx on shmem), which the caller owns and
  // keeps alive while the endpoint is in use. Required before data-plane
  // calls.
  void BindCtx(RankCtx& ctx) { ctx_ = &ctx; }

  bool bound() const { return ctx_ != nullptr; }
  RankCtx& ctx() const { return *ctx_; }

  // This rank's telemetry bundle (metric registry + trace ring). Higher
  // layers (VOL, fault monitor) instrument through this.
  RankTelemetry& telemetry() const { return *telemetry_; }

  // The transport this endpoint posts through (higher layers reach the
  // shared protocol checker via transport().checker()).
  Transport& transport() const { return *transport_; }

  // Collective: every live node must call with identical options; segments
  // are numbered by call order. Registers the receive memory on this node.
  // All segments must be created before data-plane traffic starts (the
  // paper's synchronous segment creation). Invalid options (including a
  // queue depth outside 1..16) abort before any memory is registered, and so
  // does an obj_bytes or queue_depth that differs from the first creator's.
  SegmentId CreateSegment(const SegmentOptions& options);

  // Pushes `payload` (<= obj_bytes) with iteration stamp `iter` to every
  // live out-neighbor in the segment's dataflow graph. One one-sided write
  // per receiver. Applies back-pressure when the NIC send queue is full.
  // Dead peers discovered through error completions are recorded (see
  // TakeFailedPeers) and skipped on subsequent scatters.
  [[nodiscard]] Status Scatter(SegmentId seg, std::span<const std::byte> payload, uint32_t iter);

  // As Scatter, but to an explicit subset of the out-neighbors — the paper's
  // fine-grained per-call dataflow control (§3.2).
  [[nodiscard]] Status ScatterTo(SegmentId seg, std::span<const int> dsts, std::span<const std::byte> payload,
                   uint32_t iter);

  // Applies `consume` to every fresh consistent object in this node's
  // receive queues (local operation; no network), one object at a time as
  // it is read. Objects from a given sender are presented oldest-first.
  // Returns the number consumed.
  // Updates lost to overwrite-on-full show up as gaps in the per-sender
  // sequence numbers consumed and are counted in dstorm.overwrites_on_full.
  // The paper accepts this loss (stochastic training tolerates dropped
  // updates); the counter quantifies the freshness/queue-depth trade-off.
  // With `max_iter` >= 0, an object stamped with a later iteration stays
  // queued, and so does everything newer from its sender: a BSP round's
  // gather takes that round's objects and leaves the next round's, which a
  // faster peer may already have sent, to the next gather.
  int Gather(SegmentId seg, const std::function<void(const RecvObject&)>& consume,
             int64_t max_iter = -1);

  // Largest iteration stamp visible from `sender` in this segment (consumed
  // or not); -1 if nothing received yet. Drives bounded-staleness decisions.
  int64_t PeerIteration(SegmentId seg, int sender) const;

  // True when at least one not-yet-consumed consistent object is waiting in
  // this node's receive queues (cheap poll used in wait predicates).
  bool FreshAvailable(SegmentId seg) const;

  // Blocks until all of this node's outstanding writes have completed,
  // harvesting error completions.
  [[nodiscard]] Status Flush();

  // Distributed barrier among current group members. Returns
  // kDeadlineExceeded if a member failed to arrive within `timeout`
  // (0 = wait forever); the caller is expected to run a health check and
  // retry with BarrierResume. A node whose group shrinks mid-wait completes
  // with the survivors.
  Status Barrier(SimDuration timeout = 0);

  // Re-arms the *same* barrier round after a recovery (the round must not
  // advance, or survivors that already passed would be waited on forever).
  Status BarrierResume(SimDuration timeout = 0);

  // Marks this node as finished with all collective synchronization: its
  // barrier counter is published as "infinity" so peers still in (or about to
  // enter) a barrier never wait for it. Called automatically by the runtime
  // when a worker body returns; needed because failures can leave survivors
  // with different per-epoch round counts after re-sharding.
  void FinishBarriers();

  // --- fault integration ----------------------------------------------------

  // Actively probes `peer` with a tiny one-sided write and waits for its
  // completion. Returns false if the write errors (peer dead/unreachable).
  bool ProbePeer(int peer);

  // Peers whose writes error'd since the last call (suspected dead).
  std::vector<int> TakeFailedPeers();

  // Removes `failed` from the communication group: scatters, gathers and
  // barriers skip it from now on. Idempotent.
  void RemoveFromGroup(int failed);

  bool InGroup(int node) const { return group_member_[static_cast<size_t>(node)]; }
  std::vector<int> GroupMembers() const;
  // The group member this node last observed not-yet-arrived while waiting
  // inside Barrier/BarrierResume (-1: the barrier never made it wait). The
  // runtime's health layer charges barrier wait time to this peer.
  int last_barrier_blocker() const { return last_barrier_blocker_; }
  int64_t group_epoch() const { return group_epoch_; }

 private:
  friend class DstormDomain;

  // Receive-queue layout: a node's region holds one queue per *in-neighbor*
  // (not per world rank), in InEdges order. A sender computes its queue base
  // on each receiver from its position in that receiver's in-edge list —
  // deterministic from the shared dataflow graph, so no remote metadata
  // reads are ever needed.
  struct Segment {
    SegmentOptions options;
    MrHandle recv_mr;                       // this node's receive queues
    size_t slot_stride = 0;                 // header + payload + trailer, aligned
    std::vector<int> sender_pos_at;         // per receiver: my in-edge position (-1: none)
    std::vector<uint64_t> next_send_seq;    // per receiver: my next stamp
    std::vector<int> next_send_slot;        // per receiver: my next slot index
    std::vector<uint64_t> last_consumed;    // per sender: newest consumed stamp
    // Gather's one slot-stride scratch buffer for Transport::Snapshot,
    // reused for every fresh slot; on shmem RecvObject::bytes points into
    // it. dstorm.gather_bytes_copied counts the bytes copied into it (none
    // on the simulator, whose snapshots are views).
    std::vector<std::byte> snapshot;
  };

  Dstorm(DstormDomain* domain, Transport* transport, int rank, int world,
         RankTelemetry* telemetry);

  // Posts one scatter's slot image `wire` (header | payload | back stamp) to
  // `dst`, stamping both sequence fields with the destination's next seq.
  [[nodiscard]] Status PostObject(SegmentId seg, Segment& s, int dst, std::span<std::byte> wire,
                                  uint32_t iter);
  void DrainCompletions();
  size_t SlotOffset(const Segment& s, int sender_pos, int slot) const;
  // Blocks until the NIC send queue has room, charging the stall and its
  // duration to the fabric.send_queue_stall* counters.
  void WaitForSendRoom();
  // Lock-free lookup through own_segments_; aborts on an id this rank never
  // created.
  Segment& GetSegment(SegmentId seg) const;

  DstormDomain* domain_;
  Transport* transport_;
  RankCtx* ctx_ = nullptr;
  int rank_;
  int world_;

  // Cached telemetry cells (registered once in the constructor).
  RankTelemetry* telemetry_ = nullptr;
  // TelemetryOptions::flow_events, cached: when set, every PostObject tags
  // its write with a WireTrace and emits the 's' flow event, Gather emits
  // 'f' at consume, and the transports emit 't' at apply.
  bool flow_events_ = true;
  Counter* c_scatters_ = nullptr;
  Counter* c_objects_sent_ = nullptr;
  Counter* c_gathers_ = nullptr;
  Counter* c_objects_folded_ = nullptr;
  Counter* c_torn_skipped_ = nullptr;
  Counter* c_gather_bytes_copied_ = nullptr;
  Counter* c_overwrites_ = nullptr;
  Counter* c_barriers_ = nullptr;
  Counter* c_barrier_timeouts_ = nullptr;
  Counter* c_error_completions_ = nullptr;
  Counter* c_flushes_ = nullptr;
  Counter* c_flush_ns_ = nullptr;
  Counter* c_probes_ = nullptr;
  Counter* c_send_stalls_ = nullptr;
  Counter* c_send_stall_ns_ = nullptr;

  // The cross-rank append target: the first creator of a segment appends it
  // to *every* node's list, from its own thread, under the domain mutex.
  // deque, not vector: appends never relocate existing elements, so the
  // pointers in own_segments_ stay valid without the lock.
  std::deque<Segment> segments_ MALT_GUARDED_BY(domain_->mu_);
  // Owner-thread index by segment id, one entry per segment this node has
  // created: appended only by this rank's own CreateSegment (under the
  // domain mutex, which orders any peer's earlier append before it), read
  // without a lock by every data-plane call.
  std::vector<Segment*> own_segments_;
  // ScatterTo's slot-image buffer, reused across calls; grows to the largest
  // image sent.
  std::vector<std::byte> send_buf_;
  std::vector<bool> group_member_;
  int64_t group_epoch_ = 0;
  std::vector<bool> peer_failed_;       // error completion seen, not yet taken
  std::vector<int> failed_unreported_;  // FIFO for TakeFailedPeers

  // Barrier state.
  MrHandle barrier_mr_;
  uint64_t barrier_round_ = 0;
  // The last group member observed not-yet-arrived while this node waited in
  // its most recent Barrier/BarrierResume; -1 if the barrier completed on
  // the first check. Read by the health layer to attribute barrier wait time
  // to the straggling peer. Owner-thread state, like barrier_round_.
  int last_barrier_blocker_ = -1;

  // Health-probe scratch region (rkey 1 on every node).
  MrHandle probe_mr_;
  uint64_t probe_count_ = 0;
};

// Owns the per-node endpoints and the collective segment-creation registry.
class DstormDomain {
 public:
  // Endpoints record telemetry into `telemetry` (one registry per rank);
  // null falls back to the transport's domain, so standalone stacks share
  // one.
  explicit DstormDomain(Transport& transport, int nodes, TelemetryDomain* telemetry = nullptr);

  Dstorm& node(int rank) { return *nodes_[static_cast<size_t>(rank)]; }
  int size() const { return static_cast<int>(nodes_.size()); }

 private:
  friend class Dstorm;

  Transport& transport_;
  // Serializes collective segment creation across rank threads (spec
  // registry, cross-node segments_ appends). Never taken on the data plane.
  mutable Mutex mu_;
  std::vector<std::unique_ptr<Dstorm>> nodes_;  // fixed at construction
  // Collective-creation registry, by segment id: the first creator's
  // options, which later creators must match.
  std::vector<SegmentOptions> specs_ MALT_GUARDED_BY(mu_);
};

}  // namespace malt

#endif  // SRC_DSTORM_DSTORM_H_
