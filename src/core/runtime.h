// The MALT runtime: launches N model replicas, wires the transport / dstorm /
// fault monitors, and hands each replica a Worker with the paper's developer
// API (Table 1): create vectors, scatter/gather, barrier, shard data — "write
// code once, it runs on every replica".
//
// Two execution backends (MaltOptions::transport):
//   - kSim: replicas are cooperative simulator processes (fibers on the
//     calling thread) over the Fabric (virtual time, network modeling,
//     failure injection, protocol checking).
//   - kShmem: replicas are real concurrent OS threads over the shared-memory
//     transport (wall-clock time; see src/shmem/). Same worker body, same
//     dstorm semantics; kills are delivered by a watchdog thread via
//     cooperative cancellation.

#ifndef SRC_CORE_RUNTIME_H_
#define SRC_CORE_RUNTIME_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/comm/graph.h"
#include "src/comm/transport.h"
#include "src/core/options.h"
#include "src/core/recorder.h"
#include "src/dstorm/dstorm.h"
#include "src/fault/monitor.h"
#include "src/shmem/shmem_transport.h"
#include "src/sim/engine.h"
#include "src/simnet/fabric.h"
#include "src/telemetry/flightrec.h"
#include "src/telemetry/health.h"
#include "src/telemetry/stream.h"
#include "src/vol/malt_vector.h"

namespace malt {

class Malt;

// Per-replica handle, valid only inside the worker body.
class Worker {
 public:
  int rank() const { return rank_; }
  int world() const;

  // Execution context (time, blocking, cancellation) — valid on both
  // backends.
  RankCtx& ctx() { return *ctx_; }
  Dstorm& dstorm() { return *dstorm_; }
  FaultMonitor& monitor() { return *monitor_; }
  Recorder& recorder() { return *recorder_; }
  RankTelemetry& telemetry() { return dstorm_->telemetry(); }
  const MaltOptions& options() const;

  // Figure 8 phase accounting: wrap each section of the training loop in a
  // PhaseScope and the runtime charges its duration to the matching
  // worker.{compute,scatter,gather,barrier}_ns counter and emits a B/E trace
  // span — so the compute/communication breakdown comes from the runtime
  // itself, not from app-local stopwatches.
  enum class Phase : uint8_t { kCompute = 0, kScatter = 1, kGather = 2, kBarrier = 3 };
  class PhaseScope {
   public:
    PhaseScope(Worker& worker, Phase phase);
    ~PhaseScope();
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

   private:
    Worker& worker_;
    int phase_;
    SimTime t0_;
  };

  // Time on the run's clock: virtual under sim, wall-clock under shmem.
  SimTime now() const { return ctx_->Now(); }
  double now_seconds() const { return ToSeconds(ctx_->Now()); }
  // Charges modeled compute time for `flops` floating-point operations
  // (virtual-time advance under sim; a cancellation point under shmem, where
  // the compute itself already took wall time).
  void ChargeFlops(double flops);
  void ChargeSeconds(double seconds);
  // Straggler/fault injection: a delay that is REAL on both backends —
  // virtual-time advance under sim, an actual (cancellable) wall-clock wait
  // under shmem. Unlike ChargeSeconds, which is a no-op on wall time under
  // shmem, this genuinely slows the rank down.
  void InjectDelay(double seconds);

  // Creates a shared vector over the run's configured dataflow graph.
  MaltVector CreateVector(const std::string& name, size_t dim, Layout layout = Layout::kDense,
                          size_t max_nnz = 0);
  // Creates a vector with an explicit dataflow (per-vector graphs, e.g. one
  // per neural-network layer).
  MaltVector CreateVectorWithGraph(const std::string& name, size_t dim, const Graph& graph,
                                   Layout layout = Layout::kDense, size_t max_nnz = 0);

  // Fault-aware barrier: on timeout, runs a health check, removes dead peers
  // and re-arms. Returns a non-OK status only on unrecoverable errors.
  [[nodiscard]] Status Barrier();

  // This replica's contiguous shard of [0, total), computed over the current
  // survivor group (data of failed replicas is redistributed, §3.3).
  struct Shard {
    size_t begin = 0;
    size_t end = 0;
    size_t size() const { return end - begin; }
  };
  Shard ShardRange(size_t total) const;

  // SSP gate (paper §3.2, Fig. 10): blocks while the slowest live in-neighbor
  // of `v` lags more than options().staleness behind this replica's own
  // iteration stamp. No-op under BSP/ASP.
  void SspWait(MaltVector& v);

  // Epoch boundary for the health layer (src/telemetry/health.h): closes the
  // previous epoch (reporting its phase/wait split to the HealthMonitor) and
  // opens `epoch`. Apps call this at the top of each training-epoch loop;
  // the runtime closes the final epoch when the worker body returns. Safe to
  // skip entirely — a body that never calls it just has no epoch profile.
  void BeginEpoch(int64_t epoch);

  // Number of live replicas (shrinks after failures).
  int live_ranks() const;

 private:
  friend class Malt;
  Worker(Malt* malt, int rank) : malt_(malt), rank_(rank) {}

  // Resolves the cached counter cells; requires dstorm_ to be set.
  void InitTelemetry();
  // Reports the open epoch (if any) to the HealthMonitor; no-op otherwise.
  void CloseEpochForHealth();
  // The live in-neighbor of `v` with the smallest visible iteration stamp —
  // the peer an SSP stall is waiting on (-1 if `v` has no live in-edges).
  int SlowestInNeighbor(const MaltVector& v) const;

  Malt* malt_;
  int rank_;
  RankCtx* ctx_ = nullptr;
  Dstorm* dstorm_ = nullptr;
  std::unique_ptr<FaultMonitor> monitor_;
  Recorder* recorder_ = nullptr;

  Counter* c_phase_ns_[4] = {nullptr, nullptr, nullptr, nullptr};
  Counter* c_barrier_wait_ns_ = nullptr;
  Counter* c_ssp_wait_ns_ = nullptr;

  // Epoch profiling state (BeginEpoch / CloseEpochForHealth): the phase and
  // wait counters at epoch open, and this epoch's per-peer blocking-wait
  // attribution recorded at the barrier/SSP wait sites. Owner-thread only.
  int64_t health_epoch_ = -1;
  SimTime epoch_start_ = 0;
  int64_t epoch_base_[6] = {0, 0, 0, 0, 0, 0};
  std::vector<int64_t> wait_on_ns_;
};

class Malt {
 public:
  explicit Malt(MaltOptions options);

  const MaltOptions& options() const { return options_; }

  // The active transport (Fabric or ShmemTransport, per options).
  Transport& transport() { return *transport_; }
  // Sim-backend internals; abort if the run uses another transport.
  Engine& engine();
  Fabric& fabric();
  const TrafficStats& traffic() const { return transport_->stats(); }

  // Cluster telemetry: every layer of every rank (fabric, dstorm, fault,
  // VOL, worker) records into this domain. Use MetricsJson()/TraceJson()
  // (or the Write* variants) after Run() for machine-readable exports.
  TelemetryDomain& telemetry() { return telemetry_; }
  const TelemetryDomain& telemetry() const { return telemetry_; }

  // The protocol checker validating this run (level MaltOptions::check; an
  // off-level checker still answers queries, it just never recorded events).
  // Transport-agnostic: the sim drives it from serialized events, the shmem
  // transport from the ranks' own threads (concurrent mode).
  ProtocolChecker& checker() { return checker_; }
  const ProtocolChecker& checker() const { return checker_; }

  // The dataflow graph selected by options (what CreateVector uses).
  const Graph& dataflow() const { return dataflow_; }

  // Schedules a fail-stop kill of `rank` at `at_seconds` on the run's clock
  // (virtual seconds under sim; wall-clock seconds after Run() starts under
  // shmem, delivered by the watchdog at the rank's next cancellation point).
  void ScheduleKill(int rank, double at_seconds);

  // Runs `body` on every rank; returns when all replicas finish (or die).
  // May be called once.
  void Run(const std::function<void(Worker&)>& body);

  // The background metrics sampler, when the run streams NDJSON telemetry
  // (TelemetryOptions::metrics_interval_ms > 0 with a metrics_stream_path).
  // Null otherwise. Under sim it runs as an auxiliary engine process on
  // virtual time; under shmem as a wall-clock thread.
  MetricsStreamer* metrics_streamer() { return streamer_.get(); }

  // The rank-health layer: epoch critical paths, straggler watermarks
  // (src/telemetry/health.h). Always present; populated by workers that call
  // Worker::BeginEpoch.
  HealthMonitor& health() { return *health_; }
  const HealthMonitor& health() const { return *health_; }

  // The crash flight recorder, when TelemetryOptions::postmortem_path is set
  // (bundles dump there on abnormal endings; see src/telemetry/flightrec.h).
  // Null otherwise.
  FlightRecorder* flight_recorder() { return flightrec_.get(); }

  // Driver hook: refresh and dump a postmortem bundle right now (malt_run
  // calls this when the protocol checker reported violations, so the bundle
  // carries the checker section). No-op without a flight recorder.
  void DumpPostmortem(const char* reason);

  // Post-run accessors.
  Recorder& recorder(int rank) { return recorders_[static_cast<size_t>(rank)]; }
  bool rank_survived(int rank) const;
  int survivors() const;

 private:
  static Graph BuildDataflow(const MaltOptions& options);
  void RunSim(const std::function<void(Worker&)>& body);
  void RunShmem(const std::function<void(Worker&)>& body);
  // One rank's lifecycle, shared by both backends: binds the rank's dstorm
  // endpoint to `ctx`, wires the monitor/recorder/telemetry, runs `body`,
  // then closes the last epoch and leaves the barrier group.
  void RunWorker(int rank, RankCtx& ctx, const std::function<void(Worker&)>& body);
  // Registers the flight recorder's postmortem sections (options, metrics,
  // trace tail, watermarks, critical paths, checker report, vector clocks).
  void WireFlightRecorder();
  // The run's clock right now: virtual time under sim, wall under shmem.
  SimTime RunClockNow() const;

  MaltOptions options_;
  TelemetryDomain telemetry_;
  ProtocolChecker checker_;  // must outlive the transport (it holds a pointer)
  std::unique_ptr<Engine> engine_;          // sim only
  std::unique_ptr<Fabric> fabric_;          // sim only
  std::unique_ptr<ShmemTransport> shmem_;   // shmem only
  Transport* transport_ = nullptr;
  std::unique_ptr<DstormDomain> domain_;
  std::unique_ptr<MetricsStreamer> streamer_;
  std::unique_ptr<HealthMonitor> health_;
  std::unique_ptr<FlightRecorder> flightrec_;
  Graph dataflow_;
  std::vector<Recorder> recorders_;
  std::vector<std::pair<int, double>> pending_kills_;  // shmem: (rank, at_seconds)
  std::vector<char> shmem_survived_;  // per-rank flags; each written by one thread
  bool ran_ = false;
};

}  // namespace malt

#endif  // SRC_CORE_RUNTIME_H_
