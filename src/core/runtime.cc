#include "src/core/runtime.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <thread>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "src/base/log.h"
#include "src/shmem/rank_ctx.h"
#include "src/simnet/rank_ctx.h"
#include "src/telemetry/metrics.h"

namespace malt {

Result<SyncMode> ParseSyncMode(const std::string& s) {
  if (s == "bsp") {
    return SyncMode::kBSP;
  }
  if (s == "asp" || s == "async") {
    return SyncMode::kASP;
  }
  if (s == "ssp") {
    return SyncMode::kSSP;
  }
  return InvalidArgumentError("unknown sync mode '" + s + "' (bsp|asp|ssp)");
}

Result<GraphKind> ParseGraphKind(const std::string& s) {
  if (s == "all") {
    return GraphKind::kAll;
  }
  if (s == "halton") {
    return GraphKind::kHalton;
  }
  if (s == "ring") {
    return GraphKind::kRing;
  }
  if (s == "random") {
    return GraphKind::kRandom;
  }
  if (s == "ps" || s == "paramserver") {
    return GraphKind::kParamServer;
  }
  return InvalidArgumentError("unknown graph '" + s + "' (all|halton|ring|random|ps)");
}

std::string ToString(SyncMode mode) {
  switch (mode) {
    case SyncMode::kBSP:
      return "BSP";
    case SyncMode::kASP:
      return "ASYNC";
    case SyncMode::kSSP:
      return "SSP";
  }
  return "?";
}

std::string ToString(GraphKind kind) {
  switch (kind) {
    case GraphKind::kAll:
      return "all";
    case GraphKind::kHalton:
      return "Halton";
    case GraphKind::kRing:
      return "ring";
    case GraphKind::kRandom:
      return "random";
    case GraphKind::kParamServer:
      return "paramserver";
    case GraphKind::kCustom:
      return "custom";
  }
  return "?";
}

// --- Worker ------------------------------------------------------------------

namespace {
constexpr const char* kPhaseNames[] = {"compute", "scatter", "gather", "barrier"};
}  // namespace

Worker::PhaseScope::PhaseScope(Worker& worker, Phase phase)
    : worker_(worker), phase_(static_cast<int>(phase)), t0_(worker.ctx_->Now()) {
  worker_.telemetry().trace.Begin(kPhaseNames[phase_], t0_);
}

Worker::PhaseScope::~PhaseScope() {
  const SimTime t1 = worker_.ctx_->Now();
  worker_.c_phase_ns_[phase_]->Add(t1 - t0_);
  worker_.telemetry().trace.End(kPhaseNames[phase_], t1);
}

void Worker::InitTelemetry() {
  MetricRegistry& reg = telemetry().metrics;
  c_phase_ns_[0] = reg.GetCounter("worker.compute_ns");
  c_phase_ns_[1] = reg.GetCounter("worker.scatter_ns");
  c_phase_ns_[2] = reg.GetCounter("worker.gather_ns");
  c_phase_ns_[3] = reg.GetCounter("worker.barrier_ns");
  c_barrier_wait_ns_ = reg.GetCounter("worker.barrier_wait_ns");
  c_ssp_wait_ns_ = reg.GetCounter("worker.ssp_wait_ns");
  wait_on_ns_.assign(static_cast<size_t>(world()), 0);
}

void Worker::BeginEpoch(int64_t epoch) {
  CloseEpochForHealth();
  health_epoch_ = epoch;
  epoch_start_ = ctx_->Now();
  for (int p = 0; p < 4; ++p) {
    epoch_base_[p] = c_phase_ns_[p]->value();
  }
  epoch_base_[4] = c_barrier_wait_ns_->value();
  epoch_base_[5] = c_ssp_wait_ns_->value();
  std::fill(wait_on_ns_.begin(), wait_on_ns_.end(), 0);
  telemetry().trace.Instant("epoch", epoch_start_, "epoch", epoch);
}

void Worker::CloseEpochForHealth() {
  if (health_epoch_ < 0) {
    return;
  }
  EpochReport report;
  report.rank = rank_;
  report.epoch = health_epoch_;
  report.start_ts = epoch_start_;
  report.end_ts = ctx_->Now();
  report.compute_ns = c_phase_ns_[0]->value() - epoch_base_[0];
  report.scatter_ns = c_phase_ns_[1]->value() - epoch_base_[1];
  report.gather_ns = c_phase_ns_[2]->value() - epoch_base_[2];
  report.barrier_ns = c_phase_ns_[3]->value() - epoch_base_[3];
  report.wait_ns = (c_barrier_wait_ns_->value() - epoch_base_[4]) +
                   (c_ssp_wait_ns_->value() - epoch_base_[5]);
  report.wait_on_ns = wait_on_ns_;
  for (int peer = 0; peer < world(); ++peer) {
    if (wait_on_ns_[static_cast<size_t>(peer)] > report.waiting_on_ns) {
      report.waiting_on_ns = wait_on_ns_[static_cast<size_t>(peer)];
      report.waiting_on = peer;
    }
  }
  health_epoch_ = -1;
  malt_->health().OnEpochClose(report);
}

int Worker::SlowestInNeighbor(const MaltVector& v) const {
  int slowest = -1;
  int64_t min_iter = std::numeric_limits<int64_t>::max();
  for (int sender : v.graph().InEdges(rank_)) {
    if (!dstorm_->InGroup(sender)) {
      continue;
    }
    const int64_t iter = dstorm_->PeerIteration(v.segment(), sender);
    if (iter < min_iter) {
      min_iter = iter;
      slowest = sender;
    }
  }
  return slowest;
}

int Worker::world() const { return malt_->options().ranks; }

const MaltOptions& Worker::options() const { return malt_->options(); }

void Worker::ChargeFlops(double flops) { ctx_->Advance(options().cost.ForFlops(flops)); }

void Worker::ChargeSeconds(double seconds) { ctx_->Advance(FromSeconds(seconds)); }

void Worker::InjectDelay(double seconds) {
  if (seconds <= 0) {
    return;
  }
  if (options().transport == TransportKind::kShmem) {
    // Really wait out the wall clock (Advance would be a no-op here).
    ctx_->WaitOr([] { return false; }, ctx_->Now() + FromSeconds(seconds));
  } else {
    ctx_->Advance(FromSeconds(seconds));
  }
}

MaltVector Worker::CreateVector(const std::string& name, size_t dim, Layout layout,
                                size_t max_nnz) {
  return CreateVectorWithGraph(name, dim, malt_->dataflow(), layout, max_nnz);
}

MaltVector Worker::CreateVectorWithGraph(const std::string& name, size_t dim, const Graph& graph,
                                         Layout layout, size_t max_nnz) {
  MaltVectorOptions opts;
  opts.name = name;
  opts.dim = dim;
  opts.layout = layout;
  opts.max_nnz = max_nnz;
  opts.queue_depth = options().queue_depth;
  // A BSP peer runs at most one round ahead: two slots keep this round's
  // object from being overwritten by the next before the gather takes it.
  MALT_CHECK(options().sync != SyncMode::kBSP || opts.queue_depth >= 2)
      << "vector '" << name << "': BSP needs queue_depth >= 2, got " << opts.queue_depth;
  opts.graph = graph;
  return MaltVector(*dstorm_, std::move(opts));
}

Status Worker::Barrier() {
  const SimTime t0 = ctx_->Now();
  Status status = dstorm_->Barrier(options().barrier_timeout);
  while (status.code() == StatusCode::kDeadlineExceeded) {
    MALT_LOG_S(kInfo) << "rank " << rank_ << ": barrier timeout; health check";
    monitor_->HealthCheckAndRecover();
    status = dstorm_->BarrierResume(options().barrier_timeout);
  }
  const SimDuration waited = ctx_->Now() - t0;
  c_barrier_wait_ns_->Add(waited);
  // Blame the wait on the member the barrier predicate last saw missing —
  // the straggler this rank actually stalled for.
  const int blocker = dstorm_->last_barrier_blocker();
  if (blocker >= 0 && !wait_on_ns_.empty()) {
    wait_on_ns_[static_cast<size_t>(blocker)] += waited;
  }
  return status;
}

Worker::Shard Worker::ShardRange(size_t total) const {
  // Contiguous split over the current survivor group, in rank order: when a
  // replica dies, its slice is absorbed by the survivors on re-shard.
  const std::vector<int> members = dstorm_->GroupMembers();
  const auto it = std::find(members.begin(), members.end(), rank_);
  MALT_CHECK(it != members.end()) << "rank " << rank_ << " not in its own group";
  const size_t position = static_cast<size_t>(it - members.begin());
  const size_t parts = members.size();
  const size_t base = total / parts;
  const size_t extra = total % parts;
  const size_t begin = position * base + std::min(position, extra);
  const size_t len = base + (position < extra ? 1 : 0);
  return Shard{begin, begin + len};
}

void Worker::SspWait(MaltVector& v) {
  if (options().sync != SyncMode::kSSP) {
    return;
  }
  const SimTime t0 = ctx_->Now();
  const int64_t bound = options().staleness;
  auto fresh_enough = [this, &v, bound] {
    // A dead straggler must not stall us forever: MinPeerIteration skips
    // non-group members, and the predicate re-reads group state.
    const int64_t min_peer = v.MinPeerIteration();
    return min_peer >= static_cast<int64_t>(v.iteration()) - bound;
  };
  SimTime seg_start = t0;
  while (!fresh_enough()) {
    // The peer currently holding the minimum stamp is who this stall is
    // waiting on; charge it the wait interval (re-sampled every round, so a
    // blocker that catches up stops accruing blame).
    const int blocker = SlowestInNeighbor(v);
    // Stall for a bounded interval waiting for the straggler (paper §6.1),
    // then re-check health in case it died.
    if (!ctx_->WaitOr(fresh_enough, ctx_->Now() + options().barrier_timeout)) {
      monitor_->HealthCheckAndRecover();
    }
    const SimTime seg_end = ctx_->Now();
    if (blocker >= 0 && !wait_on_ns_.empty()) {
      wait_on_ns_[static_cast<size_t>(blocker)] += seg_end - seg_start;
    }
    seg_start = seg_end;
  }
  c_ssp_wait_ns_->Add(ctx_->Now() - t0);

  ProtocolChecker& checker = malt_->checker();
  if (checker.enabled()) {
    // Certify the gate from the checker's own shadow of applied stamps.
    std::vector<int> live;
    for (int sender : v.graph().InEdges(rank_)) {
      if (dstorm_->InGroup(sender)) {
        live.push_back(sender);
      }
    }
    checker.OnSspProceed(rank_, v.segment(), v.iteration(), live, ctx_->Now());
  }
}

int Worker::live_ranks() const { return static_cast<int>(dstorm_->GroupMembers().size()); }

// --- Malt ---------------------------------------------------------------------

Graph Malt::BuildDataflow(const MaltOptions& options) {
  switch (options.graph) {
    case GraphKind::kAll:
      return AllToAllGraph(options.ranks);
    case GraphKind::kHalton:
      return HaltonGraph(options.ranks);
    case GraphKind::kRing:
      return RingGraph(options.ranks);
    case GraphKind::kRandom:
      return RandomRegularGraph(options.ranks, options.random_fanout, options.seed);
    case GraphKind::kParamServer:
      return ParameterServerGraph(options.ranks, /*server=*/0);
    case GraphKind::kCustom: {
      Result<Graph> graph = GraphFromSpec(options.ranks, options.graph_spec);
      MALT_CHECK(graph.ok()) << "bad --graph_spec: " << graph.status().ToString();
      return *std::move(graph);
    }
  }
  MALT_CHECK(false) << "unreachable graph kind";
  __builtin_unreachable();
}

Malt::Malt(MaltOptions options)
    : options_(std::move(options)),
      telemetry_(options_.ranks, options_.telemetry),
      checker_(options_.check, options_.ranks),
      dataflow_(BuildDataflow(options_)),
      recorders_(static_cast<size_t>(options_.ranks)) {
  MALT_CHECK(options_.ranks >= 1) << "need at least one rank";
  if (options_.transport == TransportKind::kSim) {
    engine_ = std::make_unique<Engine>();
    fabric_ = std::make_unique<Fabric>(*engine_, options_.ranks, options_.fabric, &telemetry_,
                                       &checker_);
    transport_ = fabric_.get();
  } else {
    // Ranks are real threads here: switch the checker to its concurrent
    // ledger (lock-striped, relaxed assertions) before the transport sees
    // any traffic.
    checker_.SetConcurrent(true);
    shmem_ = std::make_unique<ShmemTransport>(options_.ranks, &telemetry_, &checker_);
    transport_ = shmem_.get();
  }
  domain_ = std::make_unique<DstormDomain>(*transport_, options_.ranks, &telemetry_);
  checker_.BindTelemetry(&telemetry_);
  checker_.SetStalenessBound(options_.staleness);
  health_ = std::make_unique<HealthMonitor>(&telemetry_, options_.ranks);
  if (!options_.telemetry.postmortem_path.empty()) {
    flightrec_ = std::make_unique<FlightRecorder>(options_.telemetry.postmortem_path);
    WireFlightRecorder();
  }
}

SimTime Malt::RunClockNow() const {
  return engine_ != nullptr ? engine_->now() : shmem_->clock().NowNs();
}

void Malt::DumpPostmortem(const char* reason) {
  if (flightrec_ == nullptr) {
    return;
  }
  const SimTime now = RunClockNow();
  flightrec_->RefreshSnapshot(now);
  flightrec_->Dump(reason, now);
}

void Malt::WireFlightRecorder() {
  // Section renderers run at dump/refresh time: from the watchdog or sampler
  // thread mid-run, or from the fatal hook at death. Everything they touch is
  // safe to read concurrently (atomic metric cells, stamped trace slots,
  // registry/ledger locks, HealthMonitor's mutex).
  flightrec_->AddSection("options", [this](std::string* out) {
    out->append("{\"ranks\":");
    AppendJsonNumber(out, static_cast<double>(options_.ranks));
    out->append(",\"transport\":");
    AppendJsonEscaped(out, options_.transport == TransportKind::kSim ? "sim" : "shmem");
    out->append(",\"sync\":");
    AppendJsonEscaped(out, ToString(options_.sync));
    out->append(",\"graph\":");
    AppendJsonEscaped(out, ToString(options_.graph));
    out->append(",\"staleness\":");
    AppendJsonNumber(out, static_cast<double>(options_.staleness));
    out->append(",\"queue_depth\":");
    AppendJsonNumber(out, static_cast<double>(options_.queue_depth));
    out->append(",\"seed\":");
    AppendJsonNumber(out, static_cast<double>(options_.seed));
    out->append(",\"check\":");
    AppendJsonEscaped(out, ToString(options_.check));
    out->push_back('}');
  });
  flightrec_->AddSection("metrics", [this](std::string* out) {
    telemetry_.SyncTraceDroppedCounters();
    out->append(telemetry_.MetricsJson());
  });
  flightrec_->AddSection("watermarks",
                         [this](std::string* out) { out->append(health_->WatermarksJson()); });
  flightrec_->AddSection("critical_paths", [this](std::string* out) {
    const std::vector<CriticalPathRecord> paths = health_->critical_paths();
    out->push_back('[');
    // Keep the bundle bounded: the newest window of epochs is the useful one.
    constexpr size_t kMaxPaths = 64;
    const size_t begin = paths.size() > kMaxPaths ? paths.size() - kMaxPaths : 0;
    for (size_t i = begin; i < paths.size(); ++i) {
      const CriticalPathRecord& rec = paths[i];
      if (i > begin) {
        out->push_back(',');
      }
      out->append("{\"epoch\":");
      AppendJsonNumber(out, static_cast<double>(rec.epoch));
      out->append(",\"critical_rank\":");
      AppendJsonNumber(out, static_cast<double>(rec.critical_rank));
      out->append(",\"wall_ns\":");
      AppendJsonNumber(out, static_cast<double>(rec.wall_ns));
      out->append(",\"wait_ns\":");
      AppendJsonNumber(out, static_cast<double>(rec.wait_ns));
      out->append(",\"waiting_on\":");
      AppendJsonNumber(out, static_cast<double>(rec.waiting_on));
      out->append(",\"straggler\":");
      AppendJsonNumber(out, static_cast<double>(rec.straggler));
      out->push_back('}');
    }
    out->push_back(']');
  });
  flightrec_->AddSection("checker", [this](std::string* out) {
    out->append(checker_.ReportJson());
  });
  flightrec_->AddSection("vclocks", [this](std::string* out) {
    out->push_back('[');
    for (int rank = 0; rank < options_.ranks; ++rank) {
      if (rank > 0) {
        out->push_back(',');
      }
      out->push_back('[');
      const std::vector<uint64_t> clock = checker_.VectorClockSnapshot(rank);
      for (size_t i = 0; i < clock.size(); ++i) {
        if (i > 0) {
          out->push_back(',');
        }
        AppendJsonNumber(out, static_cast<double>(clock[i]));
      }
      out->push_back(']');
    }
    out->push_back(']');
  });
  flightrec_->AddSection("trace_tail", [this](std::string* out) {
    // The newest events of every rank's ring, one compact object each —
    // enough to see what each rank was doing when the run died.
    constexpr size_t kTailPerRank = 64;
    out->push_back('[');
    bool first = true;
    for (int rank = 0; rank < telemetry_.ranks(); ++rank) {
      // Mid-run the owner may be emitting: the stamped read drops any event
      // it overwrites during the copy.
      for (const TraceEvent& ev : telemetry_.rank(rank).trace.Snapshot(kTailPerRank)) {
        if (!first) {
          out->push_back(',');
        }
        first = false;
        out->append("{\"rank\":");
        AppendJsonNumber(out, static_cast<double>(rank));
        out->append(",\"name\":");
        AppendJsonEscaped(out, ev.name);
        out->append(",\"ph\":");
        AppendJsonEscaped(out, std::string(1, ev.ph));
        out->append(",\"ts\":");
        AppendJsonNumber(out, static_cast<double>(ev.ts));
        if (ev.arg_name != nullptr) {
          out->push_back(',');
          AppendJsonEscaped(out, ev.arg_name);
          out->push_back(':');
          AppendJsonNumber(out, static_cast<double>(ev.arg));
        }
        out->push_back('}');
      }
    }
    out->push_back(']');
  });
}

Engine& Malt::engine() {
  MALT_CHECK(engine_ != nullptr) << "Malt::engine() is sim-transport only";
  return *engine_;
}

Fabric& Malt::fabric() {
  MALT_CHECK(fabric_ != nullptr) << "Malt::fabric() is sim-transport only";
  return *fabric_;
}

void Malt::ScheduleKill(int rank, double at_seconds) {
  if (engine_ != nullptr) {
    engine_->ScheduleKill(rank, FromSeconds(at_seconds));
    return;
  }
  MALT_CHECK(!ran_) << "shmem kills must be scheduled before Run()";
  pending_kills_.emplace_back(rank, at_seconds);
}

void Malt::Run(const std::function<void(Worker&)>& body) {
  MALT_CHECK(!ran_) << "Malt::Run called twice";
  ran_ = true;
  const TelemetryOptions& topt = options_.telemetry;
  if (topt.metrics_interval_ms > 0 && !topt.metrics_stream_path.empty()) {
    streamer_ = std::make_unique<MetricsStreamer>(&telemetry_, topt.metrics_stream_path);
    health_->BindStreamer(streamer_.get());
  }
  if (flightrec_ != nullptr) {
    // Process-wide dump target for the fatal-check hook (and, if the driver
    // opted in, the fatal-signal handlers), with a first pre-serialized
    // snapshot so even an immediate crash dumps a (sparse) bundle.
    flightrec_->Activate(topt.postmortem_signals);
    flightrec_->RefreshSnapshot(0);
  }
  if (options_.transport == TransportKind::kSim) {
    RunSim(body);
  } else {
    RunShmem(body);
  }
  // Fold the trace rings' drop counts into the metric registries so post-run
  // exports see an accurate telemetry.trace.dropped even without a streamer.
  telemetry_.SyncTraceDroppedCounters();
  const SimTime end = RunClockNow();
  // Abnormal-exit audit: ranks that died without unwinding through the
  // shmem catch path (sim kills stop the process cold) are reported here, so
  // watermarks and epoch finalization never hang on a corpse.
  for (int rank = 0; rank < options_.ranks; ++rank) {
    if (!rank_survived(rank)) {
      health_->OnRankDead(rank, end);
    }
  }
  health_->Finish(end);
  if (flightrec_ != nullptr) {
    flightrec_->RefreshSnapshot(end);
    if (survivors() < options_.ranks) {
      flightrec_->Dump("rank_death", end);
    }
  }
}

void Malt::RunWorker(int rank, RankCtx& ctx, const std::function<void(Worker&)>& body) {
  Worker worker(this, rank);
  worker.ctx_ = &ctx;
  worker.dstorm_ = &domain_->node(rank);
  worker.dstorm_->BindCtx(ctx);
  worker.monitor_ = std::make_unique<FaultMonitor>(*worker.dstorm_, options_.fault);
  worker.recorder_ = &recorders_[static_cast<size_t>(rank)];
  worker.InitTelemetry();
  body(worker);
  worker.CloseEpochForHealth();
  // Tell peers this rank is done with collectives: after failures,
  // survivors can run different numbers of rounds per epoch, and a
  // barrier must never wait on a rank that already returned.
  worker.dstorm_->FinishBarriers();
}

void Malt::RunSim(const std::function<void(Worker&)>& body) {
  for (int rank = 0; rank < options_.ranks; ++rank) {
    engine_->AddProcess("rank" + std::to_string(rank), [this, rank, &body](Process& proc) {
      SimProcessCtx ctx(proc);
      RunWorker(rank, ctx, body);
    });
  }
  if (streamer_ != nullptr) {
    // Auxiliary sampler process (pid == ranks): wakes every interval of
    // *virtual* time, snapshots a delta record, and exits once every rank
    // process has finished or been killed. Kill injection never targets it
    // (Fabric ignores pids beyond the rank range).
    const SimDuration interval =
        FromSeconds(static_cast<double>(options_.telemetry.metrics_interval_ms) / 1000.0);
    const int ranks = options_.ranks;
    engine_->AddProcess("metrics-sampler", [this, interval, ranks](Process& proc) {
      auto all_ranks_done = [this, ranks] {
        for (int pid = 0; pid < ranks; ++pid) {
          const ProcState st = engine_->state(pid);
          if (st != ProcState::kDone && st != ProcState::kKilled) {
            return false;
          }
        }
        return true;
      };
      while (!proc.WaitUntilOr(all_ranks_done, proc.now() + interval)) {
        streamer_->Sample(proc.now());
        if (flightrec_ != nullptr) {
          flightrec_->RefreshSnapshot(proc.now());
        }
      }
      streamer_->Finish(proc.now());
    });
  }
  engine_->Run();
}

void Malt::RunShmem(const std::function<void(Worker&)>& body) {
  const int n = options_.ranks;
  shmem_survived_.assign(static_cast<size_t>(n), 1);
  std::vector<std::unique_ptr<ShmemRankCtx>> ctxs;
  ctxs.reserve(static_cast<size_t>(n));
  for (int rank = 0; rank < n; ++rank) {
    ctxs.push_back(std::make_unique<ShmemRankCtx>(rank, shmem_->clock()));
  }

  // Kill watchdog: marks the rank dead on the transport (peers see error
  // completions at once, like a dead NIC) and raises its cancellation flag;
  // the rank unwinds at its next cancellation point.
  std::atomic<bool> run_done{false};
  std::thread watchdog;
  if (!pending_kills_.empty()) {
    watchdog = std::thread([this, &ctxs, &run_done] {
      std::vector<std::pair<int, double>> kills = pending_kills_;
      std::sort(kills.begin(), kills.end(),
                [](const auto& a, const auto& b) { return a.second < b.second; });
      size_t next = 0;
      SimTime last_refresh = 0;
      while (next < kills.size() && !run_done.load(std::memory_order_acquire)) {
        const SimTime now = shmem_->clock().NowNs();
        if (now >= FromSeconds(kills[next].second)) {
          const int victim = kills[next].first;
          MALT_LOG_S(kInfo) << "watchdog: killing rank " << victim;
          shmem_->MarkDead(victim);
          ctxs[static_cast<size_t>(victim)]->RequestKill();
          // Postmortem at the moment of death: the bundle captures what the
          // cluster looked like when the kill landed, not only at run end.
          health_->OnRankDead(victim, now);
          if (flightrec_ != nullptr) {
            flightrec_->Dump("watchdog_kill", now);
          }
          ++next;
          continue;
        }
        if (flightrec_ != nullptr && now - last_refresh >= FromSeconds(0.05)) {
          flightrec_->RefreshSnapshot(now);
          last_refresh = now;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  // Wall-clock metrics sampler: snapshots NDJSON delta records while the
  // rank threads run. All the cells it reads are atomics or internally
  // locked, so sampling mid-run is TSan-clean.
  std::thread sampler;
  if (streamer_ != nullptr) {
    const auto interval = std::chrono::milliseconds(options_.telemetry.metrics_interval_ms);
    sampler = std::thread([this, &run_done, interval] {
      auto next = std::chrono::steady_clock::now() + interval;
      while (!run_done.load(std::memory_order_acquire)) {
        if (std::chrono::steady_clock::now() >= next) {
          const SimTime now = shmem_->clock().NowNs();
          streamer_->Sample(now);
          // Keep the signal handler's pre-serialized postmortem snapshot
          // fresh at the sampler cadence.
          if (flightrec_ != nullptr) {
            flightrec_->RefreshSnapshot(now);
          }
          next += interval;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (int rank = 0; rank < n; ++rank) {
    threads.emplace_back([this, rank, &body, &ctxs] {
#ifdef __linux__
      // Wait backoff sleeps 20 us at a time (ShmemRankCtx::Backoff); the
      // default 50 us timer slack would more than triple each sleep.
      prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
#endif
      try {
        RunWorker(rank, *ctxs[static_cast<size_t>(rank)], body);
      } catch (const ProcessKilled&) {
        // Fail-stop: the rank is dead from here on; peers observe error
        // completions and failed probes exactly as on the simulated fabric.
        // The interrupted epoch is discarded (a partial epoch would skew the
        // straggler statistics); the death itself is what health records.
        shmem_->MarkDead(rank);
        shmem_survived_[static_cast<size_t>(rank)] = 0;
        health_->OnRankDead(rank, ctxs[static_cast<size_t>(rank)]->Now());
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  run_done.store(true, std::memory_order_release);
  if (watchdog.joinable()) {
    watchdog.join();
  }
  if (sampler.joinable()) {
    sampler.join();
  }
  if (streamer_ != nullptr) {
    streamer_->Finish(shmem_->clock().NowNs());
  }
}

bool Malt::rank_survived(int rank) const {
  if (engine_ != nullptr) {
    return engine_->alive(rank);
  }
  MALT_CHECK(!shmem_survived_.empty()) << "rank_survived before Run()";
  return shmem_survived_[static_cast<size_t>(rank)] != 0;
}

int Malt::survivors() const {
  int alive = 0;
  for (int rank = 0; rank < options_.ranks; ++rank) {
    alive += rank_survived(rank) ? 1 : 0;
  }
  return alive;
}

}  // namespace malt
