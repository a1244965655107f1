// malt_run — the experiment driver.
//
// One binary that runs any of the three applications (SVM / MF / NN) on any
// built-in dataset profile or a LIBSVM file, with every knob of the runtime
// exposed as a flag, and emits machine-readable CSV curves. This plays the
// role of the paper's scripting front-end (they used Lua bindings): a place
// to compose experiments without writing C++.
//
// Examples:
//   malt_run --app=svm --dataset=rcv1 --ranks=10 --sync=bsp --graph=halton
//   malt_run --app=svm --train=mydata.svm --ranks=4 --average=model
//   malt_run --app=mf  --ranks=2 --sync=asp --epochs=12
//   malt_run --app=nn  --ranks=8 --cb=500 --csv=curve.csv

#include <cstdio>
#include <fstream>
#include <string>

#include "src/apps/mf_app.h"
#include "src/apps/nn_app.h"
#include "src/apps/svm_app.h"
#include "src/base/flags.h"
#include "src/base/log.h"
#include "src/ml/dataset.h"
#include "src/ml/io.h"

namespace {

malt::ClassificationConfig ProfileFor(const std::string& name) {
  if (name == "rcv1") {
    return malt::Rcv1Like();
  }
  if (name == "alpha") {
    return malt::AlphaLike();
  }
  if (name == "dna") {
    return malt::DnaLike();
  }
  if (name == "webspam") {
    return malt::WebspamLike();
  }
  if (name == "splice") {
    return malt::SpliceLike();
  }
  if (name == "kdd12") {
    return malt::KddLike();
  }
  MALT_CHECK(false) << "unknown dataset '" << name
                    << "' (rcv1|alpha|dna|webspam|splice|kdd12)";
  __builtin_unreachable();
}

void EmitCsv(const std::string& path, const malt::Series& series, const char* x_name,
             const char* y_name) {
  std::ofstream out(path);
  MALT_CHECK(out.good()) << "cannot write " << path;
  out << x_name << ',' << y_name << '\n';
  for (size_t i = 0; i < series.size(); ++i) {
    out << series.x[i] << ',' << series.y[i] << '\n';
  }
  std::printf("wrote %zu curve points to %s\n", series.size(), path.c_str());
}

// Post-run telemetry exports: per-rank + aggregate metrics JSON, and the
// cluster trace in Chrome trace_event format (load in chrome://tracing or
// https://ui.perfetto.dev).
void EmitTelemetry(malt::Malt& malt, const std::string& metrics_out,
                   const std::string& trace_out) {
  const int64_t dropped = malt.telemetry().TraceDropped();
  if (dropped > 0) {
    std::printf("warning: %lld trace events dropped (ring wrapped; raise --trace_capacity)\n",
                static_cast<long long>(dropped));
  }
  if (!metrics_out.empty()) {
    const malt::Status status = malt.telemetry().WriteMetricsJson(metrics_out);
    MALT_CHECK(status.ok()) << status.ToString();
    std::printf("wrote metrics report to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    const malt::Status status = malt.telemetry().WriteChromeTrace(trace_out);
    MALT_CHECK(status.ok()) << status.ToString();
    std::printf("wrote Chrome trace to %s%s\n", trace_out.c_str(),
                dropped > 0 ? " (ring wrapped; oldest events dropped)" : "");
  }
  if (malt::MetricsStreamer* streamer = malt.metrics_streamer()) {
    const malt::Status status = streamer->status();
    if (!status.ok()) {
      std::printf("warning: metrics stream %s: %s\n", streamer->path().c_str(),
                  status.ToString().c_str());
    } else {
      std::printf("streamed %lld metric samples to %s\n",
                  static_cast<long long>(streamer->samples()), streamer->path().c_str());
    }
  }
}

// Post-run rank-health summary (src/telemetry/health.h): per-epoch straggler
// flags and dead ranks become visible warnings on stdout.
void EmitHealth(malt::Malt& malt) {
  const malt::HealthMonitor& health = malt.health();
  const int64_t epochs = health.epochs_profiled();
  if (epochs <= 0) {
    return;
  }
  for (int rank = 0; rank < malt.options().ranks; ++rank) {
    const int64_t flagged = health.straggler_epochs(rank);
    if (flagged > 0) {
      std::printf("warning: rank %d straggled in %lld/%lld profiled epochs "
                  "(see health.rank.%d.* gauges and tools/report.py)\n",
                  rank, static_cast<long long>(flagged), static_cast<long long>(epochs), rank);
    }
    if (!malt.rank_survived(rank)) {
      std::printf("warning: rank %d died before run end\n", rank);
    }
  }
}

// Post-run protocol-checker report (see src/check/check.h). Returns the
// number of violations so main() can turn them into a nonzero exit.
int64_t EmitCheck(malt::Malt& malt, const std::string& check_out) {
  const malt::ProtocolChecker& checker = malt.checker();
  if (!checker.enabled()) {
    return 0;
  }
  std::printf("check: level=%s events=%lld violations=%lld\n",
              malt::ToString(checker.level()).c_str(),
              static_cast<long long>(checker.events_checked()),
              static_cast<long long>(checker.violation_count()));
  for (const malt::Violation& v : checker.violations()) {
    std::printf("check:   [%s] rank %d at t=%lldns: %s\n", v.kind, v.rank,
                static_cast<long long>(v.time), v.detail.c_str());
  }
  if (!check_out.empty()) {
    const malt::Status status = checker.WriteReportJson(check_out);
    MALT_CHECK(status.ok()) << status.ToString();
    std::printf("wrote check report to %s\n", check_out.c_str());
  }
  return checker.violation_count();
}

// Shared exit path for every app branch: telemetry is flushed (drop warning,
// metrics, trace, stream summary, health warnings) BEFORE the checker report
// can turn into a nonzero exit — a run that fails the protocol check still
// leaves its observability artifacts behind, plus a postmortem bundle when
// --postmortem_out is set.
int Epilogue(malt::Malt& malt, const std::string& metrics_out, const std::string& trace_out,
             const std::string& check_out) {
  EmitTelemetry(malt, metrics_out, trace_out);
  EmitHealth(malt);
  if (EmitCheck(malt, check_out) > 0) {
    malt.DumpPostmortem("checker_violation");
    if (malt.flight_recorder() != nullptr) {
      std::printf("wrote postmortem bundle to %s\n",
                  malt.options().telemetry.postmortem_path.c_str());
    }
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  malt::Flags flags;
  flags.Parse(argc, argv);

  const std::string app = flags.GetString("app", "svm", "application: svm|mf|nn");
  malt::MaltOptions options;
  options.ranks = static_cast<int>(flags.GetInt("ranks", 10, "model replicas"));
  options.transport = *malt::ParseTransportKind(
      flags.GetString("transport", "sim", "execution backend: sim|shmem"));
  options.sync = *malt::ParseSyncMode(flags.GetString("sync", "bsp", "bsp|asp|ssp"));
  options.graph =
      *malt::ParseGraphKind(flags.GetString("graph", "all", "all|halton|ring|random|ps"));
  options.staleness = static_cast<int>(flags.GetInt("staleness", 8, "SSP bound"));
  options.queue_depth = static_cast<int>(flags.GetInt("queue_depth", 4, "recv slots/sender"));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42, "determinism seed"));
  options.fabric.net.latency =
      malt::FromMicros(flags.GetDouble("latency_us", 1.5, "one-way latency"));
  options.fabric.net.bandwidth_bytes_per_sec =
      flags.GetDouble("gbps", 40.0, "link bandwidth, Gbit/s") / 8.0 * 1e9;

  const int epochs = static_cast<int>(flags.GetInt("epochs", 10, "training epochs"));
  const int cb = static_cast<int>(flags.GetInt("cb", 5000, "communication batch"));
  const std::string average = flags.GetString("average", "gradient", "svm: gradient|model");
  const std::string dataset = flags.GetString("dataset", "rcv1", "built-in profile");
  const std::string train_file = flags.GetString("train", "", "LIBSVM train file (svm)");
  const std::string test_file = flags.GetString("test", "", "LIBSVM test file (svm)");
  const std::string csv = flags.GetString("csv", "", "write the metric curve to this CSV");
  const std::string metrics_out =
      flags.GetString("metrics_out", "", "write the runtime metrics report (JSON) here");
  const std::string trace_out =
      flags.GetString("trace_out", "", "write a Chrome trace_event JSON here");
  const int trace_capacity = static_cast<int>(
      flags.GetInt("trace_capacity", 16384,
                   "retained trace events per rank (rounded up to a power of two)"));
  const int flow_events = static_cast<int>(
      flags.GetInt("flow_events", 1, "tag one-sided writes with flow trace context (0 to disable)"));
  const int metrics_interval_ms = static_cast<int>(flags.GetInt(
      "metrics_interval_ms", 0, "sample metrics every N ms mid-run (0 = off)"));
  const std::string metrics_stream = flags.GetString(
      "metrics_stream", "", "append NDJSON metric samples here (with --metrics_interval_ms)");
  const std::string postmortem_out = flags.GetString(
      "postmortem_out", "", "dump crash/violation postmortem bundles (NDJSON) here");
  const int slow_rank = static_cast<int>(flags.GetInt(
      "slow_rank", -1, "svm: make this rank a persistent straggler"));
  const double slow_factor = flags.GetDouble(
      "slow_factor", 4.0, "svm: --slow_rank computes this many times slower");
  const double kill_at = flags.GetDouble("kill_at", -1.0, "kill a rank at this virtual time");
  const int kill_rank = static_cast<int>(flags.GetInt("kill_rank", -1, "which rank to kill"));
  const std::string check_level =
      flags.GetString("check", "off", "protocol checker level: off|cheap|full");
  const std::string check_out =
      flags.GetString("check_out", "", "write the checker's violations report (JSON) here");
  flags.Finish();
  options.telemetry.trace_capacity = static_cast<size_t>(trace_capacity);
  options.telemetry.flow_events = flow_events != 0;
  options.telemetry.metrics_interval_ms = metrics_interval_ms;
  options.telemetry.metrics_stream_path = metrics_stream;
  options.telemetry.postmortem_path = postmortem_out;
  // The driver owns the process, so it may install crash handlers; library
  // users must opt in explicitly.
  options.telemetry.postmortem_signals = !postmortem_out.empty();
  MALT_CHECK(metrics_interval_ms <= 0 || !metrics_stream.empty())
      << "--metrics_interval_ms needs --metrics_stream=FILE";
  const malt::Result<malt::CheckLevel> parsed_check = malt::ParseCheckLevel(check_level);
  MALT_CHECK(parsed_check.ok()) << parsed_check.status().ToString();
  options.check = *parsed_check;
  // Run-clock label: virtual time under sim, wall-clock time under shmem.
  const bool wall_clock = options.transport == malt::TransportKind::kShmem;
  const char* clock_label = wall_clock ? "wall" : "virtual";
  const char* csv_time = wall_clock ? "wall_seconds" : "virtual_seconds";

  if (app == "svm") {
    malt::SparseDataset data;
    if (!train_file.empty()) {
      auto loaded = test_file.empty() ? malt::LoadLibsvm(train_file)
                                      : malt::LoadLibsvm(train_file, test_file);
      MALT_CHECK(loaded.ok()) << loaded.status().ToString();
      data = *std::move(loaded);
    } else {
      data = malt::MakeClassification(ProfileFor(dataset));
    }
    malt::SvmAppConfig config;
    config.data = &data;
    config.epochs = epochs;
    config.cb_size = cb;
    config.average = average == "model" ? malt::SvmAppConfig::Average::kModel
                                        : malt::SvmAppConfig::Average::kGradient;
    config.slow_rank = slow_rank;
    config.slow_factor = slow_factor;
    malt::Malt malt(options);
    if (kill_rank >= 0 && kill_at >= 0) {
      malt.ScheduleKill(kill_rank, kill_at);
    }
    const malt::SvmRunResult r = malt::RunDistributedSvm(malt, config);
    std::printf("svm %s: ranks=%d sync=%s graph=%s cb=%d epochs=%d\n", data.name.c_str(),
                options.ranks, malt::ToString(options.sync).c_str(),
                malt::ToString(options.graph).c_str(), cb, epochs);
    std::printf("final: loss=%.4f accuracy=%.4f %s=%.4fs network=%.1fMB survivors=%d\n",
                r.final_loss, r.final_accuracy, clock_label, r.seconds_total,
                static_cast<double>(r.total_bytes) / 1e6, malt.survivors());
    std::printf("phases: gradient=%.4fs scatter=%.4fs gather=%.4fs barrier=%.4fs\n",
                r.time_gradient, r.time_scatter, r.time_gather, r.time_barrier);
    if (!csv.empty()) {
      EmitCsv(csv, r.loss_vs_time, csv_time, "test_hinge_loss");
    }
    return Epilogue(malt, metrics_out, trace_out, check_out);
  }

  if (app == "mf") {
    const malt::RatingsDataset data = malt::MakeRatings(malt::RatingsConfig{});
    malt::MfAppConfig config;
    config.data = &data;
    config.epochs = epochs;
    config.cb_size = cb > 5000 ? 1000 : cb;
    malt::Malt malt(options);
    const malt::MfRunResult r = malt::RunDistributedMf(malt, config);
    std::printf("mf %s: ranks=%d sync=%s\n", data.name.c_str(), options.ranks,
                malt::ToString(options.sync).c_str());
    std::printf("final: rmse=%.4f %s=%.4fs (%.4fs/epoch) network=%.1fMB\n", r.final_rmse,
                clock_label, r.seconds_total, r.seconds_per_epoch,
                static_cast<double>(r.total_bytes) / 1e6);
    if (!csv.empty()) {
      EmitCsv(csv, r.rmse_vs_time, csv_time, "test_rmse");
    }
    return Epilogue(malt, metrics_out, trace_out, check_out);
  }

  if (app == "nn") {
    malt::ClassificationConfig dc = malt::KddLike();
    dc.train_n = 24000;
    const malt::SparseDataset data = malt::MakeClassification(dc);
    malt::NnAppConfig config;
    config.data = &data;
    config.epochs = epochs;
    config.cb_size = cb > 5000 ? 500 : cb;
    config.mlp.hidden1 = 32;
    config.mlp.hidden2 = 16;
    malt::Malt malt(options);
    const malt::NnRunResult r = malt::RunDistributedNn(malt, config);
    std::printf("nn %s: ranks=%d sync=%s\n", data.name.c_str(), options.ranks,
                malt::ToString(options.sync).c_str());
    std::printf("final: auc=%.4f logloss=%.4f %s=%.4fs network=%.1fMB\n", r.final_auc,
                r.final_logloss, clock_label, r.seconds_total,
                static_cast<double>(r.total_bytes) / 1e6);
    if (!csv.empty()) {
      EmitCsv(csv, r.auc_vs_time, csv_time, "test_auc");
    }
    return Epilogue(malt, metrics_out, trace_out, check_out);
  }

  MALT_CHECK(false) << "unknown --app '" << app << "' (svm|mf|nn)";
  return 1;
}
