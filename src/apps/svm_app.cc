#include "src/apps/svm_app.h"

#include <algorithm>
#include <cmath>

#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/ml/metrics.h"

namespace malt {

SvmRunResult RunDistributedSvm(Malt& malt, const SvmAppConfig& config) {
  MALT_CHECK(config.data != nullptr) << "SvmAppConfig.data not set";
  const SparseDataset& data = *config.data;
  const MaltOptions& run_opts = malt.options();
  const bool gradient_mode = config.average == SvmAppConfig::Average::kGradient;

  malt.Run([&](Worker& w) {
    Recorder& rec = w.recorder();
    const bool is_probe_rank = w.rank() == 0;  // loss curves come from rank 0

    // The model lives in the shared vector's local copy; SVM-SGD trains in
    // place and ModelSync turns it into a delta only for the round itself.
    const bool sparse_mode = gradient_mode && config.sparse_gradients;
    const size_t max_nnz =
        config.sparse_max_nnz > 0 ? config.sparse_max_nnz : std::max<size_t>(1, data.dim / 3);
    MaltVector shared =
        sparse_mode
            ? w.CreateVector("svm_g", data.dim, Layout::kSparse, max_nnz)
            : w.CreateVector(gradient_mode ? "svm_g" : "svm_w", data.dim);
    const std::span<float> weights = shared.data();
    SvmSgd svm(weights, config.svm);
    const ModelSync::Mixing mixing = !gradient_mode ? ModelSync::Mixing::kModelAverage
                                     : config.fold == SvmAppConfig::Fold::kSum
                                         ? ModelSync::Mixing::kDeltaSum
                                         : ModelSync::Mixing::kDeltaAverage;
    // Whole-model rounds only under BSP: replicas must agree on a round's
    // type, and round counters are aligned only there.
    ModelSync model_sync(w, {&shared}, mixing,
                         run_opts.sync == SyncMode::kBSP ? config.model_sync_every : 0,
                         config.asp_skip_stale);

    // Per-batch compute jitter models transient stragglers (shared machines,
    // cache effects); it is what separates BSP from ASP/SSP in Figs 10/12.
    Xoshiro256 jitter_rng(run_opts.seed * 7919 + static_cast<uint64_t>(w.rank()));

    bool reshard = true;
    w.monitor().AddRecoveryListener([&reshard](const std::vector<int>&) { reshard = true; });

    Worker::Shard shard;
    int64_t examples_done = 0;
    int64_t next_eval = 1;
    int64_t eval_stride = 1;

    auto evaluate = [&] {
      if (!is_probe_rank) {
        return;
      }
      const double loss = MeanHingeLoss(weights, data.test);
      rec.Record("loss_vs_time", w.now_seconds(), loss);
      rec.Record("loss_vs_examples", static_cast<double>(examples_done), loss);
    };

    for (int epoch = 0; epoch < config.epochs; ++epoch) {
      w.BeginEpoch(epoch);
      if (reshard) {
        shard = w.ShardRange(data.train.size());
        reshard = false;
        eval_stride = std::max<int64_t>(
            1, static_cast<int64_t>(shard.size()) / std::max(1, config.evals_per_epoch));
        next_eval = examples_done + eval_stride;
      }
      double batch_flops = 0;
      int in_batch = 0;
      for (size_t i = shard.begin; i < shard.end; ++i) {
        svm.TrainExample(data.train[i]);
        batch_flops += svm.last_step_flops();
        ++examples_done;
        ++in_batch;
        const bool end_of_shard = i + 1 == shard.end;
        if (in_batch >= config.cb_size || end_of_shard) {
          {
            Worker::PhaseScope scope(w, Worker::Phase::kCompute);
            double jitter = config.compute_jitter > 0
                                ? std::exp(config.compute_jitter * jitter_rng.NextGaussian())
                                : 1.0;
            if (config.spike_prob > 0 && jitter_rng.NextDouble() < config.spike_prob) {
              jitter *= config.spike_factor;
            }
            w.ChargeFlops(batch_flops * jitter);
            if (w.rank() == config.slow_rank && config.slow_factor > 1.0) {
              // The persistent straggler's surcharge goes through InjectDelay
              // so it is real wall time under shmem too (ChargeFlops is only
              // modeled time); under sim the total modeled compute comes out
              // the same as folding slow_factor into the jitter.
              w.InjectDelay((config.slow_factor - 1.0) *
                            ToSeconds(w.options().cost.ForFlops(batch_flops * jitter)));
            }
          }
          model_sync.Round();
          in_batch = 0;
          batch_flops = 0;
          if (examples_done >= next_eval) {
            evaluate();
            next_eval += eval_stride;
          }
        }
      }
    }

    model_sync.Finish();
    evaluate();
    rec.Set("finish_seconds", w.now_seconds());
    if (is_probe_rank) {
      rec.Set("final_loss", MeanHingeLoss(weights, data.test));
      rec.Set("final_accuracy", Accuracy(weights, data.test));
    }
  });

  SvmRunResult result;
  const Recorder& rec0 = malt.recorder(0);
  if (rec0.Has("loss_vs_time")) {
    result.loss_vs_time = rec0.Get("loss_vs_time");
    result.loss_vs_examples = rec0.Get("loss_vs_examples");
  }
  result.final_loss = rec0.Counter("final_loss");
  result.final_accuracy = rec0.Counter("final_accuracy");
  result.total_bytes = malt.traffic().TotalBytes();
  result.total_messages = malt.traffic().TotalMessages();
  result.seconds_total = rec0.Counter("finish_seconds");
  // Fig. 8 split straight from rank 0's runtime telemetry registry.
  const MetricRegistry& metrics0 = malt.telemetry().rank(0).metrics;
  result.time_gradient = ToSeconds(metrics0.CounterValue("worker.compute_ns"));
  result.time_scatter = ToSeconds(metrics0.CounterValue("worker.scatter_ns"));
  result.time_gather = ToSeconds(metrics0.CounterValue("worker.gather_ns"));
  result.time_barrier = ToSeconds(metrics0.CounterValue("worker.barrier_ns"));
  return result;
}

SvmRunResult RunSvm(MaltOptions options, const SvmAppConfig& config) {
  Malt malt(std::move(options));
  return RunDistributedSvm(malt, config);
}

}  // namespace malt
