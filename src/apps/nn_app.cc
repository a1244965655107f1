#include "src/apps/nn_app.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/core/model_sync.h"

namespace malt {

NnRunResult RunDistributedNn(Malt& malt, const NnAppConfig& config) {
  MALT_CHECK(config.data != nullptr) << "NnAppConfig.data not set";
  const SparseDataset& data = *config.data;
  MlpOptions mlp_opts = config.mlp;
  mlp_opts.input_dim = data.dim;

  malt.Run([&](Worker& w) {
    Recorder& rec = w.recorder();
    const bool is_probe_rank = w.rank() == 0;

    // One vector per layer (the paper: "each layer of parameters is
    // represented using a separate maltGradient").
    MaltVector l1 = w.CreateVector("nn_l1", Mlp::Layer1Size(mlp_opts));
    MaltVector l2 = w.CreateVector("nn_l2", Mlp::Layer2Size(mlp_opts));
    MaltVector l3 = w.CreateVector("nn_l3", Mlp::Layer3Size(mlp_opts));
    Mlp mlp(l1.data(), l2.data(), l3.data(), mlp_opts);
    mlp.Init(w.options().seed);  // identical init on every replica

    // §4.1.3: layer deltas every round, whole models every
    // model_sync_every-th round (kInterleaved), or whole models every round.
    ModelSync model_sync(w, {&l1, &l2, &l3},
                         config.mixing == NnAppConfig::Mixing::kModelAvg
                             ? ModelSync::Mixing::kModelAverage
                             : ModelSync::Mixing::kDeltaSum,
                         config.model_sync_every);

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
      rec.Record("auc_vs_time", w.now_seconds(), mlp.TestAuc(data.test));
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
        mlp.TrainExample(data.train[i]);
        batch_flops += mlp.last_step_flops();
        ++examples_done;
        ++in_batch;
        const bool end_of_shard = i + 1 == shard.end;
        if (in_batch >= config.cb_size || end_of_shard) {
          w.ChargeFlops(batch_flops);
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
      rec.Set("final_auc", mlp.TestAuc(data.test));
      rec.Set("final_logloss", mlp.TestLogLoss(data.test));
    }
  });

  NnRunResult result;
  const Recorder& rec0 = malt.recorder(0);
  if (rec0.Has("auc_vs_time")) {
    result.auc_vs_time = rec0.Get("auc_vs_time");
  }
  result.final_auc = rec0.Counter("final_auc");
  result.final_logloss = rec0.Counter("final_logloss");
  result.seconds_total = rec0.Counter("finish_seconds");
  result.total_bytes = malt.traffic().TotalBytes();
  return result;
}

NnRunResult RunNn(MaltOptions options, const NnAppConfig& config) {
  Malt malt(std::move(options));
  return RunDistributedNn(malt, config);
}

}  // namespace malt
