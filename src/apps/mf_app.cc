#include "src/apps/mf_app.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/core/model_sync.h"

namespace malt {

MfRunResult RunDistributedMf(Malt& malt, const MfAppConfig& config) {
  MALT_CHECK(config.data != nullptr) << "MfAppConfig.data not set";
  const RatingsDataset& data = *config.data;
  // The reordered training set is built straight from the input: one copy.
  const std::vector<Rating> train = config.sort_by_item ? RatingsByItem(data.train) : data.train;
  const size_t rank_dim = static_cast<size_t>(config.mf.rank);
  const size_t factor_count =
      MfSgd::FactorCount(data.users, data.items, config.mf.rank);
  // A batch touches at most 2*cb distinct rows; each row is `rank` floats.
  const size_t max_nnz =
      std::min(factor_count, (2 * static_cast<size_t>(config.cb_size) + 16) * rank_dim);

  malt.Run([&](Worker& w) {
    Recorder& rec = w.recorder();
    const bool is_probe_rank = w.rank() == 0;

    MaltVector factors = w.CreateVector("mf_pq", factor_count, Layout::kSparse, max_nnz);
    MfSgd mf(factors.data(), data.users, data.items, config.mf);
    mf.InitFactors(w.options().seed);  // same init everywhere
    ModelSync sync(w, {&factors}, ModelSync::Mixing::kReplace);  // distributed Hogwild

    bool reshard = true;
    w.monitor().AddRecoveryListener([&reshard](const std::vector<int>&) { reshard = true; });

    // Touched-row tracking: a round ships the `rank` coordinates of every
    // factor row touched since the last one, rows in first-touch order.
    std::vector<uint8_t> row_touched(static_cast<size_t>(data.users + data.items), 0);
    std::vector<uint32_t> touched_rows;
    std::vector<uint32_t> ship;
    auto touch = [&](uint32_t row) {
      if (!row_touched[row]) {
        row_touched[row] = 1;
        touched_rows.push_back(row);
      }
    };

    Worker::Shard shard;
    int64_t ratings_done = 0;
    int64_t next_eval = 1;
    int64_t eval_stride = 1;

    auto evaluate = [&] {
      if (!is_probe_rank) {
        return;
      }
      const double rmse = mf.TestRmse(data.test);
      rec.Record("rmse_vs_time", w.now_seconds(), rmse);
      rec.Record("rmse_vs_ratings", static_cast<double>(ratings_done), rmse);
    };

    const SimTime start = w.now();
    for (int epoch = 0; epoch < config.epochs; ++epoch) {
      w.BeginEpoch(epoch);
      if (reshard) {
        shard = w.ShardRange(train.size());
        reshard = false;
        eval_stride = std::max<int64_t>(
            1, static_cast<int64_t>(shard.size()) / std::max(1, config.evals_per_epoch));
        next_eval = ratings_done + eval_stride;
      }
      double batch_flops = 0;
      int in_batch = 0;
      for (size_t i = shard.begin; i < shard.end; ++i) {
        const Rating& r = train[i];
        mf.TrainRating(r);
        batch_flops += mf.last_step_flops();
        touch(r.user);
        touch(static_cast<uint32_t>(data.users) + r.item);
        ++ratings_done;
        ++in_batch;
        const bool end_of_shard = i + 1 == shard.end;
        if (in_batch >= config.cb_size || end_of_shard) {
          w.ChargeFlops(batch_flops);
          ship.clear();
          for (uint32_t row : touched_rows) {
            row_touched[row] = 0;
            for (size_t f = 0; f < rank_dim; ++f) {
              ship.push_back(static_cast<uint32_t>(row * rank_dim + f));
            }
          }
          touched_rows.clear();
          sync.Round(ship);
          in_batch = 0;
          batch_flops = 0;
          if (ratings_done >= next_eval) {
            evaluate();
            next_eval += eval_stride;
          }
        }
      }
      rec.Count("epochs");
    }
    // Flush only: Finish() would add a BSP barrier and move the finish time.
    (void)w.dstorm().Flush();
    evaluate();
    rec.Set("finish_seconds", w.now_seconds());
    rec.Set("train_seconds", ToSeconds(w.now() - start));
    if (is_probe_rank) {
      rec.Set("final_rmse", mf.TestRmse(data.test));
    }
  });

  MfRunResult result;
  const Recorder& rec0 = malt.recorder(0);
  if (rec0.Has("rmse_vs_time")) {
    result.rmse_vs_time = rec0.Get("rmse_vs_time");
    result.rmse_vs_ratings = rec0.Get("rmse_vs_ratings");
  }
  result.final_rmse = rec0.Counter("final_rmse");
  result.seconds_total = rec0.Counter("finish_seconds");
  const double epochs = std::max(1.0, rec0.Counter("epochs"));
  result.seconds_per_epoch = rec0.Counter("train_seconds") / epochs;
  result.total_bytes = malt.traffic().TotalBytes();
  return result;
}

MfRunResult RunMf(MaltOptions options, const MfAppConfig& config) {
  Malt malt(std::move(options));
  return RunDistributedMf(malt, config);
}

}  // namespace malt
