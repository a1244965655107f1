#include "src/apps/mf_app.h"

#include <algorithm>

#include "src/base/log.h"

namespace malt {

MfRunResult RunDistributedMf(Malt& malt, const MfAppConfig& config) {
  MALT_CHECK(config.data != nullptr) << "MfAppConfig.data not set";
  RatingsDataset data = *config.data;  // local copy: we may reorder it
  if (config.sort_by_item) {
    SortRatingsByItem(data);
  }
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

    bool reshard = true;
    w.monitor().AddRecoveryListener([&reshard](const std::vector<int>&) { reshard = true; });

    // Touched-row tracking for sparse scatter.
    std::vector<uint8_t> row_touched(static_cast<size_t>(data.users + data.items), 0);
    std::vector<uint32_t> touched_rows;
    std::vector<uint32_t> scatter_indices;

    Worker::Shard shard;
    uint32_t batch = 0;
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

    auto comm_round = [&] {
      ++batch;
      factors.set_iteration(batch);
      scatter_indices.clear();
      for (uint32_t row : touched_rows) {
        const size_t base = static_cast<size_t>(row) * rank_dim;
        for (size_t f = 0; f < rank_dim; ++f) {
          scatter_indices.push_back(static_cast<uint32_t>(base + f));
        }
        row_touched[row] = 0;
      }
      touched_rows.clear();
      const Status status = factors.ScatterIndices(scatter_indices);
      if (!status.ok() && status.code() != StatusCode::kUnavailable) {
        MALT_LOG_S(kWarning) << "rank " << w.rank() << " MF scatter: " << status.ToString();
      }
      w.ChargeSeconds(2e-7 * static_cast<double>(factors.graph().OutEdges(w.rank()).size()));
      // Under BSP the gather folds this round's objects only: a fast peer may
      // already have posted its next round's, which belongs to the next
      // gather (the same bound ModelSync applies).
      int64_t max_iter = -1;
      if (w.options().sync == SyncMode::kBSP) {
        (void)w.dstorm().Flush();
        MALT_CHECK(w.Barrier().ok());
        max_iter = batch;
      }
      const GatherResult r = factors.GatherReplace(-1, max_iter);  // distributed Hogwild
      w.ChargeFlops(static_cast<double>(r.received) * static_cast<double>(scatter_indices.size()));
      (void)w.monitor().CheckAndRecover();
    };

    const SimTime start = w.now();
    for (int epoch = 0; epoch < config.epochs; ++epoch) {
      w.BeginEpoch(epoch);
      if (reshard) {
        shard = w.ShardRange(data.train.size());
        reshard = false;
        eval_stride = std::max<int64_t>(
            1, static_cast<int64_t>(shard.size()) / std::max(1, config.evals_per_epoch));
        next_eval = ratings_done + eval_stride;
      }
      double batch_flops = 0;
      int in_batch = 0;
      for (size_t i = shard.begin; i < shard.end; ++i) {
        const Rating& r = data.train[i];
        mf.TrainRating(r);
        batch_flops += mf.last_step_flops();
        const uint32_t user_row = r.user;
        const uint32_t item_row = static_cast<uint32_t>(data.users) + r.item;
        if (!row_touched[user_row]) {
          row_touched[user_row] = 1;
          touched_rows.push_back(user_row);
        }
        if (!row_touched[item_row]) {
          row_touched[item_row] = 1;
          touched_rows.push_back(item_row);
        }
        ++ratings_done;
        ++in_batch;
        const bool end_of_shard = i + 1 == shard.end;
        if (in_batch >= config.cb_size || end_of_shard) {
          w.ChargeFlops(batch_flops);
          comm_round();
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
