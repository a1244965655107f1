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

    // Model storage: shared vector for model averaging; local array + shared
    // delta vector for gradient averaging.
    const bool sparse_mode = gradient_mode && config.sparse_gradients;
    const size_t max_nnz =
        config.sparse_max_nnz > 0 ? config.sparse_max_nnz : std::max<size_t>(1, data.dim / 3);
    MaltVector shared =
        sparse_mode
            ? w.CreateVector("svm_g", data.dim, Layout::kSparse, max_nnz)
            : w.CreateVector(gradient_mode ? "svm_g" : "svm_w", data.dim);
    std::vector<float> local_w;
    std::vector<float> snapshot;
    std::vector<uint32_t> nz_indices;
    std::span<float> weights;
    if (gradient_mode) {
      local_w.assign(data.dim, 0.0f);
      snapshot.assign(data.dim, 0.0f);
      weights = local_w;
    } else {
      weights = shared.data();
    }
    SvmSgd svm(weights, config.svm);

    // Per-batch compute jitter models transient stragglers (shared machines,
    // cache effects); it is what separates BSP from ASP/SSP in Figs 10/12.
    Xoshiro256 jitter_rng(run_opts.seed * 7919 + static_cast<uint64_t>(w.rank()));

    bool reshard = true;
    w.monitor().AddRecoveryListener([&reshard](const std::vector<int>&) { reshard = true; });

    Worker::Shard shard;
    uint32_t batch = 0;
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

    auto comm_round = [&] {
      ++batch;
      shared.set_iteration(batch);
      // Periodic whole-model round (sum-fold dissemination; see header).
      // Restricted to BSP + dense: replicas must agree on a round's type
      // (batch counters are aligned only under BSP), and a sparse wire
      // cannot carry a whole dense model.
      const bool model_round = gradient_mode && config.fold == SvmAppConfig::Fold::kSum &&
                               !sparse_mode && run_opts.sync == SyncMode::kBSP &&
                               config.model_sync_every > 0 &&
                               batch % static_cast<uint32_t>(config.model_sync_every) == 0;
      if (gradient_mode) {
        std::span<float> g = shared.data();
        if (model_round) {
          for (size_t i = 0; i < g.size(); ++i) {
            g[i] = local_w[i];
          }
        } else {
          // Delta since the last agreement point.
          for (size_t i = 0; i < g.size(); ++i) {
            g[i] = local_w[i] - snapshot[i];
          }
        }
        w.ChargeFlops(static_cast<double>(data.dim));
      }
      {
        Worker::PhaseScope scope(w, Worker::Phase::kScatter);
        Status status;
        if (sparse_mode) {
          // Collect the delta's nonzero coordinates; filter to the largest
          // magnitudes when the batch touched more than the wire capacity.
          nz_indices.clear();
          std::span<const float> g = shared.data();
          for (uint32_t i = 0; i < g.size(); ++i) {
            if (g[i] != 0.0f) {
              nz_indices.push_back(i);
            }
          }
          if (nz_indices.size() > max_nnz) {
            std::nth_element(nz_indices.begin(), nz_indices.begin() + max_nnz,
                             nz_indices.end(), [g](uint32_t a, uint32_t b) {
                               return std::abs(g[a]) > std::abs(g[b]);
                             });
            nz_indices.resize(max_nnz);
            rec.Count("gradient_filtered");
          }
          status = shared.ScatterIndices(nz_indices);
        } else {
          status = shared.Scatter();
        }
        if (!status.ok() && status.code() != StatusCode::kUnavailable) {
          MALT_LOG_S(kWarning) << "rank " << w.rank() << " scatter: " << status.ToString();
        }
        // CPU cost of posting one-sided writes (the NIC does the rest).
        const size_t fanout = shared.graph().OutEdges(w.rank()).size();
        w.ChargeSeconds(2e-7 * static_cast<double>(fanout));
        if (run_opts.sync == SyncMode::kBSP) {
          (void)w.dstorm().Flush();
        }
      }
      if (run_opts.sync == SyncMode::kBSP) {
        Worker::PhaseScope scope(w, Worker::Phase::kBarrier);
        const Status status = w.Barrier();
        MALT_CHECK(status.ok()) << "barrier failed: " << status.ToString();
      }
      {
        Worker::PhaseScope scope(w, Worker::Phase::kGather);
        const int64_t min_iter =
            run_opts.sync == SyncMode::kASP && config.asp_skip_stale < (1 << 30)
                ? static_cast<int64_t>(batch) - config.asp_skip_stale
                : -1;
        const bool sum_fold = gradient_mode &&
                              config.fold == SvmAppConfig::Fold::kSum && !model_round;
        const GatherResult r = sum_fold ? shared.GatherSum(min_iter)
                                        : shared.GatherAverage(min_iter);
        // Fold cost: one pass over each incoming entry plus the rescale.
        w.ChargeFlops(2.0 * static_cast<double>(r.values_folded) +
                      2.0 * static_cast<double>(data.dim));
      }
      if (gradient_mode) {
        // Fold back into the working model. Delta rounds: w = snapshot +
        // folded delta (kSum: own + peers; kAverage: average of all). Model
        // rounds: g already holds the averaged whole model.
        std::span<float> g = shared.data();
        if (model_round) {
          for (size_t i = 0; i < g.size(); ++i) {
            local_w[i] = g[i];
            snapshot[i] = g[i];
          }
        } else {
          for (size_t i = 0; i < g.size(); ++i) {
            local_w[i] = snapshot[i] + g[i];
            snapshot[i] = local_w[i];
          }
        }
        w.ChargeFlops(2.0 * static_cast<double>(data.dim));
      }
      if (run_opts.sync == SyncMode::kSSP) {
        Worker::PhaseScope scope(w, Worker::Phase::kBarrier);
        w.SspWait(shared);
      }
      (void)w.monitor().CheckAndRecover();
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
          comm_round();
          in_batch = 0;
          batch_flops = 0;
          if (examples_done >= next_eval) {
            evaluate();
            next_eval += eval_stride;
          }
        }
      }
      rec.Count("epochs");
    }

    // Final agreement point so every survivor ends with a mixed model. In
    // gradient mode the deltas were already applied every round, so only the
    // model-averaging path folds once more here.
    (void)w.dstorm().Flush();
    if (run_opts.sync != SyncMode::kASP) {
      (void)w.Barrier();
    }
    if (!gradient_mode) {
      shared.GatherAverage();
    }
    evaluate();

    // Phase breakdown from the runtime's own counters (Fig. 8), not from
    // app-local stopwatches — PhaseScope charged them above.
    const MetricRegistry& metrics = w.telemetry().metrics;
    rec.Set("time_gradient", ToSeconds(metrics.CounterValue("worker.compute_ns")));
    rec.Set("time_scatter", ToSeconds(metrics.CounterValue("worker.scatter_ns")));
    rec.Set("time_gather", ToSeconds(metrics.CounterValue("worker.gather_ns")));
    rec.Set("time_barrier", ToSeconds(metrics.CounterValue("worker.barrier_ns")));
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
