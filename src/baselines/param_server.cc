#include "src/baselines/param_server.h"

#include <algorithm>
#include <cmath>

#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/ml/metrics.h"

namespace malt {

namespace {

// Worker w (1-based among workers) takes the w-th contiguous slice.
Worker::Shard WorkerShard(size_t total, int worker_index, int workers) {
  const size_t parts = static_cast<size_t>(workers);
  const size_t position = static_cast<size_t>(worker_index);
  const size_t base = total / parts;
  const size_t extra = total % parts;
  const size_t begin = position * base + std::min(position, extra);
  const size_t len = base + (position < extra ? 1 : 0);
  return Worker::Shard{begin, begin + len};
}

int64_t BatchesFor(size_t shard_size, int cb) {
  return (static_cast<int64_t>(shard_size) + cb - 1) / cb;
}

}  // namespace

PsRunResult RunDistributedPsSvm(Malt& malt, const PsSvmConfig& config) {
  MALT_CHECK(config.data != nullptr) << "PsSvmConfig.data not set";
  const MaltOptions& options = malt.options();
  MALT_CHECK(options.ranks >= 2) << "parameter server needs a server and >= 1 worker";
  MALT_CHECK(options.graph == GraphKind::kParamServer)
      << "RunDistributedPsSvm needs the PS star dataflow";
  const SparseDataset& data = *config.data;
  const int workers = options.ranks - 1;
  const bool gradient_push = config.push == PsSvmConfig::Push::kGradient;

  // The server must process exactly this many pushes (failure-free baseline).
  int64_t expected_total = 0;
  for (int wi = 0; wi < workers; ++wi) {
    expected_total += static_cast<int64_t>(config.epochs) *
                      BatchesFor(WorkerShard(data.train.size(), wi, workers).size(),
                                 config.cb_size);
  }

  malt.Run([&](Worker& w) {
    Recorder& rec = w.recorder();
    const size_t max_nnz =
        config.sparse_max_nnz > 0 ? config.sparse_max_nnz : std::max<size_t>(1, data.dim / 3);
    // Up: worker pushes (gradient or model). Down: server pushes full model.
    MaltVector up = config.sparse_push && gradient_push
                        ? w.CreateVector("ps_up", data.dim, Layout::kSparse, max_nnz)
                        : w.CreateVector("ps_up", data.dim);
    MaltVector down = w.CreateVector("ps_down", data.dim);

    if (w.rank() == 0) {
      // ---- Server ----
      std::span<float> model = down.data();
      int64_t processed = 0;
      const int64_t eval_stride = std::max<int64_t>(
          1, expected_total / std::max(1, config.epochs * config.evals_per_epoch));
      int64_t next_eval = eval_stride;
      std::vector<std::pair<int, uint32_t>> respond;

      while (processed < expected_total) {
        w.ctx().Wait([&up] { return up.FreshAvailable(); });
        respond.clear();
        const GatherResult r = up.GatherCustom([&](std::span<float>, const IncomingUpdate& u) {
          if (gradient_push) {
            if (u.indices.empty()) {
              for (size_t i = 0; i < u.values.size(); ++i) {
                model[i] += u.values[i];
              }
            } else {
              for (size_t k = 0; k < u.indices.size(); ++k) {
                model[u.indices[k]] += u.values[k];
              }
            }
          } else {
            // Model push: running average with the global model.
            for (size_t i = 0; i < u.values.size(); ++i) {
              model[i] = 0.5f * (model[i] + u.values[i]);
            }
          }
          respond.push_back({u.sender, u.iter});
        });
        w.ChargeFlops(2.0 * static_cast<double>(r.values_folded));
        for (const auto& [sender, iter] : respond) {
          down.set_iteration(iter);
          const int dst[] = {sender};
          const Status status = down.ScatterTo(dst);
          if (!status.ok()) {
            MALT_LOG_S(kWarning) << "server push to " << sender << ": " << status.ToString();
          }
          w.ChargeSeconds(2e-7);
        }
        processed += r.received;
        if (processed >= next_eval) {
          rec.Record("loss_vs_time", w.now_seconds(), MeanHingeLoss(model, data.test));
          next_eval += eval_stride;
        }
      }
      (void)w.dstorm().Flush();
      rec.Record("loss_vs_time", w.now_seconds(), MeanHingeLoss(model, data.test));
      rec.Set("final_loss", MeanHingeLoss(model, data.test));
      rec.Set("final_accuracy", Accuracy(model, data.test));
      rec.Set("finish_seconds", w.now_seconds());
      return;
    }

    // ---- Worker ----
    const int worker_index = w.rank() - 1;
    const Worker::Shard shard = WorkerShard(data.train.size(), worker_index, workers);
    // The worker trains directly on its copy of the pulled model.
    std::span<float> local_w = down.data();
    std::vector<float> snapshot(data.dim, 0.0f);
    std::vector<uint32_t> nz_indices;
    SvmSgd svm(local_w, config.svm);
    Xoshiro256 jitter_rng(options.seed * 104729 + static_cast<uint64_t>(w.rank()));

    double compute_seconds = 0;
    double wait_seconds = 0;
    uint32_t my_batch = 0;

    auto push_and_pull = [&](double batch_flops) {
      {
        Worker::PhaseScope scope(w, Worker::Phase::kCompute);
        const SimTime t0 = w.now();
        const double jitter = config.compute_jitter > 0
                                  ? std::exp(config.compute_jitter * jitter_rng.NextGaussian())
                                  : 1.0;
        w.ChargeFlops(batch_flops * jitter);
        compute_seconds += ToSeconds(w.now() - t0);
      }
      ++my_batch;
      up.set_iteration(my_batch);
      Status status;
      if (gradient_push) {
        std::span<float> g = up.data();
        for (size_t i = 0; i < g.size(); ++i) {
          g[i] = local_w[i] - snapshot[i];
        }
        w.ChargeFlops(static_cast<double>(data.dim));
        if (config.sparse_push) {
          LargestMagnitudeIndices(g, max_nnz, &nz_indices);
          status = up.ScatterIndices(nz_indices);
        } else {
          status = up.Scatter();
        }
      } else {
        std::copy(local_w.begin(), local_w.end(), up.data().begin());
        status = up.Scatter();
      }
      if (!status.ok()) {
        MALT_LOG_S(kWarning) << "worker " << w.rank() << " push: " << status.ToString();
      }
      w.ChargeSeconds(2e-7);

      // Fig. 9's wait: the PS client blocks until the refreshed model lands.
      {
        Worker::PhaseScope scope(w, Worker::Phase::kBarrier);
        const SimTime t0 = w.now();
        const uint32_t want = my_batch;
        w.ctx().Wait(
            [&down, want] { return down.MinPeerIteration() >= static_cast<int64_t>(want); });
        wait_seconds += ToSeconds(w.now() - t0);
      }
      down.GatherReplace();  // local model := server model
      w.ChargeFlops(static_cast<double>(data.dim));
      std::copy(local_w.begin(), local_w.end(), snapshot.begin());
    };

    for (int epoch = 0; epoch < config.epochs; ++epoch) {
      double batch_flops = 0;
      int in_batch = 0;
      for (size_t i = shard.begin; i < shard.end; ++i) {
        svm.TrainExample(data.train[i]);
        batch_flops += svm.last_step_flops();
        ++in_batch;
        if (in_batch >= config.cb_size || i + 1 == shard.end) {
          push_and_pull(batch_flops);
          in_batch = 0;
          batch_flops = 0;
        }
      }
    }
    (void)w.dstorm().Flush();
    rec.Set("compute_seconds", compute_seconds);
    rec.Set("wait_seconds", wait_seconds);
    rec.Set("finish_seconds", w.now_seconds());
  });

  PsRunResult result;
  const Recorder& server = malt.recorder(0);
  if (server.Has("loss_vs_time")) {
    result.loss_vs_time = server.Get("loss_vs_time");
  }
  result.final_loss = server.Counter("final_loss");
  result.final_accuracy = server.Counter("final_accuracy");
  result.total_bytes = malt.traffic().TotalBytes();
  result.total_messages = malt.traffic().TotalMessages();
  double compute = 0;
  double wait = 0;
  double finish = 0;
  for (int rank = 1; rank < options.ranks; ++rank) {
    compute += malt.recorder(rank).Counter("compute_seconds");
    wait += malt.recorder(rank).Counter("wait_seconds");
    finish = std::max(finish, malt.recorder(rank).Counter("finish_seconds"));
  }
  result.worker_compute_seconds = compute / workers;
  result.worker_wait_seconds = wait / workers;
  result.seconds_total = finish;
  return result;
}

PsRunResult RunPsSvm(MaltOptions options, const PsSvmConfig& config) {
  options.graph = GraphKind::kParamServer;
  Malt malt(std::move(options));
  return RunDistributedPsSvm(malt, config);
}

}  // namespace malt
