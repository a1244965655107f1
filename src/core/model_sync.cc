#include "src/core/model_sync.h"

#include <utility>

#include "src/base/log.h"

namespace malt {

ModelSync::ModelSync(Worker& worker, std::vector<MaltVector*> model, Mixing mixing,
                     int model_sync_every, int asp_skip_stale)
    : worker_(worker),
      model_(std::move(model)),
      mixing_(mixing),
      model_sync_every_(mixing == Mixing::kDeltaSum ? model_sync_every : 0),
      asp_skip_stale_(asp_skip_stale) {
  MALT_CHECK(!model_.empty()) << "ModelSync needs at least one vector";
  for (MaltVector* v : model_) {
    dim_ += v->dim();
    if (v->layout() != Layout::kDense) {
      model_sync_every_ = 0;  // a sparse wire cannot carry a whole model
    }
    if (mixing_ == Mixing::kDeltaSum || mixing_ == Mixing::kDeltaAverage) {
      snapshots_.emplace_back(v->data().begin(), v->data().end());
    }
  }
}

void ModelSync::Round(std::span<const uint32_t> ship) {
  ++round_;
  const SyncMode sync = worker_.options().sync;
  const bool replace = mixing_ == Mixing::kReplace;
  const bool deltas = !snapshots_.empty();  // delta mixings only
  const bool model_round =
      model_sync_every_ > 0 && round_ % static_cast<uint32_t>(model_sync_every_) == 0;
  if (deltas) {
    for (size_t k = 0; k < model_.size() && !model_round; ++k) {
      const std::span<float> v = model_[k]->data();
      const float* snap = snapshots_[k].data();
      for (size_t i = 0; i < v.size(); ++i) {
        v[i] -= snap[i];  // delta since the last agreement point
      }
    }
    worker_.ChargeFlops(static_cast<double>(dim_));
  }
  {
    Worker::PhaseScope scope(worker_, Worker::Phase::kScatter);
    size_t fanout = 0;
    for (MaltVector* v : model_) {
      v->set_iteration(round_);
      Status status;
      if (v->layout() == Layout::kSparse && replace) {
        status = v->ScatterIndices(ship);
      } else if (v->layout() == Layout::kSparse) {
        LargestMagnitudeIndices(v->data(), v->max_nnz(), &nz_indices_);
        status = v->ScatterIndices(nz_indices_);
      } else {
        status = v->Scatter();
      }
      if (!status.ok() && status.code() != StatusCode::kUnavailable) {
        MALT_LOG_S(kWarning) << "rank " << worker_.rank() << " scatter " << v->name() << ": "
                             << status.ToString();
      }
      fanout += v->graph().OutEdges(worker_.rank()).size();
    }
    // CPU cost of posting one-sided writes (the NIC does the rest).
    worker_.ChargeSeconds(2e-7 * static_cast<double>(fanout));
    if (sync == SyncMode::kBSP) {
      (void)worker_.dstorm().Flush();
    }
  }
  if (sync == SyncMode::kBSP) {
    Worker::PhaseScope scope(worker_, Worker::Phase::kBarrier);
    const Status status = worker_.Barrier();
    MALT_CHECK(status.ok()) << "barrier failed: " << status.ToString();
  }
  {
    Worker::PhaseScope scope(worker_, Worker::Phase::kGather);
    const int64_t min_iter = sync == SyncMode::kASP && asp_skip_stale_ < kNoStaleSkip
                                 ? static_cast<int64_t>(round_) - asp_skip_stale_
                                 : -1;
    // BSP: this round's objects only. A peer that left the barrier first may
    // already have sent round + 1, which must wait for the next gather (on a
    // model round it is a whole model, not a delta).
    const int64_t max_iter = sync == SyncMode::kBSP ? static_cast<int64_t>(round_) : -1;
    const bool sum_fold = mixing_ == Mixing::kDeltaSum && !model_round;
    int64_t received = 0;
    int64_t values_folded = 0;
    for (MaltVector* v : model_) {
      const GatherResult r = replace    ? v->GatherReplace(min_iter, max_iter)
                             : sum_fold ? v->GatherSum(min_iter, max_iter)
                                        : v->GatherAverage(min_iter, max_iter);
      received += r.received;
      values_folded += r.values_folded;
    }
    // Fold cost: replace charges each received object the entries this rank
    // shipped, a proxy for the peer's size (DESIGN.md §5); the others one
    // pass over each incoming entry plus the rescale.
    worker_.ChargeFlops(replace ? static_cast<double>(received) *
                                      static_cast<double>(ship.size())
                                : 2.0 * static_cast<double>(values_folded) +
                                      2.0 * static_cast<double>(dim_));
  }
  if (deltas) {
    // New agreement point: snapshot + folded delta, or on a model round the
    // averaged whole model the gather left in place.
    for (size_t k = 0; k < model_.size(); ++k) {
      const std::span<float> v = model_[k]->data();
      float* snap = snapshots_[k].data();
      for (size_t i = 0; i < v.size(); ++i) {
        snap[i] = model_round ? v[i] : v[i] + snap[i];
        v[i] = snap[i];
      }
    }
    worker_.ChargeFlops(2.0 * static_cast<double>(dim_));
  }
  if (sync == SyncMode::kSSP) {
    Worker::PhaseScope scope(worker_, Worker::Phase::kBarrier);
    worker_.SspWait(*model_.front());
  }
  (void)worker_.monitor().CheckAndRecover();
}

void ModelSync::Finish() {
  (void)worker_.dstorm().Flush();
  if (worker_.options().sync != SyncMode::kASP) {
    (void)worker_.Barrier();
  }
  if (mixing_ == Mixing::kModelAverage) {
    for (MaltVector* v : model_) {
      v->GatherAverage();
    }
  }
}

}  // namespace malt
