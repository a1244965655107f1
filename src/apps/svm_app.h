// Data-parallel SVM training (paper §4.1.1 and Figure 4's Algorithm 2).
//
// Every replica runs the same loop: per-example SVM-SGD on its shard, in
// place in the shared vector's local copy; every `cb_size` examples (the
// "communication batch size") one ModelSync round (src/core/model_sync.h)
// scatters either the batch model delta ("gradient averaging") or the full
// model ("model averaging") to the dataflow neighbors and folds what has
// arrived. Synchronization follows the run's SyncMode: BSP adds a barrier per
// batch, ASP runs free (skipping overly stale peer updates), SSP stalls when
// a peer lags beyond the staleness bound.
//
// A 1-rank run degenerates to exactly serial SVM-SGD, which is the paper's
// single-machine baseline.

#ifndef SRC_APPS_SVM_APP_H_
#define SRC_APPS_SVM_APP_H_

#include "src/base/stats.h"
#include "src/core/model_sync.h"
#include "src/core/runtime.h"
#include "src/ml/dataset.h"
#include "src/ml/svm.h"

namespace malt {

struct SvmAppConfig {
  const SparseDataset* data = nullptr;
  int epochs = 10;
  int cb_size = 5000;  // examples between communication rounds
  enum class Average {
    kGradient,  // scatter the batch delta ("gradavg" in the figures)
    kModel,     // scatter the full model ("modelavg")
  } average = Average::kGradient;
  // Gradient-mode fold. kSum applies peers' deltas on top of the local model
  // (Hogwild-flavoured; preserves per-example progress when sparse updates
  // have mostly disjoint support — this is what produces the paper's
  // near-linear speedups). kAverage is Algorithm 2's literal g.gather(AVG),
  // which dampens progress by the replica count (see DESIGN.md §5). Model
  // mode always averages (required for stability of whole-model mixing).
  enum class Fold { kSum, kAverage } fold = Fold::kSum;
  // With kSum, peers' deltas do not propagate transitively (a delta carries
  // only its sender's own training). On sparse dataflows (Halton) knowledge
  // must still disseminate "indirectly via an intermediate node" (§3.4), so
  // every model_sync_every-th round scatters and averages whole models
  // instead. 0 disables. Irrelevant for all-to-all but kept on for parity.
  // Applied under BSP only (replicas agree on a round's type only there) and
  // to dense deltas only (a sparse wire cannot carry a whole model).
  int model_sync_every = 6;
  SvmOptions svm;
  int evals_per_epoch = 4;  // loss-curve resolution
  // ASP only: skip peer updates more than this many batches stale (§6.1:
  // "our ASP implementation skips merging of updates from the stragglers").
  int asp_skip_stale = ModelSync::kNoStaleSkip;
  // Gradient mode only: ship batch deltas as (index, value) pairs instead of
  // the full dense vector — MALT "sends and receives gradients" (Fig. 13)
  // while a parameter server must pull whole models. Deltas wider than
  // sparse_max_nnz are filtered to the largest-magnitude entries (a gradient
  // filter, one of the optimizations §6.2 mentions).
  bool sparse_gradients = false;
  size_t sparse_max_nnz = 0;  // 0: dim/3
  // Per-batch compute-time jitter (lognormal sigma); models transient
  // stragglers. 0 disables.
  double compute_jitter = 0.25;
  // Persistent straggler: rank `slow_rank` computes `slow_factor` times
  // slower (a shared machine / paging replica) — the situation where ASP/SSP
  // beat BSP (Figs 10 & 12).
  int slow_rank = -1;
  double slow_factor = 1.0;
  // Transient straggler spikes: with probability spike_prob a batch takes
  // spike_factor times longer (page faults, GC, co-located jobs). BSP pays
  // every round's worst spike; ASP/SSP ride them out.
  double spike_prob = 0.0;
  double spike_factor = 1.0;
};

struct SvmRunResult {
  Series loss_vs_time;      // rank 0: (virtual seconds, test hinge loss)
  Series loss_vs_examples;  // rank 0: (examples processed by rank 0, loss)
  double final_loss = 0;
  double final_accuracy = 0;
  int64_t total_bytes = 0;   // cluster-wide network traffic
  int64_t total_messages = 0;
  double seconds_total = 0;  // rank 0 virtual finish time
  // Per-phase virtual time on rank 0 (Fig. 8): gradient/scatter/gather/
  // barrier-or-wait.
  double time_gradient = 0;
  double time_scatter = 0;
  double time_gather = 0;
  double time_barrier = 0;
};

// Runs on the given (fresh) runtime; consumes it (Malt::Run is once-only).
SvmRunResult RunDistributedSvm(Malt& malt, const SvmAppConfig& config);

// Convenience: build a runtime from options and run.
SvmRunResult RunSvm(MaltOptions options, const SvmAppConfig& config);

}  // namespace malt

#endif  // SRC_APPS_SVM_APP_H_
