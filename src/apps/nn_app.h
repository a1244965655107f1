// Distributed neural-network training — the paper's SSI click-through-rate
// workload (§4.1.3, Fig. 6: KDD12, three fully-connected layers).
//
// Parallel training of a non-convex model needs whole-model synchronization,
// not just gradients (§4.1.3), so each of the three layers gets its own
// dense MaltVector, the MLP trains in place in their local copies, and every
// `cb_size` examples one ModelSync round (src/core/model_sync.h) exchanges
// layer deltas or whole layers across replicas. Every layer can in principle
// use its own dataflow; here all three share the run's graph.

#ifndef SRC_APPS_NN_APP_H_
#define SRC_APPS_NN_APP_H_

#include "src/base/stats.h"
#include "src/core/runtime.h"
#include "src/ml/dataset.h"
#include "src/ml/nn.h"

namespace malt {

struct NnAppConfig {
  const SparseDataset* data = nullptr;
  int epochs = 6;
  int cb_size = 20000;  // examples between communication rounds
  MlpOptions mlp;
  int evals_per_epoch = 2;
  // §4.1.3: "just sending the gradients is not sufficient [for non-convex
  // models] ... gradient synchronization needs to be interleaved with whole
  // model synchronization." kInterleaved sums peers' layer deltas each round
  // and averages whole models every model_sync_every rounds (0: never);
  // kModelAvg averages whole models every round (dampened).
  enum class Mixing { kInterleaved, kModelAvg } mixing = Mixing::kInterleaved;
  int model_sync_every = 8;  // rounds between whole-model averaging
};

struct NnRunResult {
  Series auc_vs_time;  // rank 0: (virtual seconds, test AUC)
  double final_auc = 0;
  double final_logloss = 0;
  double seconds_total = 0;
  int64_t total_bytes = 0;
};

NnRunResult RunDistributedNn(Malt& malt, const NnAppConfig& config);
NnRunResult RunNn(MaltOptions options, const NnAppConfig& config);

}  // namespace malt

#endif  // SRC_APPS_NN_APP_H_
