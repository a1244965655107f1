// Distributed matrix factorization — the paper's Hogwild-style MF (§4.1.2,
// Fig. 7: Netflix, async, replace-gather).
//
// The latent factors [P | Q] live in one sparse MaltVector. Each replica runs
// SGD over its shard of ratings; every `cb_size` ratings it hands the factor
// rows it touched to a ModelSync kReplace round, which scatters just those
// rows and folds peers' rows with the *replace* UDF — extending
// single-machine Hogwild's lock-free overwrites across the cluster exactly as
// the paper does. The app keeps only the touched-row tracking; the round
// brings the BSP barrier, the SSP gate and the phase accounting. Input is
// optionally sorted by item and sharded so replicas mostly touch disjoint
// item rows ("to avoid wasted work", §6.1).

#ifndef SRC_APPS_MF_APP_H_
#define SRC_APPS_MF_APP_H_

#include "src/base/stats.h"
#include "src/core/runtime.h"
#include "src/ml/dataset.h"
#include "src/ml/mf.h"

namespace malt {

struct MfAppConfig {
  const RatingsDataset* data = nullptr;
  int epochs = 10;
  int cb_size = 1000;  // ratings between communication rounds
  MfOptions mf;
  int evals_per_epoch = 4;
  bool sort_by_item = true;  // paper's conflict-avoiding item split
};

struct MfRunResult {
  Series rmse_vs_time;     // rank 0: (virtual seconds, test RMSE)
  Series rmse_vs_ratings;  // rank 0: (ratings processed, test RMSE)
  double final_rmse = 0;
  double seconds_total = 0;
  double seconds_per_epoch = 0;
  int64_t total_bytes = 0;
};

MfRunResult RunDistributedMf(Malt& malt, const MfAppConfig& config);
MfRunResult RunMf(MaltOptions options, const MfAppConfig& config);

}  // namespace malt

#endif  // SRC_APPS_MF_APP_H_
