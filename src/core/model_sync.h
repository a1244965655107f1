// One communication round over a replica's model (paper §3.2, Algorithm 2),
// the protocol every app (SVM, NN, MF) wraps around its training loop: the
// app trains in place in its MaltVectors' local copies, calls Round() every
// `cb_size` examples and Finish() once at the end. A round owns the
// agreement-point snapshots, the delta encode and fold-back, the whole-model
// round schedule, the scatter (sparse vectors ship their largest-magnitude
// entries, or under kReplace the coordinates the app names), the BSP flush
// and barrier, the sum, average or replace gather, the SSP wait, the recovery
// check, the phase scopes and the modeled cost (DESIGN.md §5). Every replica
// builds the same ModelSync over the same vectors.

#ifndef SRC_CORE_MODEL_SYNC_H_
#define SRC_CORE_MODEL_SYNC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/runtime.h"

namespace malt {

class ModelSync {
 public:
  enum class Mixing : uint8_t {
    kModelAverage,  // scatter whole models, fold with the average UDF
    // Scatter the delta since the last agreement point and sum own + peers'
    // deltas; every model_sync_every-th round (> 0, dense vectors only)
    // averages whole models instead, so knowledge spreads past neighbors.
    kDeltaSum,
    kDeltaAverage,  // scatter deltas, average them (Algorithm 2's gather(AVG))
    // Distributed Hogwild (§4.1.2): sparse vectors scatter the coordinates
    // passed to Round(), and peers' entries overwrite local ones. No
    // snapshots, no deltas.
    kReplace,
  };

  static constexpr int kNoStaleSkip = 1 << 30;

  // Snapshots the vectors as the first agreement point. `asp_skip_stale`
  // (ASP only): gathers drop peer updates more than this many rounds stale.
  ModelSync(Worker& worker, std::vector<MaltVector*> model, Mixing mixing,
            int model_sync_every = 0, int asp_skip_stale = kNoStaleSkip);

  // Encode, scatter, (BSP) flush + barrier, gather, fold back, (SSP) wait,
  // recovery check. The round number is the outgoing iteration stamp.
  // `ship` (kReplace only): the coordinates the sparse vectors scatter, e.g.
  // the rows touched since the last round; the other mixings pass nothing.
  void Round(std::span<const uint32_t> ship = {});
  // Flush, barrier (unless ASP) and, in kModelAverage only, one last average
  // of what arrived: a delta mixing applied every delta in its round.
  void Finish();

 private:
  Worker& worker_;
  std::vector<MaltVector*> model_;
  Mixing mixing_;
  int model_sync_every_;  // 0: no whole-model rounds
  int asp_skip_stale_;
  size_t dim_ = 0;  // Σ vector dims
  uint32_t round_ = 0;
  std::vector<std::vector<float>> snapshots_;  // delta mixings only
  std::vector<uint32_t> nz_indices_;           // sparse scatter scratch
};

}  // namespace malt

#endif  // SRC_CORE_MODEL_SYNC_H_
