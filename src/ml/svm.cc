#include "src/ml/svm.h"

#include "src/ml/linalg.h"
#include "src/ml/loss.h"

namespace malt {

double SvmSgd::TrainExample(const SparseExample& ex) {
  ++t_;
  const float eta = LearningRate();
  const double score = SparseDot(w_, ex.idx, ex.val);
  const double loss = HingeLoss(score, ex.label);

  // L2 shrink applied to the touched coordinates only ("lazy" regularization:
  // per-step cost stays O(nnz); on sparse data the untouched-coordinate decay
  // is dominated by the gradient signal and convergence is unaffected, while
  // the weight vector stays a plain float array that replicas can average).
  // Shrink and update share one pass over the row: a row's indices are
  // distinct, so this is the same arithmetic as a shrink pass followed by an
  // axpy pass.
  const float shrink = eta * options_.lambda;
  float* const w = w_.data();
  if (loss > 0) {
    const float a = eta * ex.label;
    for (size_t k = 0; k < ex.idx.size(); ++k) {
      float x = w[ex.idx[k]];
      x -= shrink * x;
      x += a * ex.val[k];
      w[ex.idx[k]] = x;
    }
  } else {
    for (size_t k = 0; k < ex.idx.size(); ++k) {
      w[ex.idx[k]] -= shrink * w[ex.idx[k]];
    }
  }
  // dot (2*nnz) + shrink (2*nnz) + update (2*nnz).
  last_step_flops_ = 6.0 * static_cast<double>(ex.nnz());
  return loss;
}

}  // namespace malt
