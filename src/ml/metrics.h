// Evaluation metrics: test hinge loss / accuracy for SVM, AUC for CTR,
// RMSE for matrix factorization.

#ifndef SRC_ML_METRICS_H_
#define SRC_ML_METRICS_H_

#include <span>
#include <vector>

#include "src/ml/dataset.h"

namespace malt {

// Mean hinge loss of linear model `w` over `examples`.
double MeanHingeLoss(std::span<const float> w, const SparseRows& examples);

// Fraction of examples with sign(w.x) == label.
double Accuracy(std::span<const float> w, const SparseRows& examples);

// Area under the ROC curve from (score, positive?) pairs. Ties get the
// standard midrank treatment. Returns 0.5 when one class is absent.
double AucFromScores(std::span<const double> scores, std::span<const uint8_t> positives);

// AUC of a linear scorer over labelled examples.
double LinearAuc(std::span<const float> w, const SparseRows& examples);

// Root-mean-square error of predictions vs truth.
double Rmse(std::span<const double> predictions, std::span<const double> truth);

}  // namespace malt

#endif  // SRC_ML_METRICS_H_
