#include "src/ml/metrics.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/base/log.h"
#include "src/ml/linalg.h"
#include "src/ml/loss.h"

namespace malt {

double MeanHingeLoss(std::span<const float> w, const SparseRows& examples) {
  if (examples.empty()) {
    return 0;
  }
  double total = 0;
  for (const SparseExample ex : examples) {
    const double score = SparseDot(w, ex.idx, ex.val);
    total += HingeLoss(score, ex.label);
  }
  return total / static_cast<double>(examples.size());
}

double Accuracy(std::span<const float> w, const SparseRows& examples) {
  if (examples.empty()) {
    return 0;
  }
  int correct = 0;
  for (const SparseExample ex : examples) {
    const double score = SparseDot(w, ex.idx, ex.val);
    correct += (score >= 0 ? 1.0f : -1.0f) == ex.label ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(examples.size());
}

double AucFromScores(std::span<const double> scores, std::span<const uint8_t> positives) {
  MALT_CHECK(scores.size() == positives.size()) << "AUC input size mismatch";
  const size_t n = scores.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] < scores[b]; });

  // Sum of positive ranks with midrank tie handling.
  double positive_rank_sum = 0;
  size_t positives_count = 0;
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j < n && scores[order[j]] == scores[order[i]]) {
      ++j;
    }
    const double midrank = (static_cast<double>(i) + static_cast<double>(j - 1)) / 2.0 + 1.0;
    for (size_t k = i; k < j; ++k) {
      if (positives[order[k]]) {
        positive_rank_sum += midrank;
        ++positives_count;
      }
    }
    i = j;
  }
  const size_t negatives_count = n - positives_count;
  if (positives_count == 0 || negatives_count == 0) {
    return 0.5;
  }
  const double pos = static_cast<double>(positives_count);
  const double neg = static_cast<double>(negatives_count);
  return (positive_rank_sum - pos * (pos + 1) / 2.0) / (pos * neg);
}

double LinearAuc(std::span<const float> w, const SparseRows& examples) {
  std::vector<double> scores;
  std::vector<uint8_t> positives;
  scores.reserve(examples.size());
  positives.reserve(examples.size());
  for (const SparseExample ex : examples) {
    scores.push_back(SparseDot(w, ex.idx, ex.val));
    positives.push_back(ex.label > 0);
  }
  return AucFromScores(scores, positives);
}

double Rmse(std::span<const double> predictions, std::span<const double> truth) {
  MALT_CHECK(predictions.size() == truth.size()) << "RMSE input size mismatch";
  if (predictions.empty()) {
    return 0;
  }
  double total = 0;
  for (size_t i = 0; i < predictions.size(); ++i) {
    const double d = predictions[i] - truth[i];
    total += d * d;
  }
  return std::sqrt(total / static_cast<double>(predictions.size()));
}

}  // namespace malt
