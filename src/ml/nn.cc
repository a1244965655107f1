#include "src/ml/nn.h"

#include <cmath>

#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/ml/loss.h"
#include "src/ml/metrics.h"

namespace malt {

Mlp::Mlp(std::span<float> layer1, std::span<float> layer2, std::span<float> layer3,
         MlpOptions options)
    : l1_(layer1), l2_(layer2), l3_(layer3), options_(options) {
  MALT_CHECK(l1_.size() == Layer1Size(options_)) << "layer1 block size mismatch";
  MALT_CHECK(l2_.size() == Layer2Size(options_)) << "layer2 block size mismatch";
  MALT_CHECK(l3_.size() == Layer3Size(options_)) << "layer3 block size mismatch";
  h1_.resize(static_cast<size_t>(options_.hidden1));
  h2_.resize(static_cast<size_t>(options_.hidden2));
  d1_.resize(static_cast<size_t>(options_.hidden1));
  d2_.resize(static_cast<size_t>(options_.hidden2));
}

void Mlp::Init(uint64_t seed) {
  Xoshiro256 rng(seed);
  auto init_block = [&rng](std::span<float> block, size_t fan_in) {
    const float scale = 1.0f / std::sqrt(static_cast<float>(fan_in));
    for (float& w : block) {
      w = static_cast<float>(rng.NextGaussian()) * scale;
    }
  };
  // Biases (block tails) start at zero.
  const size_t h1 = static_cast<size_t>(options_.hidden1);
  const size_t h2 = static_cast<size_t>(options_.hidden2);
  init_block(l1_.subspan(0, l1_.size() - h1), /*fan_in=*/32);  // sparse inputs: ~nnz fan-in
  init_block(l2_.subspan(0, l2_.size() - h2), h1);
  init_block(l3_.subspan(0, h2), h2);
  for (size_t j = 0; j < h1; ++j) {
    l1_[l1_.size() - h1 + j] = 0;
  }
  for (size_t j = 0; j < h2; ++j) {
    l2_[l2_.size() - h2 + j] = 0;
  }
  l3_[h2] = 0;
}

void Mlp::Forward(const SparseExample& ex, std::span<float> h1, std::span<float> h2,
                  double* score) const {
  const size_t n1 = static_cast<size_t>(options_.hidden1);
  const size_t n2 = static_cast<size_t>(options_.hidden2);
  const float* b1 = l1_.data() + options_.input_dim * n1;
  const float* b2 = l2_.data() + n1 * n2;

  for (size_t j = 0; j < n1; ++j) {
    h1[j] = b1[j];
  }
  for (size_t k = 0; k < ex.idx.size(); ++k) {
    const float* column = l1_.data() + static_cast<size_t>(ex.idx[k]) * n1;
    const float v = ex.val[k];
    for (size_t j = 0; j < n1; ++j) {
      h1[j] += column[j] * v;
    }
  }
  for (size_t j = 0; j < n1; ++j) {
    h1[j] = std::tanh(h1[j]);
  }

  for (size_t j = 0; j < n2; ++j) {
    const float* row = l2_.data() + j * n1;
    double acc = b2[j];
    for (size_t i = 0; i < n1; ++i) {
      acc += static_cast<double>(row[i]) * h1[i];
    }
    h2[j] = std::tanh(static_cast<float>(acc));
  }

  double s = l3_[n2];  // bias
  for (size_t j = 0; j < n2; ++j) {
    s += static_cast<double>(l3_[j]) * h2[j];
  }
  *score = s;
}

double Mlp::Score(const SparseExample& ex) const {
  double score = 0;
  Forward(ex, h1_, h2_, &score);
  return score;
}

double Mlp::TrainExample(const SparseExample& ex) {
  const size_t n1 = static_cast<size_t>(options_.hidden1);
  const size_t n2 = static_cast<size_t>(options_.hidden2);
  double score = 0;
  Forward(ex, h1_, h2_, &score);
  const double loss = LogisticLoss(score, ex.label);
  const float dscore = static_cast<float>(LogisticGradient(score, ex.label));
  const float eta = options_.eta;
  const float lambda = options_.lambda;

  // Layer 3: s = l3 . h2 + b.
  float* w3 = l3_.data();
  for (size_t j = 0; j < n2; ++j) {
    d2_[j] = dscore * w3[j] * (1.0f - h2_[j] * h2_[j]);  // through tanh
    w3[j] -= eta * (dscore * h2_[j] + lambda * w3[j]);
  }
  l3_[n2] -= eta * dscore;

  // Layer 2.
  float* b2 = l2_.data() + n1 * n2;
  for (size_t i = 0; i < n1; ++i) {
    d1_[i] = 0;
  }
  for (size_t j = 0; j < n2; ++j) {
    float* row = l2_.data() + j * n1;
    const float dj = d2_[j];
    for (size_t i = 0; i < n1; ++i) {
      d1_[i] += dj * row[i];
      row[i] -= eta * (dj * h1_[i] + lambda * row[i]);
    }
    b2[j] -= eta * dj;
  }
  for (size_t i = 0; i < n1; ++i) {
    d1_[i] *= 1.0f - h1_[i] * h1_[i];  // through tanh
  }

  // Layer 1: only the active input columns.
  float* b1 = l1_.data() + options_.input_dim * n1;
  for (size_t k = 0; k < ex.idx.size(); ++k) {
    float* column = l1_.data() + static_cast<size_t>(ex.idx[k]) * n1;
    const float v = ex.val[k];
    for (size_t j = 0; j < n1; ++j) {
      column[j] -= eta * (d1_[j] * v + lambda * column[j]);
    }
  }
  for (size_t j = 0; j < n1; ++j) {
    b1[j] -= eta * d1_[j];
  }

  // Forward + backward each ~2x the forward MACs.
  const double l1_macs = static_cast<double>(ex.idx.size()) * static_cast<double>(n1);
  const double l2_macs = static_cast<double>(n1) * static_cast<double>(n2);
  last_step_flops_ = 6.0 * (l1_macs + l2_macs) + 10.0 * static_cast<double>(n1 + n2);
  return loss;
}

double Mlp::TestAuc(const SparseRows& test) const {
  std::vector<double> scores;
  std::vector<uint8_t> positives;
  scores.reserve(test.size());
  positives.reserve(test.size());
  for (const SparseExample ex : test) {
    scores.push_back(Score(ex));
    positives.push_back(ex.label > 0);
  }
  return AucFromScores(scores, positives);
}

double Mlp::TestLogLoss(const SparseRows& test) const {
  if (test.empty()) {
    return 0;
  }
  double total = 0;
  for (const SparseExample ex : test) {
    total += LogisticLoss(Score(ex), ex.label);
  }
  return total / static_cast<double>(test.size());
}

}  // namespace malt
