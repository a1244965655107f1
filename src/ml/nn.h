// Three-layer fully-connected neural network for CTR prediction — the
// paper's SSI workload (§4.1.3, Fig. 6).
//
// Architecture: sparse input -> tanh(H1) -> tanh(H2) -> sigmoid score,
// logistic loss. Each layer's parameters live in a separate caller-owned
// float block, because the paper synchronizes every layer with its own
// maltGradient vector (possibly with its own dataflow).
//
// Layer-1 weights are stored column-major (one column per input feature) so
// the sparse forward/backward pass touches only the active columns.

#ifndef SRC_ML_NN_H_
#define SRC_ML_NN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/ml/dataset.h"

namespace malt {

struct MlpOptions {
  size_t input_dim = 0;
  int hidden1 = 64;
  int hidden2 = 32;
  float eta = 0.02f;
  float lambda = 1e-5f;  // L2 on weights (not biases)
};

class Mlp {
 public:
  // Parameter block sizes: weights + biases per layer.
  static size_t Layer1Size(const MlpOptions& o) {
    return o.input_dim * static_cast<size_t>(o.hidden1) + static_cast<size_t>(o.hidden1);
  }
  static size_t Layer2Size(const MlpOptions& o) {
    return static_cast<size_t>(o.hidden1) * static_cast<size_t>(o.hidden2) +
           static_cast<size_t>(o.hidden2);
  }
  static size_t Layer3Size(const MlpOptions& o) { return static_cast<size_t>(o.hidden2) + 1; }

  Mlp(std::span<float> layer1, std::span<float> layer2, std::span<float> layer3,
      MlpOptions options);

  void Init(uint64_t seed);

  // One backprop SGD step; returns the logistic loss before the update.
  double TrainExample(const SparseExample& ex);

  // Pre-sigmoid score.
  double Score(const SparseExample& ex) const;
  double TestAuc(const SparseRows& test) const;
  double TestLogLoss(const SparseRows& test) const;

  double last_step_flops() const { return last_step_flops_; }

 private:
  void Forward(const SparseExample& ex, std::span<float> h1, std::span<float> h2,
               double* score) const;

  std::span<float> l1_;  // [h1 x input_dim] column-major + bias[h1]
  std::span<float> l2_;  // [h2 x h1] row-major + bias[h2]
  std::span<float> l3_;  // [h2] + bias
  MlpOptions options_;
  double last_step_flops_ = 0;

  // Scratch (avoids per-step allocation).
  mutable std::vector<float> h1_;
  mutable std::vector<float> h2_;
  std::vector<float> d1_;
  std::vector<float> d2_;
};

}  // namespace malt

#endif  // SRC_ML_NN_H_
