// Model tests: serial SVM-SGD, matrix factorization and the MLP must learn
// their synthetic tasks; losses/metrics behave.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/ml/dataset.h"
#include "src/ml/linalg.h"
#include "src/ml/loss.h"
#include "src/ml/metrics.h"
#include "src/ml/mf.h"
#include "src/ml/nn.h"
#include "src/ml/svm.h"

namespace malt {
namespace {

TEST(Loss, HingeBasics) {
  EXPECT_DOUBLE_EQ(HingeLoss(2.0, 1.0), 0.0);    // confident correct
  EXPECT_DOUBLE_EQ(HingeLoss(0.0, 1.0), 1.0);    // on the boundary
  EXPECT_DOUBLE_EQ(HingeLoss(-1.0, 1.0), 2.0);   // wrong
  EXPECT_DOUBLE_EQ(HingeGradient(2.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(HingeGradient(0.5, 1.0), -1.0);
  EXPECT_DOUBLE_EQ(HingeGradient(-0.5, -1.0), 1.0);
}

TEST(Loss, LogisticBasics) {
  EXPECT_NEAR(LogisticLoss(0.0, 1.0), std::log(2.0), 1e-12);
  EXPECT_LT(LogisticLoss(5.0, 1.0), 0.01);
  EXPECT_GT(LogisticLoss(-5.0, 1.0), 4.9);
  // Gradient is -y*sigmoid(-ys): at s=0, -(0.5)y.
  EXPECT_NEAR(LogisticGradient(0.0, 1.0), -0.5, 1e-12);
  EXPECT_NEAR(LogisticGradient(0.0, -1.0), 0.5, 1e-12);
  // Stable for extreme scores.
  EXPECT_NEAR(LogisticLoss(-100.0, 1.0), 100.0, 1e-9);
}

TEST(Loss, SigmoidSymmetric) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(3.0) + Sigmoid(-3.0), 1.0, 1e-12);
}

TEST(Svm, LearnsSeparableTask) {
  ClassificationConfig config;
  config.dim = 200;
  config.train_n = 4000;
  config.test_n = 500;
  config.avg_nnz = 20;
  config.margin = 0.05;  // nearly separable
  config.label_noise = 0.0;
  SparseDataset data = MakeClassification(config);

  std::vector<float> w(config.dim, 0.0f);
  SvmSgd svm(w, SvmOptions{});
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (const SparseExample& ex : data.train) {
      svm.TrainExample(ex);
    }
  }
  EXPECT_GT(Accuracy(w, data.test), 0.93);
  EXPECT_LT(MeanHingeLoss(w, data.test), 0.3);
  EXPECT_EQ(svm.steps(), 5 * 4000);
}

TEST(Svm, StepFlopsScaleWithNnz) {
  std::vector<float> w(100, 0.0f);
  SvmSgd svm(w, SvmOptions{});
  const uint32_t idx[] = {1, 2, 3, 4};
  const float val[] = {1, 1, 1, 1};
  svm.TrainExample(SparseExample{idx, val, 1});
  EXPECT_DOUBLE_EQ(svm.last_step_flops(), 24.0);  // 6 * nnz
}

// TrainExample shrinks and updates each touched coordinate in one pass. With
// distinct indices that is bit-for-bit the shrink pass then the axpy pass.
TEST(Svm, OnePassStepMatchesShrinkThenAxpy) {
  ClassificationConfig config;
  config.dim = 300;
  config.train_n = 2000;
  config.test_n = 1;
  config.avg_nnz = 20;
  const SparseDataset data = MakeClassification(config);
  const SvmOptions options;
  std::vector<float> fused(config.dim, 0.0f);
  std::vector<float> reference(config.dim, 0.0f);
  SvmSgd svm(fused, options);
  int64_t t = 0;
  for (const SparseExample ex : data.train) {
    svm.TrainExample(ex);
    ++t;
    const float eta =
        options.eta0 / (1.0f + options.lambda * options.eta0 * static_cast<float>(t));
    const double loss = HingeLoss(SparseDot(reference, ex.idx, ex.val), ex.label);
    for (const uint32_t i : ex.idx) {
      reference[i] -= eta * options.lambda * reference[i];
    }
    if (loss > 0) {
      SparseAxpy(eta * ex.label, ex.idx, ex.val, reference);
    }
  }
  EXPECT_EQ(std::memcmp(fused.data(), reference.data(), fused.size() * sizeof(float)), 0);
}

TEST(Mf, LearnsLowRankStructure) {
  RatingsConfig config;
  config.train_n = 30000;
  config.test_n = 2000;
  RatingsDataset data = MakeRatings(config);

  MfOptions options;
  options.rank = config.rank;
  std::vector<float> factors(MfSgd::FactorCount(config.users, config.items, config.rank));
  MfSgd mf(factors, config.users, config.items, options);
  mf.InitFactors(1);
  const double rmse_before = mf.TestRmse(data.test);
  for (int epoch = 0; epoch < 8; ++epoch) {
    for (const Rating& r : data.train) {
      mf.TrainRating(r);
    }
  }
  const double rmse_after = mf.TestRmse(data.test);
  EXPECT_LT(rmse_after, rmse_before * 0.5);
  EXPECT_LT(rmse_after, 0.35);  // noise floor is config.noise = 0.1
}

TEST(Mf, ByIterScheduleDecays) {
  MfOptions options;
  options.schedule = MfOptions::Schedule::kByIter;
  options.decay_steps = 10;
  options.eta0 = 0.1f;
  std::vector<float> factors(MfSgd::FactorCount(2, 2, options.rank));
  MfSgd mf(factors, 2, 2, options);
  mf.InitFactors(1);
  Rating r{0, 0, 3.0f};
  for (int i = 0; i < 100; ++i) {
    mf.TrainRating(r);
  }
  // After many steps the same rating is nearly memorized.
  EXPECT_NEAR(mf.Predict(0, 0), 3.0, 0.3);
}

TEST(Mlp, LearnsNonlinearSignal) {
  ClassificationConfig config = KddLike();
  config.train_n = 8000;
  config.test_n = 1000;
  config.label_noise = 0.03;  // cleaner than the CTR preset: this tests learning
  config.margin = 0.2;
  SparseDataset data = MakeClassification(config);

  MlpOptions options;
  options.input_dim = data.dim;
  options.hidden1 = 24;
  options.hidden2 = 12;
  std::vector<float> l1(Mlp::Layer1Size(options));
  std::vector<float> l2(Mlp::Layer2Size(options));
  std::vector<float> l3(Mlp::Layer3Size(options));
  Mlp mlp(l1, l2, l3, options);
  mlp.Init(1);
  const double auc_before = mlp.TestAuc(data.test);
  EXPECT_NEAR(auc_before, 0.5, 0.15);  // untrained ~ random
  for (int epoch = 0; epoch < 10; ++epoch) {
    for (const SparseExample& ex : data.train) {
      mlp.TrainExample(ex);
    }
  }
  EXPECT_GT(mlp.TestAuc(data.test), 0.70);
}

TEST(Mlp, DeterministicInit) {
  MlpOptions options;
  options.input_dim = 100;
  options.hidden1 = 8;
  options.hidden2 = 4;
  std::vector<float> a1(Mlp::Layer1Size(options)), a2(Mlp::Layer2Size(options)),
      a3(Mlp::Layer3Size(options));
  std::vector<float> b1 = a1, b2 = a2, b3 = a3;
  Mlp ma(a1, a2, a3, options);
  Mlp mb(b1, b2, b3, options);
  ma.Init(7);
  mb.Init(7);
  EXPECT_EQ(a1, b1);
  EXPECT_EQ(a2, b2);
  EXPECT_EQ(a3, b3);
}

TEST(Metrics, AucPerfectAndRandomAndInverted) {
  const std::vector<double> scores = {0.1, 0.2, 0.8, 0.9};
  const std::vector<uint8_t> labels_perfect = {0, 0, 1, 1};
  const std::vector<uint8_t> labels_inverted = {1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(AucFromScores(scores, labels_perfect), 1.0);
  EXPECT_DOUBLE_EQ(AucFromScores(scores, labels_inverted), 0.0);
  const std::vector<uint8_t> one_class = {1, 1, 1, 1};
  EXPECT_DOUBLE_EQ(AucFromScores(scores, one_class), 0.5);
}

TEST(Metrics, AucTiesMidrank) {
  const std::vector<double> scores = {0.5, 0.5, 0.5, 0.5};
  const std::vector<uint8_t> labels = {0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(AucFromScores(scores, labels), 0.5);
}

TEST(Metrics, Rmse) {
  const std::vector<double> pred = {1, 2, 3};
  const std::vector<double> truth = {1, 2, 5};
  EXPECT_NEAR(Rmse(pred, truth), std::sqrt(4.0 / 3.0), 1e-12);
}

}  // namespace
}  // namespace malt
