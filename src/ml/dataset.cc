#include "src/ml/dataset.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <utility>

#include "src/base/log.h"
#include "src/base/rng.h"

namespace malt {

void SparseRows::Append(std::span<const uint32_t> idx, std::span<const float> val, float label) {
  MALT_CHECK(idx.size() == val.size()) << "row has " << idx.size() << " indices but "
                                       << val.size() << " values";
  if (offsets_.empty()) {
    offsets_.push_back(0);
  }
  idx_.insert(idx_.end(), idx.begin(), idx.end());
  val_.insert(val_.end(), val.begin(), val.end());
  offsets_.push_back(idx_.size());
  labels_.push_back(label);
}

double SparseDataset::AvgNnz() const {
  if (train.empty()) {
    return 0;
  }
  return static_cast<double>(train.total_nnz()) / static_cast<double>(train.size());
}

namespace {

// One generating thread's reusable buffers.
struct DrawScratch {
  explicit DrawScratch(const ClassificationConfig& config)
      : taken((config.dim + 63) / 64, 0) {
    chosen.reserve(config.avg_nnz);
  }
  std::vector<uint32_t> chosen;  // Zipf candidates before dedup
  std::vector<uint64_t> taken;   // Floyd's chosen set as a bitmap; clear between rows
};

// Draws one example from `rng` and returns its nnz. This is the one place
// the draw order lives. With kMaterialize the row goes to idx/val (room for
// the returned nnz, known from an earlier skip walk) and its label to
// *label. Without it (the skip walk) the call consumes exactly the same
// draws but computes only what the nnz depends on: the Zipf indices.
template <bool kMaterialize>
size_t DrawExample(Xoshiro256& rng, const ClassificationConfig& config,
                   std::span<const float> truth, DrawScratch& scratch, uint32_t* idx, float* val,
                   float* label) {
  const size_t nnz = std::min(config.avg_nnz, config.dim);
  const float value_scale = 1.0f / std::sqrt(static_cast<float>(nnz));
  size_t n = nnz;
  if (nnz == config.dim) {
    // Dense profile (PASCAL alpha): every feature active.
    if constexpr (kMaterialize) {
      for (uint32_t i = 0; i < config.dim; ++i) {
        idx[i] = i;
      }
    }
  } else if (config.feature_skew <= 1.0) {
    // Uniform: sample nnz distinct indices (Floyd's algorithm, O(nnz)), the
    // chosen set kept as a bitmap.
    uint64_t* const taken = scratch.taken.data();
    for (size_t j = config.dim - nnz, k = 0; j < config.dim; ++j, ++k) {
      const uint32_t t = static_cast<uint32_t>(rng.NextBounded(j + 1));
      if constexpr (kMaterialize) {
        const bool seen = (taken[t / 64] >> (t % 64)) & 1;
        const uint32_t pick = seen ? static_cast<uint32_t>(j) : t;
        taken[pick / 64] |= uint64_t{1} << (pick % 64);
        idx[k] = pick;
      }
    }
    if constexpr (kMaterialize) {
      std::sort(idx, idx + nnz);
      for (size_t k = 0; k < nnz; ++k) {
        taken[idx[k] / 64] = 0;
      }
    }
  } else {
    // Zipf-ish: index = floor(dim * u^skew) concentrates mass on small ids,
    // so batches touch few distinct coordinates (text-corpus behaviour).
    // Draw nnz candidates, then sort+dedup: duplicates shrink the example a
    // little, exactly like repeated words collapsing in a bag-of-words.
    std::vector<uint32_t>& chosen = scratch.chosen;
    chosen.clear();
    for (size_t k = 0; k < nnz; ++k) {
      const double u = rng.NextDouble();
      const uint32_t i = static_cast<uint32_t>(
          std::pow(u, config.feature_skew) * static_cast<double>(config.dim));
      chosen.push_back(std::min<uint32_t>(i, static_cast<uint32_t>(config.dim - 1)));
    }
    std::sort(chosen.begin(), chosen.end());
    chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
    n = chosen.size();
    if constexpr (kMaterialize) {
      std::copy(chosen.begin(), chosen.end(), idx);
    }
  }
  // Values in index order, then the label: the clean activation plus margin
  // noise, and a flip with probability label_noise.
  if constexpr (kMaterialize) {
    double activation = 0;
    for (size_t k = 0; k < n; ++k) {
      val[k] = static_cast<float>(rng.NextGaussian()) * value_scale;
      activation += static_cast<double>(truth[idx[k]]) * val[k];
    }
    activation += rng.NextGaussian() * config.margin;
    *label = activation >= 0 ? 1.0f : -1.0f;
    if (rng.NextDouble() < config.label_noise) {
      *label = -*label;
    }
  } else {
    for (size_t k = 0; k <= n; ++k) {
      rng.SkipGaussian();  // n values and the margin noise
    }
    (void)rng.NextDouble();  // the flip
  }
  return n;
}

}  // namespace

SparseDataset MakeClassification(const ClassificationConfig& config) {
  MALT_CHECK(config.dim > 0 && config.avg_nnz > 0) << "bad classification config";
  Xoshiro256 rng(config.seed);
  // Scaling: feature values are N(0, 1/nnz) so ||x||^2 ~ 1 (the usual
  // normalized-input setup SGD learning rates assume), and the ground-truth
  // separator has N(0, 1) coordinates, making the clean activation ~ N(0, 1).
  std::vector<float> truth(config.dim);
  for (float& w : truth) {
    w = static_cast<float>(rng.NextGaussian());
  }

  SparseDataset data;
  data.name = config.name;
  data.dim = config.dim;
  // Rows are numbered across train, then test.
  const size_t rows = config.train_n + config.test_n;
  const size_t chunks = (rows + kGenerationChunkRows - 1) / kGenerationChunkRows;
  data.train.offsets_.assign(config.train_n + 1, 0);
  data.test.offsets_.assign(config.test_n + 1, 0);
  auto locate = [&](size_t row) {
    return row < config.train_n ? std::pair{&data.train, row}
                                : std::pair{&data.test, row - config.train_n};
  };

  // Skip walk: each chunk's starting state and each row's nnz.
  std::vector<Xoshiro256> chunk_start;
  chunk_start.reserve(chunks);
  {
    DrawScratch scratch(config);
    for (size_t row = 0; row < rows; ++row) {
      if (row % kGenerationChunkRows == 0) {
        chunk_start.push_back(rng);
      }
      const auto [split, r] = locate(row);
      split->offsets_[r + 1] =
          split->offsets_[r] +
          DrawExample<false>(rng, config, truth, scratch, nullptr, nullptr, nullptr);
    }
  }
  for (SparseRows* split : {&data.train, &data.test}) {
    split->idx_.resize(split->offsets_.back());
    split->val_.resize(split->offsets_.back());
    split->labels_.resize(split->offsets_.size() - 1);
  }

  // Redraw the chunks in place, each from its recorded state. The arrays are
  // left unzeroed, so each worker's first touch also faults its pages in.
  std::atomic<size_t> next_chunk{0};
  auto work = [&] {
    DrawScratch scratch(config);
    for (size_t c = next_chunk.fetch_add(1); c < chunks; c = next_chunk.fetch_add(1)) {
      Xoshiro256 chunk_rng = chunk_start[c];
      const size_t last = std::min(rows, (c + 1) * kGenerationChunkRows);
      for (size_t row = c * kGenerationChunkRows; row < last; ++row) {
        const auto [split, r] = locate(row);
        const size_t begin = split->offsets_[r];
        DrawExample<true>(chunk_rng, config, truth, scratch, split->idx_.data() + begin,
                          split->val_.data() + begin, split->labels_.data() + r);
      }
    }
  };
  const size_t threads =
      std::min<size_t>(std::max(1u, std::thread::hardware_concurrency()), chunks);
  std::vector<std::thread> helpers;
  for (size_t t = 1; t < threads; ++t) {
    helpers.emplace_back(work);
  }
  work();
  for (std::thread& helper : helpers) {
    helper.join();
  }
  return data;
}

// Presets: dimensions follow Table 2; example counts are scaled down ~50-100x
// so every figure regenerates in seconds on one core. EXPERIMENTS.md records
// the mapping.
ClassificationConfig Rcv1Like() {
  ClassificationConfig config;
  config.name = "rcv1-like";
  // Table 2: RCV1 has 47,152 params and 781K examples (examples scaled ~6.5x
  // so figures regenerate in seconds; the 190 examples-per-dimension ratio
  // keeps the task learnable).
  config.dim = 47152;
  config.train_n = 120000;
  config.test_n = 2000;
  config.avg_nnz = 75;  // RCV1 tf-idf docs average ~75 terms
  config.label_noise = 0.03;
  config.margin = 0.3;
  config.seed = 101;
  return config;
}

ClassificationConfig AlphaLike() {
  ClassificationConfig config;
  config.name = "alpha-like";
  config.dim = 500;  // Table 2: alpha has 500 params (dense), 250K examples
  config.train_n = 60000;
  config.test_n = 2000;
  config.avg_nnz = 500;   // dense
  config.label_noise = 0.05;
  config.margin = 0.8;    // alpha is noisy: the single-rank variance floor is
                          // what makes parallel averaging super-linear (Fig 5)
  config.seed = 102;
  return config;
}

ClassificationConfig DnaLike() {
  ClassificationConfig config;
  config.name = "dna-like";
  config.dim = 800;  // Table 2: DNA has 800 params (23M examples, scaled)
  config.train_n = 16000;
  config.test_n = 2000;
  config.avg_nnz = 200;
  config.label_noise = 0.03;
  config.margin = 0.4;
  config.seed = 103;
  return config;
}

ClassificationConfig WebspamLike() {
  ClassificationConfig config;
  config.name = "webspam-like";
  config.dim = 300000;  // paper: 16.6M; the dim >> batch-touched-coords ratio
                        // is what makes sparse gradient exchange beat dense
                        // model pulls (Figs 9 and 13)
  config.train_n = 10000;
  config.test_n = 1000;
  config.avg_nnz = 100;
  config.label_noise = 0.03;
  config.margin = 0.4;
  config.feature_skew = 4.0;  // webspam n-grams are heavily Zipfian
  config.seed = 104;
  return config;
}

ClassificationConfig SpliceLike() {
  ClassificationConfig config;
  config.name = "splice-like";
  config.dim = 50000;  // paper: 11M params, 10M examples (250 GB)
  config.train_n = 30000;
  config.test_n = 2000;
  config.avg_nnz = 140;
  config.label_noise = 0.05;  // splice-site is a hard, noisy task
  config.margin = 0.4;
  config.feature_skew = 2.5;
  config.seed = 105;
  return config;
}

ClassificationConfig KddLike() {
  ClassificationConfig config;
  config.name = "kdd12-like";
  config.dim = 8000;  // CTR feature hash space for the 3-layer SSI net
  config.train_n = 12000;
  config.test_n = 2500;
  config.avg_nnz = 30;
  config.label_noise = 0.10;  // click data is noisy
  config.margin = 0.3;
  config.seed = 106;
  return config;
}

RatingsDataset MakeRatings(const RatingsConfig& config) {
  MALT_CHECK(config.users > 0 && config.items > 0 && config.rank > 0) << "bad ratings config";
  Xoshiro256 rng(config.seed);
  const size_t users = static_cast<size_t>(config.users);
  const size_t items = static_cast<size_t>(config.items);
  const size_t rank = static_cast<size_t>(config.rank);

  std::vector<float> p(users * rank);
  std::vector<float> q(items * rank);
  const float scale = 1.0f / std::sqrt(static_cast<float>(rank));
  for (float& v : p) {
    v = (static_cast<float>(rng.NextDouble()) + 0.5f) * scale;
  }
  for (float& v : q) {
    v = (static_cast<float>(rng.NextDouble()) + 0.5f) * scale;
  }

  auto draw = [&](std::vector<Rating>& out, size_t n) {
    out.reserve(n);
    for (size_t k = 0; k < n; ++k) {
      Rating r;
      r.user = static_cast<uint32_t>(rng.NextBounded(users));
      r.item = static_cast<uint32_t>(rng.NextBounded(items));
      double value = 0;
      for (size_t f = 0; f < rank; ++f) {
        value += static_cast<double>(p[r.user * rank + f]) * q[r.item * rank + f];
      }
      value = value * 3.0 + 1.0 + rng.NextGaussian() * config.noise;
      r.value = static_cast<float>(std::clamp(value, 1.0, 5.0));
      out.push_back(r);
    }
  };

  RatingsDataset data;
  data.name = config.name;
  data.users = config.users;
  data.items = config.items;
  data.rank = config.rank;
  draw(data.train, config.train_n);
  draw(data.test, config.test_n);
  return data;
}

void ShuffleRatings(RatingsDataset& data, uint64_t seed) {
  Xoshiro256 rng(seed);
  rng.Shuffle(data.train.data(), data.train.size());
}

std::vector<Rating> RatingsByItem(const std::vector<Rating>& ratings) {
  uint32_t items = 0;
  for (const Rating& r : ratings) {
    items = std::max(items, r.item + 1);
  }
  // start[i] is where item i's next rating goes.
  std::vector<size_t> start(static_cast<size_t>(items) + 1, 0);
  for (const Rating& r : ratings) {
    ++start[r.item + 1];
  }
  for (size_t i = 1; i < start.size(); ++i) {
    start[i] += start[i - 1];
  }
  std::vector<Rating> out(ratings.size());
  for (const Rating& r : ratings) {
    out[start[r.item]++] = r;
  }
  return out;
}

void SortRatingsByItem(RatingsDataset& data) { data.train = RatingsByItem(data.train); }

}  // namespace malt
