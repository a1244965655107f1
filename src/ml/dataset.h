// Synthetic dataset generators.
//
// The paper evaluates on RCV1, PASCAL alpha/webspam/DNA, splice-site,
// Netflix and KDD12 (Table 2) — corpora we cannot ship. Each generator below
// produces a scaled-down synthetic analog that preserves the properties SGD
// convergence actually depends on: dimensionality, sparsity, margin/noise,
// and (for ratings) the low-rank structure. The *Like() presets record the
// mapping used by EXPERIMENTS.md.
//
// Layout. A split (train or test) is one SparseRows: CSR storage with every
// row's feature indices in one array, every value in a second, row offsets
// and labels. A SparseExample is a by-value view of one row. Within a row
// the indices are sorted ascending and distinct; the generators, the LIBSVM
// loader and SparseRows::Append all keep that invariant, and the SVM step and
// the sparse codecs rely on it.
//
// Generation. MakeClassification draws every example from one Xoshiro256
// stream, rows in order, train before test. It first walks that stream once
// doing only the draws (no values, no labels), recording the generator state
// at every kGenerationChunkRows-th row and every row's nnz; the nnz give the
// exact CSR offsets and one allocation per array. Worker threads then redraw
// the chunks in place, each from its recorded state. The output is a function
// of the config alone: the same bytes for any thread or core count, and the
// same bytes as drawing every row sequentially.

#ifndef SRC_ML_DATASET_H_
#define SRC_ML_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

namespace malt {

// One classification example: a view of one row of a SparseRows, valid while
// that SparseRows lives and is not appended to. Label in {-1, +1}.
struct SparseExample {
  std::span<const uint32_t> idx;  // sorted ascending, distinct
  std::span<const float> val;
  float label = 0;

  size_t nnz() const { return idx.size(); }
};

// A std::allocator whose value-less construct leaves ints and floats
// uninitialized, so resize() hands the storage to its writers without a
// zeroing pass first.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
};

struct ClassificationConfig;
struct SparseDataset;

// One split's examples in CSR form: row r's indices and values are
// [offsets[r], offsets[r + 1]) of the idx and val arrays.
class SparseRows {
 public:
  // Yields each row's view by value.
  class Iterator {
   public:
    Iterator(const SparseRows* rows, size_t row) : rows_(rows), row_(row) {}
    SparseExample operator*() const { return (*rows_)[row_]; }
    Iterator& operator++() {
      ++row_;
      return *this;
    }
    bool operator==(const Iterator& other) const { return row_ == other.row_; }

   private:
    const SparseRows* rows_;
    size_t row_;
  };

  size_t size() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }
  size_t total_nnz() const { return idx_.size(); }

  SparseExample operator[](size_t row) const {
    const size_t begin = offsets_[row];
    const size_t nnz = offsets_[row + 1] - begin;
    return SparseExample{{idx_.data() + begin, nnz}, {val_.data() + begin, nnz}, labels_[row]};
  }
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }

  // Appends one row. `idx` must be sorted ascending and distinct, and as long
  // as `val`.
  void Append(std::span<const uint32_t> idx, std::span<const float> val, float label);

 private:
  // The generator sizes the arrays once and fills the rows in parallel.
  friend SparseDataset MakeClassification(const ClassificationConfig& config);
  template <typename T>
  using Array = std::vector<T, DefaultInitAllocator<T>>;

  std::vector<size_t> offsets_;  // size() + 1 entries once a row exists
  Array<uint32_t> idx_;
  Array<float> val_;
  Array<float> labels_;
};

struct SparseDataset {
  std::string name;
  size_t dim = 0;
  SparseRows train;
  SparseRows test;

  double AvgNnz() const;
};

// Rows per unit of parallel generation work (see the header comment).
inline constexpr size_t kGenerationChunkRows = 1024;

struct ClassificationConfig {
  std::string name = "synthetic";
  size_t dim = 1000;
  size_t train_n = 10000;
  size_t test_n = 1000;
  size_t avg_nnz = 50;      // features per example (dim => dense)
  double label_noise = 0.02;  // probability of a flipped label
  double margin = 0.5;        // soft margin scale (smaller = harder)
  // Feature popularity skew: 1.0 = uniform; larger concentrates activity on
  // low feature ids (text corpora are Zipfian — a communication batch then
  // touches far fewer distinct coordinates than uniform sampling would).
  double feature_skew = 1.0;
  uint64_t seed = 1;
};

// Linear ground truth w*, examples with `avg_nnz` active features, labels
// sign(w*.x + noise) with flips. Convex, so SGD convergence is well
// understood — exactly why the paper uses these suites for verification.
SparseDataset MakeClassification(const ClassificationConfig& config);

// Presets mirroring Table 2 (scaled so figures regenerate in seconds).
ClassificationConfig Rcv1Like();      // document classification, 47k dims, sparse
ClassificationConfig AlphaLike();     // PASCAL alpha: 500 dims, dense
ClassificationConfig DnaLike();       // PASCAL DNA: 800 dims
ClassificationConfig WebspamLike();   // 16.6M dims in the paper; high-dim sparse
ClassificationConfig SpliceLike();    // splice-site: 11M dims, huge training set
ClassificationConfig KddLike();       // KDD12 CTR features for the neural net

// --- Ratings (matrix factorization; Netflix analog) --------------------------

struct Rating {
  uint32_t user = 0;
  uint32_t item = 0;
  float value = 0;
  bool operator==(const Rating&) const = default;
};

struct RatingsDataset {
  std::string name;
  int users = 0;
  int items = 0;
  int rank = 0;  // ground-truth latent dimension
  std::vector<Rating> train;
  std::vector<Rating> test;
};

struct RatingsConfig {
  std::string name = "netflix-like";
  int users = 600;
  int items = 400;
  int rank = 8;        // ground-truth latent rank
  size_t train_n = 60000;
  size_t test_n = 6000;
  double noise = 0.1;
  uint64_t seed = 3;
};

// Low-rank ground truth P*, Q*; ratings p_u . q_i + noise, clipped to [1, 5].
RatingsDataset MakeRatings(const RatingsConfig& config);

// Deterministic shuffling/sharding helpers.
void ShuffleRatings(RatingsDataset& data, uint64_t seed);

// `ratings` ordered by item, ties in input order — std::stable_sort's order,
// from one counting pass and one placement pass (O(n + items)). The paper
// sorts the Netflix input by movie and splits across ranks "to avoid
// conflicts" in distributed Hogwild (§6.1).
std::vector<Rating> RatingsByItem(const std::vector<Rating>& ratings);
// data.train = RatingsByItem(data.train).
void SortRatingsByItem(RatingsDataset& data);

}  // namespace malt

#endif  // SRC_ML_DATASET_H_
