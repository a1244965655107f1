// VOL — Vector Object Library (paper §3.2, Table 1).
//
// A MaltVector is the developer-facing handle for a model-parameter or
// gradient vector that is shared across replicas. Creating one creates a
// dstorm segment whose dataflow graph describes how updates propagate.
// scatter() pushes this replica's current vector (one-sided writes);
// gather() folds everything that has arrived locally using a user-selected
// UDF (average, sum, replace/Hogwild, or a custom function).
//
// Representation: dense vectors ship all `dim` floats; sparse vectors ship
// (index, value) pairs for the nonzero entries (capacity `max_nnz`).

#ifndef SRC_VOL_MALT_VECTOR_H_
#define SRC_VOL_MALT_VECTOR_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/comm/graph.h"
#include "src/dstorm/dstorm.h"

namespace malt {

enum class Layout : uint8_t {
  kDense = 0,
  kSparse = 1,
};

// Summary of one gather: how many peer objects were folded, and the range of
// iteration stamps seen (drives staleness decisions).
struct GatherResult {
  int received = 0;          // peer objects folded
  int64_t values_folded = 0; // total float entries folded (fold-cost proxy)
  int64_t min_iter = -1;
  int64_t max_iter = -1;
};

// Custom fold callback: `update.values` is the decoded update from `sender`
// (dense view for dense vectors; for sparse vectors `indices` is non-empty
// and `values` holds the matching values). The spans are valid only during
// the call.
struct IncomingUpdate {
  int sender = -1;
  uint32_t iter = 0;
  std::span<const uint32_t> indices;  // empty for dense vectors
  std::span<const float> values;
};
using FoldFn = std::function<void(std::span<float> local, const IncomingUpdate& update)>;

struct MaltVectorOptions {
  std::string name = "v";
  size_t dim = 0;
  Layout layout = Layout::kDense;
  size_t max_nnz = 0;   // sparse capacity; 0 = dim
  int queue_depth = 4;  // per-sender receive queue depth
  Graph graph;          // dataflow (must be strongly connected)
};

// Gradient filter (one of the optimizations §6.2 mentions): sets `out` to the
// indices of the nonzero entries of `values`, scanned in ascending index
// order; when more than `max_nnz` are nonzero, keeps only the `max_nnz` of
// largest magnitude, in nth_element's order. Feeds ScatterIndices.
void LargestMagnitudeIndices(std::span<const float> values, size_t max_nnz,
                             std::vector<uint32_t>* out);

class MaltVector {
 public:
  // Collective: every replica must create the same vectors in the same order
  // with matching options.
  MaltVector(Dstorm& dstorm, MaltVectorOptions options);

  MaltVector(MaltVector&&) = default;

  const std::string& name() const { return options_.name; }
  size_t dim() const { return options_.dim; }
  Layout layout() const { return options_.layout; }
  // Sparse wire capacity in entries (dim for dense vectors).
  size_t max_nnz() const { return options_.max_nnz; }

  // The local primary copy (Fig. 1: replica i trains using V_i).
  std::span<float> data() { return local_; }
  std::span<const float> data() const { return local_; }

  // Iteration stamp attached to outgoing updates (the paper's model updates
  // "carry an iteration count in the header", §3.2).
  void set_iteration(uint32_t iter) { iteration_ = iter; }
  uint32_t iteration() const { return iteration_; }

  // --- Table 1 API -----------------------------------------------------------

  // Pushes the local vector along the dataflow graph (g.scatter()).
  [[nodiscard]] Status Scatter();
  // Pushes to an explicit destination subset (fine-grained dataflow).
  [[nodiscard]] Status ScatterTo(std::span<const int> dsts);
  // Sparse vectors only: pushes just the named coordinates (e.g. the factor
  // rows touched during the last batch — the distributed-Hogwild pattern).
  // `indices` need not be sorted; duplicates are sent as-is. An index >= dim
  // is rejected (InvalidArgument) before anything is encoded.
  [[nodiscard]] Status ScatterIndices(std::span<const uint32_t> indices);

  // All gathers accept `min_iter`: updates with an older iteration stamp are
  // discarded, the ASP mode that "skips merging updates from stragglers"
  // (§6.1). They also accept `max_iter`: updates with a newer stamp stay
  // queued for a later gather (Dstorm::Gather), so a BSP round folds exactly
  // that round's updates. The defaults, -1, fold everything.
  //
  // g.gather(AVG): local = (local + sum of fresh peer updates) / (1 + k).
  GatherResult GatherAverage(int64_t min_iter = -1, int64_t max_iter = -1);
  // local += sum of fresh peer updates.
  GatherResult GatherSum(int64_t min_iter = -1, int64_t max_iter = -1);
  // Hogwild-style: incoming entries overwrite local ones (per arrival order).
  GatherResult GatherReplace(int64_t min_iter = -1, int64_t max_iter = -1);
  // User-defined fold.
  GatherResult GatherCustom(const FoldFn& fold, int64_t min_iter = -1, int64_t max_iter = -1);

  // g.barrier(): synchronous mode support.
  Status Barrier(SimDuration timeout = 0) { return dstorm_.Barrier(timeout); }

  // Newest iteration stamp visible from each live in-neighbor; the minimum
  // bounds how stale the slowest peer is (SSP gate input). Returns -1 when a
  // peer has not sent anything yet.
  int64_t MinPeerIteration() const;

  // True when a gather would fold at least one fresh update (poll predicate).
  bool FreshAvailable() const { return dstorm_.FreshAvailable(segment_); }

  // Bytes one scatter sends per destination (for traffic intuition/tests).
  size_t wire_bytes() const { return obj_bytes_; }

  Dstorm& dstorm() { return dstorm_; }
  const Graph& graph() const { return options_.graph; }
  SegmentId segment() const { return segment_; }

 private:
  using UpdateFn = std::function<void(const IncomingUpdate& update)>;

  // The one gather path every fold shares: inside dstorm's consume callback
  // it decodes each fresh update, observes its staleness, drops it if older
  // than `min_iter`, tallies it (charged to vol.*) and hands it to `fn`, in
  // dstorm's order (sender-major, oldest first). Updates newer than
  // `max_iter` (when >= 0) are left queued.
  GatherResult GatherEach(int64_t min_iter, int64_t max_iter, const UpdateFn& fn);
  [[nodiscard]] Status EncodeAndScatter(std::span<const int>* dsts);
  // The one sparse wire encoder: writes `u32 nnz | u32 idx[nnz] | f32
  // val[nnz]` for `indices` (at most max_nnz, each < dim) into wire_.
  std::span<const std::byte> EncodeSparse(std::span<const uint32_t> indices);
  // Counts the scatter, records the outgoing stamp with the protocol checker
  // (monotonicity) and sends along the graph, or to `dsts` when non-null.
  [[nodiscard]] Status Send(std::span<const std::byte> payload, std::span<const int>* dsts);

  Dstorm& dstorm_;
  MaltVectorOptions options_;
  size_t obj_bytes_;
  SegmentId segment_;
  std::vector<float> local_;
  std::vector<std::byte> wire_;    // sparse scatter encode buffer (empty when dense)
  std::vector<uint32_t> nonzero_;  // sparse Scatter() scratch: the nonzero indices
  // GatherAverage scratch, sized on first use: the dense running sum, and
  // the sparse per-coordinate sums and counts (all zero between gathers).
  std::vector<double> avg_acc_;
  std::vector<float> avg_sum_;
  std::vector<int> avg_count_;
  uint32_t iteration_ = 0;

  // Telemetry cells (shared per-rank registry, resolved once).
  Counter* c_scatters_ = nullptr;
  Counter* c_gathers_ = nullptr;
  Counter* c_updates_folded_ = nullptr;
  Counter* c_values_folded_ = nullptr;
  Counter* c_stale_dropped_ = nullptr;
  // comm.edge.<sender>-<rank>.staleness_epochs, one per in-neighbor: how many
  // epochs behind this replica's stamp each consumed update was.
  std::vector<HistogramMetric*> staleness_by_sender_;  // [world], null off-graph
};

}  // namespace malt

#endif  // SRC_VOL_MALT_VECTOR_H_
