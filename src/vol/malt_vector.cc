#include "src/vol/malt_vector.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/base/log.h"

namespace malt {

void LargestMagnitudeIndices(std::span<const float> values, size_t max_nnz,
                             std::vector<uint32_t>* out) {
  out->clear();
  for (uint32_t i = 0; i < values.size(); ++i) {
    if (values[i] != 0.0f) {
      out->push_back(i);
    }
  }
  if (out->size() > max_nnz) {
    std::nth_element(out->begin(), out->begin() + static_cast<std::ptrdiff_t>(max_nnz),
                     out->end(), [values](uint32_t a, uint32_t b) {
                       return std::abs(values[a]) > std::abs(values[b]);
                     });
    out->resize(max_nnz);
  }
}

MaltVector::MaltVector(Dstorm& dstorm, MaltVectorOptions options)
    : dstorm_(dstorm), options_(std::move(options)) {
  MALT_CHECK(options_.dim > 0) << "vector '" << options_.name << "' needs dim > 0";
  if (options_.max_nnz == 0 || options_.max_nnz > options_.dim) {
    options_.max_nnz = options_.dim;
  }
  MALT_CHECK(options_.graph.size() == dstorm_.world())
      << "vector '" << options_.name << "': graph size mismatch";

  // Sparse objects: u32 nnz | u32 idx[nnz] | f32 val[nnz] (EncodeSparse).
  obj_bytes_ = options_.layout == Layout::kDense ? options_.dim * sizeof(float)
                                                 : 4 + options_.max_nnz * 8;
  SegmentOptions seg;
  seg.obj_bytes = obj_bytes_;
  seg.graph = options_.graph;
  seg.queue_depth = options_.queue_depth;
  segment_ = dstorm_.CreateSegment(seg);
  local_.assign(options_.dim, 0.0f);
  if (options_.layout == Layout::kSparse) {
    wire_.resize(obj_bytes_);  // dense scatters send local_ as it is
  }

  MetricRegistry& reg = dstorm_.telemetry().metrics;
  c_scatters_ = reg.GetCounter("vol.scatters");
  c_gathers_ = reg.GetCounter("vol.gathers");
  c_updates_folded_ = reg.GetCounter("vol.updates_folded");
  c_values_folded_ = reg.GetCounter("vol.values_folded");
  c_stale_dropped_ = reg.GetCounter("dstorm.stale_objects_dropped");
  staleness_by_sender_.assign(dstorm_.world(), nullptr);
  for (int sender : options_.graph.InEdges(dstorm_.rank())) {
    staleness_by_sender_[static_cast<size_t>(sender)] = reg.GetHistogram(
        EdgeMetricName(sender, dstorm_.rank(), "staleness_epochs"),
        EdgeStalenessHistogramOptions());
  }
}

std::span<const std::byte> MaltVector::EncodeSparse(std::span<const uint32_t> indices) {
  const uint32_t nnz = static_cast<uint32_t>(indices.size());
  std::memcpy(wire_.data(), &nnz, 4);
  auto* idx_out = reinterpret_cast<uint32_t*>(wire_.data() + 4);
  auto* val_out = reinterpret_cast<float*>(wire_.data() + 4 + static_cast<size_t>(nnz) * 4);
  for (uint32_t k = 0; k < nnz; ++k) {
    idx_out[k] = indices[k];
    val_out[k] = local_[indices[k]];
  }
  return {wire_.data(), 4 + static_cast<size_t>(nnz) * 8};
}

Status MaltVector::EncodeAndScatter(std::span<const int>* dsts) {
  if (options_.layout == Layout::kDense) {
    return Send(std::as_bytes(std::span<const float>(local_)), dsts);
  }
  nonzero_.clear();
  for (uint32_t i = 0; i < options_.dim; ++i) {
    if (local_[i] != 0.0f) {
      if (nonzero_.size() == options_.max_nnz) {
        return ResourceExhaustedError("vector '" + options_.name + "': nnz exceeds max_nnz=" +
                                      std::to_string(options_.max_nnz));
      }
      nonzero_.push_back(i);
    }
  }
  return Send(EncodeSparse(nonzero_), dsts);
}

// Outgoing iteration stamps must never regress within one vector: the SSP
// gate and the ASP straggler filter both order peers by these stamps, so the
// protocol checker sees each one.
Status MaltVector::Send(std::span<const std::byte> payload, std::span<const int>* dsts) {
  c_scatters_->Add(1);
  ProtocolChecker& checker = dstorm_.transport().checker();
  if (checker.enabled()) {
    const SimTime now = dstorm_.bound() ? dstorm_.ctx().Now() : 0;
    checker.OnVolScatter(dstorm_.rank(), segment_, iteration_, now);
  }
  if (dsts == nullptr) {
    return dstorm_.Scatter(segment_, payload, iteration_);
  }
  return dstorm_.ScatterTo(segment_, *dsts, payload, iteration_);
}

Status MaltVector::Scatter() { return EncodeAndScatter(nullptr); }

Status MaltVector::ScatterIndices(std::span<const uint32_t> indices) {
  if (options_.layout != Layout::kSparse) {
    return FailedPreconditionError("ScatterIndices requires a sparse vector");
  }
  if (indices.size() > options_.max_nnz) {
    return ResourceExhaustedError("vector '" + options_.name + "': " +
                                  std::to_string(indices.size()) + " indices exceed max_nnz=" +
                                  std::to_string(options_.max_nnz));
  }
  for (uint32_t index : indices) {
    if (index >= options_.dim) {
      return InvalidArgumentError("vector '" + options_.name + "': index " +
                                  std::to_string(index) + " out of range for dim " +
                                  std::to_string(options_.dim));
    }
  }
  return Send(EncodeSparse(indices), nullptr);
}

Status MaltVector::ScatterTo(std::span<const int> dsts) { return EncodeAndScatter(&dsts); }

GatherResult MaltVector::GatherEach(int64_t min_iter, int64_t max_iter, const UpdateFn& fn) {
  GatherResult result;
  int64_t dropped = 0;
  dstorm_.Gather(segment_, [&](const RecvObject& obj) {
    IncomingUpdate u{obj.sender, obj.iter, {}, {}};
    if (options_.layout == Layout::kDense) {
      if (obj.bytes.size() != options_.dim * sizeof(float)) {
        MALT_LOG_S(kWarning) << "vector '" << options_.name << "': dropping malformed update ("
                             << obj.bytes.size() << " bytes)";
        return;
      }
      u.values = std::span<const float>(reinterpret_cast<const float*>(obj.bytes.data()),
                                        options_.dim);
    } else {
      if (obj.bytes.size() < 4) {
        return;
      }
      uint32_t nnz;
      std::memcpy(&nnz, obj.bytes.data(), 4);
      if (obj.bytes.size() < 4 + static_cast<size_t>(nnz) * 8) {
        MALT_LOG_S(kWarning) << "vector '" << options_.name << "': truncated sparse update";
        return;
      }
      u.indices = std::span<const uint32_t>(
          reinterpret_cast<const uint32_t*>(obj.bytes.data() + 4), nnz);
      u.values = std::span<const float>(
          reinterpret_cast<const float*>(obj.bytes.data() + 4 + nnz * 4), nnz);
    }
    // Staleness at consume: how far behind the reader's stamp each arriving
    // update is, observed before the ASP filter so dropped stragglers count too.
    HistogramMetric* h = staleness_by_sender_[static_cast<size_t>(u.sender)];
    if (h != nullptr) {
      h->Observe(static_cast<double>(
          std::max<int64_t>(0, static_cast<int64_t>(iteration_) - static_cast<int64_t>(u.iter))));
    }
    const int64_t iter = static_cast<int64_t>(u.iter);
    if (min_iter >= 0 && iter < min_iter) {
      ++dropped;
      return;
    }
    ++result.received;
    result.values_folded += static_cast<int64_t>(u.values.size());
    result.min_iter = result.min_iter < 0 ? iter : std::min(result.min_iter, iter);
    result.max_iter = std::max(result.max_iter, iter);
    fn(u);
  }, max_iter);
  c_gathers_->Add(1);
  c_stale_dropped_->Add(dropped);
  c_updates_folded_->Add(result.received);
  c_values_folded_->Add(result.values_folded);
  return result;
}

GatherResult MaltVector::GatherAverage(int64_t min_iter, int64_t max_iter) {
  // local = (local + sum incoming) / (1 + k). For sparse updates only the
  // touched coordinates participate (per-coordinate k = number of updates
  // touching it); untouched coordinates keep the local value — standard
  // sparse parameter mixing. The sums live in member scratch sized on the
  // first update, so an empty gather touches nothing and later gathers
  // allocate nothing.
  if (options_.layout == Layout::kDense) {
    bool seeded = false;
    const GatherResult result = GatherEach(min_iter, max_iter, [&](const IncomingUpdate& u) {
      if (!seeded) {
        avg_acc_.assign(local_.begin(), local_.end());
        seeded = true;
      }
      for (size_t i = 0; i < u.values.size(); ++i) {
        avg_acc_[i] += u.values[i];
      }
    });
    if (result.received > 0) {
      const float scale = 1.0f / (1.0f + static_cast<float>(result.received));
      for (size_t i = 0; i < local_.size(); ++i) {
        local_[i] = static_cast<float>(avg_acc_[i] * scale);
      }
    }
    return result;
  }

  // Sparse scratch is all zeros between gathers: the mixing pass clears each
  // coordinate it consumes.
  const GatherResult result = GatherEach(min_iter, max_iter, [&](const IncomingUpdate& u) {
    if (avg_sum_.empty()) {
      avg_sum_.assign(options_.dim, 0.0f);
      avg_count_.assign(options_.dim, 0);
    }
    for (size_t k = 0; k < u.indices.size(); ++k) {
      avg_sum_[u.indices[k]] += u.values[k];
      avg_count_[u.indices[k]] += 1;
    }
  });
  if (result.received > 0) {
    for (uint32_t i = 0; i < options_.dim; ++i) {
      if (avg_count_[i] > 0) {
        local_[i] = (local_[i] + avg_sum_[i]) / (1.0f + static_cast<float>(avg_count_[i]));
        avg_sum_[i] = 0.0f;
        avg_count_[i] = 0;
      }
    }
  }
  return result;
}

GatherResult MaltVector::GatherSum(int64_t min_iter, int64_t max_iter) {
  return GatherCustom(
      [](std::span<float> local, const IncomingUpdate& u) {
    if (u.indices.empty()) {
      for (size_t i = 0; i < u.values.size(); ++i) {
        local[i] += u.values[i];
      }
    } else {
      for (size_t k = 0; k < u.indices.size(); ++k) {
        local[u.indices[k]] += u.values[k];
      }
    }
  },
      min_iter, max_iter);
}

GatherResult MaltVector::GatherReplace(int64_t min_iter, int64_t max_iter) {
  return GatherCustom(
      [](std::span<float> local, const IncomingUpdate& u) {
    if (u.indices.empty()) {
      for (size_t i = 0; i < u.values.size(); ++i) {
        local[i] = u.values[i];
      }
    } else {
      for (size_t k = 0; k < u.indices.size(); ++k) {
        local[u.indices[k]] = u.values[k];
      }
    }
  },
      min_iter, max_iter);
}

GatherResult MaltVector::GatherCustom(const FoldFn& fold, int64_t min_iter, int64_t max_iter) {
  return GatherEach(min_iter, max_iter, [&](const IncomingUpdate& u) { fold(local_, u); });
}

int64_t MaltVector::MinPeerIteration() const {
  int64_t min_iter = std::numeric_limits<int64_t>::max();
  bool any = false;
  for (int sender : options_.graph.InEdges(dstorm_.rank())) {
    if (!dstorm_.InGroup(sender)) {
      continue;
    }
    min_iter = std::min(min_iter, dstorm_.PeerIteration(segment_, sender));
    any = true;
  }
  return any ? min_iter : -1;
}

}  // namespace malt
