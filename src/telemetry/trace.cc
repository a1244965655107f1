#include "src/telemetry/trace.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/base/log.h"
#include "src/telemetry/metrics.h"

namespace malt {

TraceRing::TraceRing(size_t capacity)
    : slots_(std::bit_ceil(std::max<size_t>(capacity, 1))), mask_(slots_.size() - 1) {}

void TraceRing::Emit(const TraceEvent& event) {
  uint64_t words[kEventWords];
  std::memcpy(words, &event, sizeof(words));
  const uint64_t index = emitted_.load(std::memory_order_relaxed);  // this thread stores it
  Slot& slot = slots_[index & mask_];
  // The seqlock writer, without a read-modify-write (there is one writer):
  // odd stamp, release fence, the words, even stamp with release.
  slot.stamp.store(2 * index + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  for (size_t w = 0; w < kEventWords; ++w) {
    slot.words[w].store(words[w], std::memory_order_relaxed);
  }
  slot.stamp.store(2 * index + 2, std::memory_order_release);
  emitted_.store(index + 1, std::memory_order_release);
}

bool TraceRing::Read(uint64_t index, TraceEvent* out) const {
  const Slot& slot = slots_[index & mask_];
  const uint64_t stamp = slot.stamp.load(std::memory_order_acquire);
  if (stamp != 2 * index + 2) {
    return false;  // being overwritten by, or already holding, a newer event
  }
  uint64_t words[kEventWords];
  for (size_t w = 0; w < kEventWords; ++w) {
    words[w] = slot.words[w].load(std::memory_order_relaxed);
  }
  // Orders the word loads before the validating stamp load.
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.stamp.load(std::memory_order_relaxed) != stamp) {
    return false;
  }
  std::memcpy(out, words, sizeof(words));
  return true;
}

void TraceRing::ForEach(const std::function<void(const TraceEvent&)>& fn, size_t newest) const {
  const uint64_t end = Emitted();
  const uint64_t keep = std::min<uint64_t>({end, capacity(), newest});
  TraceEvent event;
  for (uint64_t i = end - keep; i < end; ++i) {
    if (Read(i, &event)) {
      fn(event);
    }
  }
}

std::vector<TraceEvent> TraceRing::Snapshot(size_t newest) const {
  std::vector<TraceEvent> out;
  ForEach([&out](const TraceEvent& e) { out.push_back(e); }, newest);
  return out;
}

namespace {

bool IsFlowPhase(char ph) { return ph == 's' || ph == 't' || ph == 'f'; }

void AppendEventJson(std::string* out, const TraceEvent& e, int tid) {
  char buf[64];
  out->append("{\"name\":");
  AppendJsonEscaped(out, e.name);
  out->append(",\"ph\":\"");
  out->push_back(e.ph);
  out->append("\",\"ts\":");
  // Chrome's native unit is microseconds; keep sub-us precision as fraction.
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(e.ts) / 1000.0);
  out->append(buf);
  if (e.ph == 'X') {
    std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f", static_cast<double>(e.dur) / 1000.0);
    out->append(buf);
  }
  std::snprintf(buf, sizeof(buf), ",\"pid\":0,\"tid\":%d", tid);
  out->append(buf);
  if (e.ph == 'i') {
    out->append(",\"s\":\"t\"");  // instant scope: thread
  }
  if (IsFlowPhase(e.ph)) {
    // Flow events need a shared category + id across the 's'/'t'/'f' triple;
    // step/finish bind to the enclosing slice on their track ("bp":"e").
    std::snprintf(buf, sizeof(buf), ",\"cat\":\"dataflow\",\"id\":\"0x%llx\"",
                  static_cast<unsigned long long>(e.flow_id));
    out->append(buf);
    if (e.ph != 's') {
      out->append(",\"bp\":\"e\"");
    }
  }
  if (e.arg_name != nullptr) {
    out->append(",\"args\":{");
    AppendJsonEscaped(out, e.arg_name);
    out->push_back(':');
    AppendJsonNumber(out, static_cast<double>(e.arg));
    out->push_back('}');
  }
  out->push_back('}');
}

}  // namespace

void AppendChromeTrace(std::string* out, const std::vector<const TraceRing*>& rings) {
  // Merge the per-rank rings into one global timeline. Each ring is already
  // timestamp-ordered (per-rank virtual clocks are monotone), so a stable
  // sort keeps per-rank event order for identical timestamps — required for
  // 'B'/'E' pairing within a track.
  struct Tagged {
    TraceEvent event;
    int tid;
  };
  std::vector<Tagged> all;
  for (size_t tid = 0; tid < rings.size(); ++tid) {
    if (rings[tid] == nullptr) {
      continue;
    }
    rings[tid]->ForEach([&all, tid](const TraceEvent& e) {
      all.push_back({e, e.tid >= 0 ? e.tid : static_cast<int>(tid)});
    });
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Tagged& a, const Tagged& b) { return a.event.ts < b.event.ts; });

  out->append("[\n");
  bool first = true;
  char buf[128];  // the thread_name record below with two 20-digit %zu values
  for (size_t tid = 0; tid < rings.size(); ++tid) {
    if (rings[tid] == nullptr) {
      continue;
    }
    // Thread-name metadata so viewers label tracks "rank N". Carries the full
    // required key set (ts included) for strict trace-format consumers.
    if (!first) {
      out->append(",\n");
    }
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":%zu,"
                  "\"args\":{\"name\":\"rank %zu\"}}",
                  tid, tid);
    out->append(buf);
  }
  for (const Tagged& t : all) {
    if (!first) {
      out->append(",\n");
    }
    first = false;
    AppendEventJson(out, t.event, t.tid);
  }
  out->append("\n]\n");
}

Status WriteChromeTrace(const std::string& path, const std::vector<const TraceRing*>& rings) {
  std::string json;
  AppendChromeTrace(&json, rings);
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) {
    return UnavailableError("cannot open trace output '" + path + "'");
  }
  out << json;
  out.flush();
  if (!out.good()) {
    return UnavailableError("failed writing trace output '" + path + "'");
  }
  return OkStatus();
}

}  // namespace malt
