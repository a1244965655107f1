#include "src/telemetry/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "src/base/log.h"
#include "src/telemetry/metrics.h"

namespace malt {

TraceRing::TraceRing(size_t capacity) : buf_(capacity == 0 ? 1 : capacity) {}

void TraceRing::EmitLocked(const TraceEvent& event) {
  if (size_ == buf_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);  // overwriting the oldest retained event
  } else {
    size_ += 1;
  }
  buf_[next_] = event;
  next_ = (next_ + 1) % buf_.size();
}

void TraceRing::Emit(const TraceEvent& event) {
  SpinLockHolder lock(mu_);
  EmitLocked(event);
}

void TraceRing::EmitPair(const TraceEvent& first, const TraceEvent& second) {
  SpinLockHolder lock(mu_);
  EmitLocked(first);
  EmitLocked(second);
}

size_t TraceRing::capacity() const {
  SpinLockHolder lock(mu_);
  return buf_.size();
}

size_t TraceRing::size() const {
  SpinLockHolder lock(mu_);
  return size_;
}

void TraceRing::ForEach(const std::function<void(const TraceEvent&)>& fn) const {
  SpinLockHolder lock(mu_);
  const size_t oldest = (next_ + buf_.size() - size_) % buf_.size();
  for (size_t i = 0; i < size_; ++i) {
    fn(buf_[(oldest + i) % buf_.size()]);
  }
}

std::vector<TraceEvent> TraceRing::Snapshot() const {
  std::vector<TraceEvent> out;
  ForEach([&out](const TraceEvent& e) { out.push_back(e); });
  return out;
}

void TraceRing::Clear() {
  SpinLockHolder lock(mu_);
  next_ = 0;
  size_ = 0;
  dropped_.store(0, std::memory_order_relaxed);
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
