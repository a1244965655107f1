// Per-rank trace event ring.
//
// A bounded ring of typed events stamped with virtual SimTime. Producers emit
// begin/end ("B"/"E") spans, instants ("i"), complete spans ("X"), and flow
// events ("s"/"t"/"f") with string-literal names (the ring stores the
// pointers; callers must pass static strings). When the ring is full the
// oldest event is overwritten and `dropped()` counts the loss, so a long run
// keeps its newest window instead of failing or growing without bound.
//
// Thread safety: one writer per ring. Only the owning rank's thread emits
// into its ring — a sender logs the receiver-side apply of its own write into
// its OWN ring, tagged with the receiver's track (TraceEvent::tid) — so Emit
// is a handful of relaxed stores: no lock, no lock prefix, no divide (the
// capacity is a power of two). Readers may run on any thread, mid-run too
// (the flight recorder's trace_tail section renders from the watchdog and
// sampler threads): each slot carries a sequence stamp, and a reader drops an
// event the writer was overwriting while it copied.
//
// Flow events: a logical update (one PostObject) is stitched across rank
// timelines by emitting 's' (flow start, sender), 't' (flow step, receiver
// apply), and 'f' (flow finish, gather-fold consume) events that share a
// flow id and the "dataflow" category. Perfetto renders the triple as a
// clickable arrow from the scatter span through the apply slice into the
// gather span.
//
// Export: WriteChromeTrace() renders one or more rings (one per rank) as a
// Chrome trace_event JSON array — loadable in chrome://tracing and Perfetto —
// with pid 0 ("malt cluster") and tid = rank, so a whole simulated cluster
// run is inspectable on one timeline. Virtual nanoseconds are emitted as the
// viewer's native microseconds.

#ifndef SRC_TELEMETRY_TRACE_H_
#define SRC_TELEMETRY_TRACE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/base/time_units.h"

namespace malt {

// Shared static name for update-lineage flow events: the 's'/'t'/'f' triple
// of one scatter must agree on name + category + id for viewers to link them.
inline constexpr char kFlowUpdateName[] = "update";

struct TraceEvent {
  const char* name = "";  // static string (literal); not owned
  char ph = 'i';          // Chrome phase: 'B', 'E', 'i', 'X', 's', 't', 'f'
  SimTime ts = 0;
  SimDuration dur = 0;             // 'X' events only
  const char* arg_name = nullptr;  // optional single argument (static string)
  int64_t arg = 0;
  uint64_t flow_id = 0;  // 's'/'t'/'f' events only; see MakeFlowId()
  // Export track override: -1 renders on the owning ring's track, >= 0 on
  // that rank's track. Lets a sender log receiver-side apply events into its
  // OWN ring (keeping every ring single-writer — no cross-thread lock
  // contention on the post hot path) while the viewer still draws them on
  // the receiver's timeline.
  int32_t tid = -1;
};

// Packs one update's lineage key into a Chrome flow id:
//   (src rank : 8 | dst rank : 8 | rkey : 16 | wire seq : 32).
// The consumer recomputes the same id from (sender, reader, segment rkey,
// slot seq) without any extra wire bytes.
constexpr uint64_t MakeFlowId(int src, int dst, uint32_t rkey, uint64_t seq) {
  return (static_cast<uint64_t>(src & 0xff) << 56) | (static_cast<uint64_t>(dst & 0xff) << 48) |
         (static_cast<uint64_t>(rkey & 0xffff) << 32) | (seq & 0xffffffff);
}

class TraceRing {
 public:
  // `capacity` is rounded up to a power of two (at least 1).
  explicit TraceRing(size_t capacity = 16384);

  // Owner thread only (see the file comment).
  void Emit(const TraceEvent& event);
  void Begin(const char* name, SimTime ts) { Emit({name, 'B', ts, 0, nullptr, 0, 0}); }
  void End(const char* name, SimTime ts) { Emit({name, 'E', ts, 0, nullptr, 0, 0}); }
  void Instant(const char* name, SimTime ts) { Emit({name, 'i', ts, 0, nullptr, 0, 0}); }
  void Instant(const char* name, SimTime ts, const char* arg_name, int64_t arg) {
    Emit({name, 'i', ts, 0, arg_name, arg, 0});
  }
  void Complete(const char* name, SimTime ts, SimDuration dur) {
    Emit({name, 'X', ts, dur, nullptr, 0, 0});
  }
  // Flow triple: start at send, step at receiver-side apply, finish at
  // gather-fold consume. `arg` conventionally carries the update's epoch.
  void FlowStart(const char* name, SimTime ts, uint64_t flow_id, int64_t iter) {
    Emit({name, 's', ts, 0, "iter", iter, flow_id});
  }
  void FlowStep(const char* name, SimTime ts, uint64_t flow_id, int64_t iter) {
    Emit({name, 't', ts, 0, "iter", iter, flow_id});
  }
  void FlowFinish(const char* name, SimTime ts, uint64_t flow_id, int64_t iter) {
    Emit({name, 'f', ts, 0, "iter", iter, flow_id});
  }

  size_t capacity() const { return slots_.size(); }
  size_t size() const { return static_cast<size_t>(std::min<uint64_t>(Emitted(), capacity())); }
  // Events overwritten so far.
  int64_t dropped() const {
    const uint64_t emitted = Emitted();
    return emitted > capacity() ? static_cast<int64_t>(emitted - capacity()) : 0;
  }
  bool empty() const { return size() == 0; }

  // Visits the newest `newest` retained events (all by default) oldest-first
  // (emission order; per-rank timestamps are monotone, so this is also
  // SimTime order). Safe from any thread: an event overwritten during the
  // walk is skipped, so only a mid-run walk can miss events.
  void ForEach(const std::function<void(const TraceEvent&)>& fn,
               size_t newest = SIZE_MAX) const;
  std::vector<TraceEvent> Snapshot(size_t newest = SIZE_MAX) const;
  // Owner thread only, with no concurrent reader.
  void Clear() { emitted_.store(0, std::memory_order_release); }

 private:
  static constexpr size_t kEventWords = sizeof(TraceEvent) / sizeof(uint64_t);
  static_assert(sizeof(TraceEvent) == kEventWords * sizeof(uint64_t));
  // A sequence-stamped slot: `stamp` is 2i+1 while event i is being written
  // and 2i+2 once it is whole. The event is stored as relaxed words, so a
  // reader racing the writer copies defined (possibly mixed) words and the
  // stamp tells it whether to keep them.
  struct Slot {
    std::atomic<uint64_t> stamp{0};
    std::atomic<uint64_t> words[kEventWords] = {};
  };

  uint64_t Emitted() const { return emitted_.load(std::memory_order_acquire); }
  // Copies event `index` out of its slot; false if it was overwritten.
  bool Read(uint64_t index, TraceEvent* out) const;

  std::vector<Slot> slots_;
  const uint64_t mask_;
  // Events emitted since construction (or Clear); stored by the writer only.
  alignas(64) std::atomic<uint64_t> emitted_{0};
};

// Renders `rings` (tid = index) as one Chrome trace_event JSON array. Every
// event object carries the full required key set {"name","ph","ts","pid",
// "tid"}; thread-name metadata records label each rank's track. Flow events
// additionally carry {"cat","id"} and bind to their enclosing slice
// ("bp":"e").
void AppendChromeTrace(std::string* out, const std::vector<const TraceRing*>& rings);
[[nodiscard]] Status WriteChromeTrace(const std::string& path, const std::vector<const TraceRing*>& rings);

}  // namespace malt

#endif  // SRC_TELEMETRY_TRACE_H_
