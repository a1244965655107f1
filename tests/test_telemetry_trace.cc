// Trace ring semantics: bounded power-of-two capacity with oldest-first
// overwrite, whole events for a reader racing the writer, SimTime ordering
// of the export, and Chrome trace_event JSON validity.

#include "src/telemetry/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace malt {
namespace {

TEST(Trace, EmitAndForEachOldestFirst) {
  TraceRing ring(8);
  ring.Begin("compute", 100);
  ring.End("compute", 250);
  ring.Instant("fault.detect", 300);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.dropped(), 0);

  std::vector<SimTime> ts;
  ring.ForEach([&](const TraceEvent& e) { ts.push_back(e.ts); });
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
  EXPECT_EQ(ts.front(), 100);
  EXPECT_EQ(ts.back(), 300);
}

TEST(Trace, RingWraparoundKeepsNewestWindow) {
  TraceRing ring(4);
  for (int i = 0; i < 10; ++i) {
    ring.Instant("tick", i * 100);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6);

  std::vector<SimTime> ts;
  ring.ForEach([&](const TraceEvent& e) { ts.push_back(e.ts); });
  // The newest four events survive, still oldest-first.
  EXPECT_EQ(ts, (std::vector<SimTime>{600, 700, 800, 900}));
}

TEST(Trace, ClearResets) {
  TraceRing ring(4);
  ring.Instant("x", 1);
  ring.Clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
}

TEST(Trace, CapacityRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(TraceRing(0).capacity(), 1u);
  EXPECT_EQ(TraceRing(5).capacity(), 8u);
  EXPECT_EQ(TraceRing(16).capacity(), 16u);
  TraceRing ring(5);
  for (int i = 0; i < 10; ++i) {
    ring.Instant("tick", i);
  }
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.dropped(), 2);
}

TEST(Trace, SnapshotOfTheNewestEvents) {
  TraceRing ring(8);
  for (int i = 0; i < 6; ++i) {
    ring.Instant("tick", i);
  }
  std::vector<SimTime> ts;
  for (const TraceEvent& e : ring.Snapshot(2)) {
    ts.push_back(e.ts);
  }
  EXPECT_EQ(ts, (std::vector<SimTime>{4, 5}));
  EXPECT_EQ(ring.Snapshot(100).size(), 6u);
}

// The flight recorder renders a ring's tail from another thread while the
// owner keeps emitting. Every event the reader keeps must be whole and in
// emission order; TSan runs this through the shmem label.
TEST(Trace, ConcurrentReaderKeepsOnlyWholeEventsInOrder) {
  constexpr int64_t kEvents = 200000;
  TraceRing ring(64);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int64_t i = 0; i < kEvents; ++i) {
      ring.Emit({"tick", 'X', i, 3 * i, "i", i, static_cast<uint64_t>(7 * i),
                 static_cast<int32_t>(i % 5)});
    }
    done.store(true, std::memory_order_release);
  });
  int64_t kept = 0;
  int64_t bad = 0;
  auto check = [&](const TraceEvent& e, SimTime* last) {
    const bool whole = e.ph == 'X' && e.dur == 3 * e.ts && e.arg == e.ts &&
                       e.flow_id == static_cast<uint64_t>(7 * e.ts) && e.tid == e.ts % 5;
    bad += !whole || e.ts <= *last;
    *last = e.ts;
    ++kept;
  };
  while (!done.load(std::memory_order_acquire)) {
    SimTime last = -1;
    ring.ForEach([&](const TraceEvent& e) { check(e, &last); }, 16);
  }
  writer.join();
  EXPECT_EQ(bad, 0);
  // Once the writer is done, nothing is skipped: the newest 64 events.
  SimTime last = -1;
  const int64_t before = kept;
  ring.ForEach([&](const TraceEvent& e) { check(e, &last); });
  EXPECT_EQ(kept - before, 64);
  EXPECT_EQ(last, kEvents - 1);
  EXPECT_EQ(ring.dropped(), kEvents - 64);
}

TEST(Trace, ChromeExportHasRequiredKeysPerEvent) {
  TraceRing r0(16);
  TraceRing r1(16);
  r0.Begin("compute", 1000);
  r0.End("compute", 3000);
  r1.Instant("fault.detect", 2000, "suspects", 2);

  std::string json;
  AppendChromeTrace(&json, {&r0, &r1});

  // Array shape (allow trailing whitespace).
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.find_last_not_of(" \n\t")], ']');
  // Every event object carries the full required key set.
  const size_t objects = static_cast<size_t>(
      std::count(json.begin(), json.end(), '{'));
  for (const char* key : {"\"name\":", "\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":"}) {
    size_t hits = 0;
    for (size_t pos = json.find(key); pos != std::string::npos; pos = json.find(key, pos + 1)) {
      ++hits;
    }
    // args sub-objects don't carry event keys, so expect one hit per event
    // object at minimum (metadata + emitted events), never more than objects.
    EXPECT_GE(hits, 5u) << key;  // 2 thread_name metadata + 3 events
    EXPECT_LE(hits, objects) << key;
  }
  // Balanced brackets/braces.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  // Spans, instants, metadata and the arg payload all present.
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"suspects\":2"), std::string::npos);
  // Virtual ns exported as microseconds: 1000ns -> 1.000us.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
}

TEST(Trace, ChromeExportMergesRingsInTimeOrder) {
  TraceRing r0(8);
  TraceRing r1(8);
  r0.Instant("a", 100);
  r0.Instant("b", 5000);
  r1.Instant("c", 200);
  r1.Instant("d", 4000);

  std::string json;
  AppendChromeTrace(&json, {&r0, &r1});

  // Non-metadata events appear sorted by ts across rings.
  std::vector<size_t> positions;
  for (const char* name : {"\"a\"", "\"c\"", "\"d\"", "\"b\""}) {
    const size_t pos = json.find(name);
    ASSERT_NE(pos, std::string::npos) << name;
    positions.push_back(pos);
  }
  EXPECT_TRUE(std::is_sorted(positions.begin(), positions.end()));
  // tid distinguishes the rings.
  EXPECT_NE(json.find("\"tid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
}

TEST(Trace, EmptyRingsExportValidEmptyArrayPlusMetadata) {
  TraceRing r0(4);
  std::string json;
  AppendChromeTrace(&json, {&r0});
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.find_last_not_of(" \n\t")], ']');
  // Metadata naming the (empty) rank track is still emitted.
  EXPECT_NE(json.find("thread_name"), std::string::npos);
}

}  // namespace
}  // namespace malt
