// ShmemTransport tests: one-sided writes land as real memcpys with inline
// completions, dead peers produce error completions, bad handles produce
// kInvalidRkey, striped seqlock guards detect torn reads under a racing
// writer, TrafficStats aggregates across the matrix, and every telemetry
// cell stays exact under concurrent senders. Threaded cases run
// clean under TSan (tools/check.sh MALT_SANITIZE=thread stage).

#include "src/shmem/shmem_transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace malt {
namespace {

std::span<const std::byte> AsBytes(const void* p, size_t n) {
  return {static_cast<const std::byte*>(p), n};
}

// fabric.completions.<status> on `node`, the per-status completion counter.
int64_t Completions(const ShmemTransport& t, int node, const char* status) {
  return t.telemetry().rank(node).metrics.CounterValue(std::string("fabric.completions.") +
                                                       status);
}

TEST(ShmemTransport, WriteLandsWithCompletionAndStats) {
  ShmemTransport t(2);
  const MrHandle mr = t.RegisterMemory(1, 64);

  const double value = 42.5;
  auto wr = t.PostWrite(0, t.now(), mr, 8, AsBytes(&value, sizeof(value)));
  ASSERT_TRUE(wr.ok());

  // The payload is visible in the peer's region immediately (inline apply).
  double landed = 0.0;
  ASSERT_TRUE(t.Read(mr, 8, std::span<std::byte>(reinterpret_cast<std::byte*>(&landed), 8)));
  EXPECT_EQ(landed, value);

  // The sender's CQ holds exactly one success completion for that wr_id.
  Completion c[4];
  ASSERT_EQ(t.PollCq(0, c), 1);
  EXPECT_EQ(c[0].wr_id, *wr);
  EXPECT_EQ(c[0].dst, 1);
  EXPECT_EQ(c[0].status, WcStatus::kSuccess);
  EXPECT_EQ(t.PollCq(0, c), 0);
  EXPECT_EQ(Completions(t, 0, "success"), 1);
  EXPECT_EQ(Completions(t, 0, "invalid_rkey"), 0);

  EXPECT_EQ(t.stats().TxBytes(0), static_cast<int64_t>(sizeof(value)));
  EXPECT_EQ(t.stats().RxBytes(1), static_cast<int64_t>(sizeof(value)));
  EXPECT_EQ(t.stats().TxMessages(0), 1);
}

TEST(ShmemTransport, DeadNodeWriteCompletesRemoteDead) {
  ShmemTransport t(2);
  const MrHandle mr = t.RegisterMemory(1, 32);
  t.MarkDead(1);
  EXPECT_FALSE(t.NodeAlive(1));

  const uint32_t v = 7;
  auto wr = t.PostWrite(0, t.now(), mr, 0, AsBytes(&v, sizeof(v)));
  ASSERT_TRUE(wr.ok());
  Completion c[1];
  ASSERT_EQ(t.PollCq(0, c), 1);
  EXPECT_EQ(c[0].status, WcStatus::kRemoteDead);
  EXPECT_EQ(Completions(t, 0, "remote_dead"), 1);
  EXPECT_EQ(Completions(t, 0, "success"), 0);
}

TEST(ShmemTransport, OutOfBoundsWriteCompletesInvalidRkey) {
  ShmemTransport t(2);
  const MrHandle mr = t.RegisterMemory(1, 16);
  const uint64_t v = 1;
  auto wr = t.PostWrite(0, t.now(), mr, 12, AsBytes(&v, sizeof(v)));
  ASSERT_TRUE(wr.ok());
  Completion c[1];
  ASSERT_EQ(t.PollCq(0, c), 1);
  EXPECT_EQ(c[0].status, WcStatus::kInvalidRkey);
  EXPECT_EQ(Completions(t, 0, "invalid_rkey"), 1);
  EXPECT_EQ(Completions(t, 0, "success"), 0);
}

TEST(ShmemTransport, DeregisteredRegionRejectsWrites) {
  ShmemTransport t(2);
  const MrHandle mr = t.RegisterMemory(1, 16);
  t.DeregisterMemory(mr);
  const uint32_t v = 3;
  ASSERT_TRUE(t.PostWrite(0, t.now(), mr, 0, AsBytes(&v, sizeof(v))).ok());
  Completion c[1];
  ASSERT_EQ(t.PollCq(0, c), 1);
  EXPECT_EQ(c[0].status, WcStatus::kInvalidRkey);
}

// A reader racing a striped writer either gets a fully consistent snapshot
// or a torn-read failure — never a mixed payload. The reader makes at least
// 20,000 attempts and then keeps reading until it has seen a consistent
// snapshot or a 10 s wall deadline passes, so a writer that wins every race
// for a while under CPU load is not mistaken for a broken guard.
TEST(ShmemTransport, StripedGuardsDetectTornReads) {
  const size_t slot = 64;
  ShmemTransport t(2);
  const MrHandle mr = t.RegisterMemory(1, slot, /*guard_stripe_bytes=*/slot);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::vector<std::byte> pattern(slot);
    Completion cq[4];
    for (uint64_t round = 1; !stop.load(std::memory_order_relaxed); ++round) {
      std::memset(pattern.data(), static_cast<int>(round & 0xff), slot);
      ASSERT_TRUE(t.PostWrite(0, t.now(), mr, 0, pattern).ok());
      ASSERT_EQ(t.PollCq(0, cq), 1);  // the writer drains its own CQ, like dstorm
    }
  });

  int consistent = 0;
  std::vector<std::byte> snap(slot);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (int i = 0; (i < 20000 || consistent == 0) && std::chrono::steady_clock::now() < deadline;
       ++i) {
    if (!t.Read(mr, 0, snap)) {
      continue;  // torn: write in flight — the defined failure mode
    }
    ++consistent;
    for (size_t b = 1; b < slot; ++b) {
      ASSERT_EQ(snap[b], snap[0]) << "torn snapshot escaped the guard";
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(consistent, 0) << "reader never saw a stable snapshot in 10 s";
}

// The same guard at an SVM slot's size, where a guarded store is one bulk
// copy whose bytes may land in any order: one writer alternates two uniform
// 188,608-byte images into a single stripe while two readers snapshot the
// whole stripe. Every accepted snapshot must be exactly one image. The
// writer pauses between posts so readers get stable windows; each reader
// stops at 1000 accepted snapshots or after a 10 s wall deadline.
TEST(ShmemTransport, SlotSizedBulkCopyNeverTearsAcceptedReads) {
  const size_t slot = 188608;
  constexpr int kReaders = 2;
  constexpr int kWantAccepted = 1000;
  ShmemTransport t(2);
  const MrHandle mr = t.RegisterMemory(1, slot, /*guard_stripe_bytes=*/slot);
  const std::vector<std::byte> image_a(slot, std::byte{0xa5});
  const std::vector<std::byte> image_b(slot, std::byte{0x5a});
  ASSERT_TRUE(t.PostWrite(0, t.now(), mr, 0, image_a).ok());
  Completion cq[4];
  ASSERT_EQ(t.PollCq(0, cq), 1);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Completion wc[4];
    for (uint64_t round = 1; !stop.load(std::memory_order_relaxed); ++round) {
      ASSERT_TRUE(t.PostWrite(0, t.now(), mr, 0, (round & 1) ? image_b : image_a).ok());
      ASSERT_EQ(t.PollCq(0, wc), 1);
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });

  std::atomic<int> torn{0};
  int accepted[kReaders] = {};
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::vector<std::byte> snap(slot);
      while (accepted[r] < kWantAccepted && std::chrono::steady_clock::now() < deadline) {
        if (!t.Read(mr, 0, snap)) {
          continue;  // write in flight: the defined failure mode
        }
        ++accepted[r];
        // memcmp, not vector ==: it keeps the check fast under TSan.
        if (std::memcmp(snap.data(), image_a.data(), slot) != 0 &&
            std::memcmp(snap.data(), image_b.data(), slot) != 0) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& reader : readers) {
    reader.join();
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(torn.load(), 0) << "a torn snapshot escaped the guard";
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_GT(accepted[r], 0) << "reader " << r << " never saw a stable snapshot in 10 s";
  }
}

// Satellite: TrafficStats aggregate accessors cover the whole matrix.
TEST(ShmemTransport, TrafficStatsTotalsAggregateAllPairs) {
  const int n = 3;
  ShmemTransport t(n);
  MrHandle mr[n];
  for (int node = 0; node < n; ++node) {
    mr[node] = t.RegisterMemory(node, 64);
  }
  const uint64_t payload = 0xabcdef;
  int64_t expect_bytes = 0;
  int64_t expect_msgs = 0;
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      if (src == dst) {
        continue;
      }
      ASSERT_TRUE(t.PostWrite(src, t.now(), mr[dst], 0, AsBytes(&payload, sizeof(payload)))
                      .ok());
      expect_bytes += sizeof(payload);
      ++expect_msgs;
    }
  }
  EXPECT_EQ(t.stats().TotalBytes(), expect_bytes);
  EXPECT_EQ(t.stats().TotalMessages(), expect_msgs);
  EXPECT_EQ(t.stats().TxBytes(0), int64_t{2} * sizeof(payload));
  EXPECT_EQ(t.stats().RxBytes(2), int64_t{2} * sizeof(payload));
}

// Every telemetry cell a post bumps has one writer, the sender's thread
// (DESIGN.md §8). With all 4 nodes posting to every peer at once, each
// fabric.* and comm.edge.* cell, the write_bytes histogram, the apply events
// in each sender's trace ring and every TrafficStats total must come out
// exact: a cell two senders bump would lose counts to the race.
TEST(ShmemTransport, ConcurrentPostsKeepEveryCellExact) {
  constexpr int kNodes = 4;
  constexpr int64_t kWritesPerPeer = 20000;
  constexpr int64_t kPeers = kNodes - 1;
  ShmemTransport t(kNodes);
  MrHandle mr[kNodes];
  for (int node = 0; node < kNodes; ++node) {
    mr[node] = t.RegisterMemory(node, 32 * kNodes);
  }
  // Sender `src` writes 8 * (src + 1) bytes into its own 32-byte window.
  auto bytes_of = [](int src) { return int64_t{8} * (src + 1); };

  std::vector<std::thread> senders;
  for (int src = 0; src < kNodes; ++src) {
    senders.emplace_back([&, src] {
      const std::vector<std::byte> payload(static_cast<size_t>(bytes_of(src)), std::byte{1});
      Completion c[4];
      for (int64_t k = 0; k < kWritesPerPeer; ++k) {
        for (int dst = 0; dst < kNodes; ++dst) {
          if (dst == src) {
            continue;
          }
          const WireTrace trace{MakeFlowId(src, dst, mr[dst].rkey, static_cast<uint64_t>(k + 1)),
                                static_cast<uint32_t>(k), t.now()};
          ASSERT_TRUE(t.PostWrite(src, t.now(), mr[dst], static_cast<size_t>(32 * src), payload,
                                  trace)
                          .ok());
          ASSERT_EQ(t.PollCq(src, c), 1);
        }
      }
    });
  }
  for (std::thread& s : senders) {
    s.join();
  }

  int64_t total_bytes = 0;
  for (int src = 0; src < kNodes; ++src) {
    const MetricRegistry& reg = t.telemetry().rank(src).metrics;
    const int64_t posts = kPeers * kWritesPerPeer;
    const int64_t sent = posts * bytes_of(src);
    EXPECT_EQ(reg.CounterValue("fabric.writes_posted"), posts) << src;
    EXPECT_EQ(reg.CounterValue("fabric.bytes_sent"), sent) << src;
    EXPECT_EQ(Completions(t, src, "success"), posts) << src;
    const HistogramMetric* write_bytes = reg.FindHistogram("fabric.write_bytes");
    ASSERT_NE(write_bytes, nullptr);
    EXPECT_EQ(write_bytes->count(), posts) << src;
    EXPECT_EQ(write_bytes->sum(), static_cast<double>(sent)) << src;
    // Two apply events (the slice and its flow step) per traced write.
    const TraceRing& ring = t.telemetry().rank(src).trace;
    EXPECT_EQ(static_cast<int64_t>(ring.size()) + ring.dropped(), 2 * posts) << src;
    EXPECT_EQ(t.stats().TxBytes(src), sent) << src;
    EXPECT_EQ(t.stats().TxMessages(src), posts) << src;
    total_bytes += sent;

    const int dst = src;  // the edges into this node live in its registry
    int64_t received = 0;
    for (int from = 0; from < kNodes; ++from) {
      if (from == dst) {
        continue;
      }
      EXPECT_EQ(reg.CounterValue(EdgeMetricName(from, dst, "bytes")),
                kWritesPerPeer * bytes_of(from));
      EXPECT_EQ(reg.CounterValue(EdgeMetricName(from, dst, "msgs")), kWritesPerPeer);
      const HistogramMetric* delivery = reg.FindHistogram(EdgeMetricName(from, dst, "delivery_ns"));
      ASSERT_NE(delivery, nullptr);
      EXPECT_EQ(delivery->count(), kWritesPerPeer);
      received += kWritesPerPeer * bytes_of(from);
    }
    EXPECT_EQ(t.stats().RxBytes(dst), received) << dst;
  }
  EXPECT_EQ(t.stats().TotalBytes(), total_bytes);
  EXPECT_EQ(t.stats().TotalMessages(), kNodes * kPeers * kWritesPerPeer);
}

TEST(ShmemTransportDeathTest, RegionIndexOverflowAbortsAtRegistration) {
  // Lookups are one load from a fixed-capacity per-node index, so a node
  // cannot hold more regions than the index; the overflow aborts when it is
  // registered, not on a later lookup.
  ShmemTransport t(2);
  for (size_t i = 0; i < ShmemTransport::kMaxRegionsPerNode; ++i) {
    ASSERT_EQ(t.RegisterMemory(1, 8).rkey, i);
  }
  EXPECT_DEATH((void)t.RegisterMemory(1, 8), "region index full on node 1");
  // The other node's index is untouched, and the last entry still resolves.
  EXPECT_EQ(t.RegisterMemory(0, 8).rkey, 0u);
  const uint64_t v = 9;
  const MrHandle last{1, static_cast<uint32_t>(ShmemTransport::kMaxRegionsPerNode - 1)};
  t.Write(last, 0, AsBytes(&v, sizeof(v)));
  uint64_t back = 0;
  ASSERT_TRUE(t.Read(last, 0, std::span<std::byte>(reinterpret_cast<std::byte*>(&back), 8)));
  EXPECT_EQ(back, v);
  // A handle past the index names nothing.
  const MrHandle beyond{1, static_cast<uint32_t>(ShmemTransport::kMaxRegionsPerNode)};
  auto wr = t.PostWrite(0, t.now(), beyond, 0, AsBytes(&v, sizeof(v)));
  ASSERT_TRUE(wr.ok());
  Completion c[1];
  ASSERT_EQ(t.PollCq(0, c), 1);
  EXPECT_EQ(c[0].status, WcStatus::kInvalidRkey);
}

}  // namespace
}  // namespace malt
