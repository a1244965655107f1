// Tests for the simulated RDMA fabric: one-sided write semantics, timing,
// completions, failure and partition injection, traffic accounting.

#include "src/simnet/fabric.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/sim/engine.h"

namespace malt {
namespace {

FabricOptions TestOptions() {
  FabricOptions opts;
  opts.net.latency = 1000;                     // 1 us
  opts.net.bandwidth_bytes_per_sec = 1e9;      // 1 GB/s => 1 ns per byte
  opts.net.per_message_overhead = 0;
  return opts;
}

std::span<const std::byte> AsBytes(const void* p, size_t n) {
  return {static_cast<const std::byte*>(p), n};
}

// fabric.completions.<status> on `node`, the per-status completion counter.
int64_t Completions(const Fabric& fabric, int node, const char* status) {
  return fabric.telemetry().rank(node).metrics.CounterValue(
      std::string("fabric.completions.") + status);
}

TEST(Fabric, WriteLandsAtArrivalTime) {
  Engine engine;
  Fabric fabric(engine, 2, TestOptions());
  MrHandle mr = fabric.RegisterMemory(1, 64);

  SimTime seen_at = -1;
  engine.AddProcess("sender", [&](Process& p) {
    const uint64_t value = 0xdeadbeef;
    auto wr = fabric.PostWrite(0, p.now(), mr, 0, AsBytes(&value, sizeof(value)));
    ASSERT_TRUE(wr.ok());
  });
  engine.AddProcess("receiver", [&](Process& p) {
    p.WaitUntil([&] {
      uint64_t v;
      EXPECT_TRUE(fabric.Read(mr, 0, std::span<std::byte>(reinterpret_cast<std::byte*>(&v), 8)));
      return v == 0xdeadbeef;
    });
    seen_at = p.now();
  });
  engine.Run();
  // 8 bytes at 1 ns/byte + 1000 ns latency = 1008 ns.
  EXPECT_EQ(seen_at, 1008);
}

TEST(Fabric, CompletionArrivesAfterAck) {
  Engine engine;
  Fabric fabric(engine, 2, TestOptions());
  MrHandle mr = fabric.RegisterMemory(1, 64);

  engine.AddProcess("sender", [&](Process& p) {
    const uint32_t value = 7;
    auto wr = fabric.PostWrite(0, p.now(), mr, 0, AsBytes(&value, sizeof(value)));
    ASSERT_TRUE(wr.ok());
    EXPECT_EQ(fabric.OutstandingWrites(0), 1);
    p.WaitUntil([&] { return fabric.OutstandingWrites(0) == 0; });
    // serialization (4) + latency (1000) + ack latency (1000).
    EXPECT_EQ(p.now(), 2004);
    Completion c[4];
    ASSERT_EQ(fabric.PollCq(0, c), 1);
    EXPECT_EQ(c[0].status, WcStatus::kSuccess);
    EXPECT_EQ(c[0].dst, 1);
    EXPECT_EQ(c[0].wr_id, *wr);
    EXPECT_EQ(fabric.OutstandingWrites(0), 0);
    EXPECT_EQ(Completions(fabric, 0, "success"), 1);
    EXPECT_EQ(Completions(fabric, 0, "remote_dead"), 0);
  });
  engine.Run();
}

TEST(Fabric, BackToBackWritesSerializeAtNic) {
  Engine engine;
  Fabric fabric(engine, 2, TestOptions());
  MrHandle mr = fabric.RegisterMemory(1, 4096);

  engine.AddProcess("sender", [&](Process& p) {
    std::vector<std::byte> buf(1000);
    ASSERT_TRUE(fabric.PostWrite(0, p.now(), mr, 0, buf).ok());
    ASSERT_TRUE(fabric.PostWrite(0, p.now(), mr, 1000, buf).ok());
    p.WaitUntil([&] { return fabric.OutstandingWrites(0) == 0; });
    // First: departs 0, dma done 1000, ack at 3000.
    // Second: departs 1000 (NIC busy), dma done 2000, ack at 4000.
    EXPECT_EQ(p.now(), 4000);
  });
  engine.Run();
}

TEST(Fabric, SendQueueBackpressure) {
  Engine engine;
  FabricOptions opts = TestOptions();
  opts.send_queue_depth = 2;
  Fabric fabric(engine, 2, opts);
  MrHandle mr = fabric.RegisterMemory(1, 64);

  engine.AddProcess("sender", [&](Process& p) {
    std::byte b[8] = {};
    ASSERT_TRUE(fabric.PostWrite(0, p.now(), mr, 0, b).ok());
    ASSERT_TRUE(fabric.PostWrite(0, p.now(), mr, 8, b).ok());
    EXPECT_FALSE(fabric.HasSendRoom(0));
    auto wr = fabric.PostWrite(0, p.now(), mr, 16, b);
    EXPECT_FALSE(wr.ok());
    EXPECT_EQ(wr.status().code(), StatusCode::kResourceExhausted);
    p.WaitUntil([&] { return fabric.HasSendRoom(0); });
    EXPECT_TRUE(fabric.PostWrite(0, p.now(), mr, 16, b).ok());
  });
  engine.Run();
}

TEST(Fabric, WriteToKilledNodeErrorCompletion) {
  Engine engine;
  Fabric fabric(engine, 2, TestOptions());
  MrHandle mr = fabric.RegisterMemory(1, 64);

  engine.AddProcess("sender", [&](Process& p) {
    p.SleepUntil(10'000);  // after the victim dies
    std::byte b[8] = {};
    ASSERT_TRUE(fabric.PostWrite(0, p.now(), mr, 0, b).ok());
    p.WaitUntil([&] { return fabric.OutstandingWrites(0) == 0; });
    Completion c[1];
    ASSERT_EQ(fabric.PollCq(0, c), 1);
    EXPECT_EQ(c[0].status, WcStatus::kRemoteDead);
    EXPECT_EQ(Completions(fabric, 0, "remote_dead"), 1);
    EXPECT_EQ(Completions(fabric, 0, "success"), 0);
  });
  const int victim = engine.AddProcess("victim", [&](Process& p) { p.Advance(100'000); });
  engine.ScheduleKill(victim, 5'000);
  engine.Run();
  EXPECT_FALSE(fabric.NodeAlive(1));
}

TEST(Fabric, InFlightWriteToDyingNodeFails) {
  Engine engine;
  FabricOptions opts = TestOptions();
  opts.net.latency = 100'000;  // long flight so the kill lands mid-flight
  Fabric fabric(engine, 2, opts);
  MrHandle mr = fabric.RegisterMemory(1, 64);

  engine.AddProcess("sender", [&](Process& p) {
    std::byte b[8] = {};
    ASSERT_TRUE(fabric.PostWrite(0, p.now(), mr, 0, b).ok());
    p.WaitUntil([&] { return fabric.OutstandingWrites(0) == 0; });
    Completion c[1];
    ASSERT_EQ(fabric.PollCq(0, c), 1);
    EXPECT_EQ(c[0].status, WcStatus::kRemoteDead);
  });
  const int victim = engine.AddProcess("victim", [&](Process& p) { p.Advance(1'000'000); });
  engine.ScheduleKill(victim, 50'000);  // mid-flight (arrival ~100008)
  engine.Run();
}

TEST(Fabric, PartitionInjection) {
  Engine engine;
  Fabric fabric(engine, 2, TestOptions());
  MrHandle mr = fabric.RegisterMemory(1, 64);
  fabric.SetReachable(0, 1, false);

  engine.AddProcess("sender", [&](Process& p) {
    std::byte b[8] = {};
    ASSERT_TRUE(fabric.PostWrite(0, p.now(), mr, 0, b).ok());
    p.WaitUntil([&] { return fabric.OutstandingWrites(0) == 0; });
    Completion c[1];
    ASSERT_EQ(fabric.PollCq(0, c), 1);
    EXPECT_EQ(c[0].status, WcStatus::kUnreachable);
    EXPECT_EQ(Completions(fabric, 0, "unreachable"), 1);
    EXPECT_EQ(Completions(fabric, 0, "success"), 0);
  });
  engine.Run();
}

TEST(Fabric, OutOfBoundsWriteFails) {
  Engine engine;
  Fabric fabric(engine, 2, TestOptions());
  MrHandle mr = fabric.RegisterMemory(1, 16);

  engine.AddProcess("sender", [&](Process& p) {
    std::byte b[32] = {};
    ASSERT_TRUE(fabric.PostWrite(0, p.now(), mr, 0, b).ok());  // post succeeds
    p.WaitUntil([&] { return fabric.OutstandingWrites(0) == 0; });
    Completion c[1];
    ASSERT_EQ(fabric.PollCq(0, c), 1);
    EXPECT_EQ(c[0].status, WcStatus::kInvalidRkey);
    EXPECT_EQ(Completions(fabric, 0, "invalid_rkey"), 1);
    EXPECT_EQ(Completions(fabric, 0, "success"), 0);
  });
  engine.Run();
}

TEST(Fabric, TrafficAccounting) {
  Engine engine;
  Fabric fabric(engine, 3, TestOptions());
  MrHandle mr1 = fabric.RegisterMemory(1, 1024);
  MrHandle mr2 = fabric.RegisterMemory(2, 1024);

  engine.AddProcess("sender", [&](Process& p) {
    std::vector<std::byte> buf(100);
    ASSERT_TRUE(fabric.PostWrite(0, p.now(), mr1, 0, buf).ok());
    ASSERT_TRUE(fabric.PostWrite(0, p.now(), mr2, 0, buf).ok());
    ASSERT_TRUE(fabric.PostWrite(0, p.now(), mr2, 100, buf).ok());
    p.WaitUntil([&] { return fabric.OutstandingWrites(0) == 0; });
  });
  engine.Run();
  EXPECT_EQ(fabric.stats().TxBytes(0), 300);
  EXPECT_EQ(fabric.stats().RxBytes(1), 100);
  EXPECT_EQ(fabric.stats().RxBytes(2), 200);
  EXPECT_EQ(fabric.stats().TxMessages(0), 3);
  EXPECT_EQ(fabric.stats().TotalBytes(), 300);
  EXPECT_EQ(fabric.stats().TotalMessages(), 3);
}

TEST(Fabric, TornWritesApplyInTwoHalves) {
  Engine engine;
  FabricOptions opts = TestOptions();
  opts.torn_writes = true;
  Fabric fabric(engine, 2, opts);
  MrHandle mr = fabric.RegisterMemory(1, 64);

  bool saw_torn = false;
  engine.AddProcess("sender", [&](Process& p) {
    std::vector<std::byte> buf(32, std::byte{0xFF});
    ASSERT_TRUE(fabric.PostWrite(0, p.now(), mr, 0, buf).ok());
    p.Advance(1'000'000);
  });
  engine.AddProcess("receiver", [&](Process& p) {
    // Sample the region between first-half arrival and second-half arrival.
    for (int i = 0; i < 2000; ++i) {
      std::byte data[32];
      ASSERT_TRUE(fabric.Read(mr, 0, data));
      const bool first_half_set = data[0] == std::byte{0xFF};
      const bool second_half_set = data[31] == std::byte{0xFF};
      if (first_half_set && !second_half_set) {
        saw_torn = true;
      }
      p.Advance(1);
    }
  });
  engine.Run();
  EXPECT_TRUE(saw_torn);
}

// --- memory model: what a read returns after striped, unaligned, split and
// unstriped writes -------------------------------------------------------------

std::vector<std::byte> ReadBack(const Fabric& fabric, MrHandle mr, size_t offset, size_t n) {
  std::vector<std::byte> out(n);
  EXPECT_TRUE(fabric.Read(mr, offset, out));
  return out;
}

std::vector<std::byte> Fill(size_t n, uint8_t value) {
  return std::vector<std::byte>(n, std::byte{value});
}

// Posts `data` from node 0 and blocks `p` until its completion is in.
void PostAndWait(Fabric& fabric, Process& p, MrHandle mr, size_t offset,
                 std::span<const std::byte> data) {
  ASSERT_TRUE(fabric.PostWrite(0, p.now(), mr, offset, data).ok());
  p.WaitUntil([&] { return fabric.OutstandingWrites(0) == 0; });
  Completion c[1];
  ASSERT_EQ(fabric.PollCq(0, c), 1);
  ASSERT_EQ(c[0].status, WcStatus::kSuccess);
}

TEST(FabricMemory, ShorterWriteKeepsTheStripeTailThroughBufferRecycling) {
  // Two 64-byte stripes. Each stripe-aligned write lands by swapping in the
  // buffer its post filled; the buffer it replaced is recycled by the next
  // post. The bytes past a shorter write's end must be the stripe's bytes
  // at arrival, never stale bytes of a recycled buffer.
  Engine engine;
  Fabric fabric(engine, 2, TestOptions());
  const MrHandle mr = fabric.RegisterMemory(1, 128, 64);
  engine.AddProcess("sender", [&](Process& p) {
    PostAndWait(fabric, p, mr, 0, Fill(64, 0xAA));
    PostAndWait(fabric, p, mr, 0, Fill(16, 0xBB));
    // This post's buffer is the one the first write installed (all 0xAA),
    // so bytes 8..15 must come from the installed 0xBB, not from it.
    PostAndWait(fabric, p, mr, 0, Fill(8, 0xCC));
    std::vector<std::byte> want = Fill(64, 0xAA);
    std::fill(want.begin(), want.begin() + 16, std::byte{0xBB});
    std::fill(want.begin(), want.begin() + 8, std::byte{0xCC});
    EXPECT_EQ(ReadBack(fabric, mr, 0, 64), want);
    EXPECT_EQ(ReadBack(fabric, mr, 64, 64), Fill(64, 0x00));  // other stripe untouched

    // The tail is taken at arrival, not at post: a local write into it
    // while the post is in flight survives the apply.
    const auto head = Fill(8, 0xDD);
    ASSERT_TRUE(fabric.PostWrite(0, p.now(), mr, 0, head).ok());
    fabric.Write(mr, 32, Fill(8, 0xEE));
    p.WaitUntil([&] { return fabric.OutstandingWrites(0) == 0; });
    std::fill(want.begin(), want.begin() + 8, std::byte{0xDD});
    std::fill(want.begin() + 32, want.begin() + 40, std::byte{0xEE});
    EXPECT_EQ(ReadBack(fabric, mr, 0, 64), want);
  });
  engine.Run();
}

TEST(FabricMemory, ReadAcrossTwoStripesReturnsBoth) {
  Engine engine;
  Fabric fabric(engine, 2, TestOptions());
  const MrHandle mr = fabric.RegisterMemory(1, 128, 64);
  engine.AddProcess("sender", [&](Process& p) {
    PostAndWait(fabric, p, mr, 0, Fill(64, 0x11));
    PostAndWait(fabric, p, mr, 64, Fill(64, 0x22));
    std::vector<std::byte> want = Fill(16, 0x22);
    std::fill(want.begin(), want.begin() + 8, std::byte{0x11});
    EXPECT_EQ(ReadBack(fabric, mr, 56, 16), want);
    // Inside one stripe a snapshot is a view of the region; across two it is
    // assembled in the caller's scratch.
    std::byte scratch[16];
    EXPECT_NE(fabric.Snapshot(mr, 8, 16, scratch).data(), scratch);
    EXPECT_EQ(fabric.Snapshot(mr, 56, 16, scratch).data(), scratch);
  });
  engine.Run();
}

TEST(FabricMemory, CopyingAppliesReadBackExactly) {
  // The writes that do not land by swap: unaligned, crossing a stripe
  // boundary, into an unstriped region.
  Engine engine;
  Fabric fabric(engine, 2, TestOptions());
  const MrHandle striped = fabric.RegisterMemory(1, 128, 64);
  const MrHandle flat = fabric.RegisterMemory(1, 128);
  engine.AddProcess("sender", [&](Process& p) {
    PostAndWait(fabric, p, striped, 8, Fill(20, 0x33));
    PostAndWait(fabric, p, striped, 56, Fill(16, 0x44));
    std::vector<std::byte> want = Fill(128, 0x00);
    std::fill(want.begin() + 8, want.begin() + 28, std::byte{0x33});
    std::fill(want.begin() + 56, want.begin() + 72, std::byte{0x44});
    EXPECT_EQ(ReadBack(fabric, striped, 0, 64), std::vector(want.begin(), want.begin() + 64));
    EXPECT_EQ(ReadBack(fabric, striped, 64, 64), std::vector(want.begin() + 64, want.end()));

    PostAndWait(fabric, p, flat, 0, Fill(64, 0x55));
    PostAndWait(fabric, p, flat, 40, Fill(48, 0x66));
    want = Fill(128, 0x00);
    std::fill(want.begin(), want.begin() + 40, std::byte{0x55});
    std::fill(want.begin() + 40, want.begin() + 88, std::byte{0x66});
    EXPECT_EQ(ReadBack(fabric, flat, 0, 128), want);
  });
  engine.Run();
}

TEST(FabricMemory, SplitTornWriteIntoStripedRegionReadsBackExactly) {
  Engine engine;
  FabricOptions opts = TestOptions();
  opts.torn_writes = true;
  Fabric fabric(engine, 2, opts);
  const MrHandle mr = fabric.RegisterMemory(1, 128, 64);
  engine.AddProcess("sender", [&](Process& p) {
    ASSERT_TRUE(fabric.PostWrite(0, p.now(), mr, 0, Fill(64, 0x77)).ok());
    // First half lands at 64 + 1000 ns, the second one latency later.
    p.SleepUntil(1500);
    std::vector<std::byte> want = Fill(64, 0x00);
    std::fill(want.begin(), want.begin() + 32, std::byte{0x77});
    EXPECT_EQ(ReadBack(fabric, mr, 0, 64), want);
    p.SleepUntil(10'000);
    EXPECT_EQ(ReadBack(fabric, mr, 0, 64), Fill(64, 0x77));
  });
  engine.Run();
}

TEST(FabricMemory, SenderBufferReuseAfterPostDoesNotChangeWhatLands) {
  // The post is the DMA read: both the swap path (stripe-aligned) and the
  // copying path (unaligned) capture the payload before PostWrite returns.
  Engine engine;
  Fabric fabric(engine, 2, TestOptions());
  const MrHandle mr = fabric.RegisterMemory(1, 128, 64);
  engine.AddProcess("sender", [&](Process& p) {
    std::vector<std::byte> buf = Fill(32, 0x88);
    ASSERT_TRUE(fabric.PostWrite(0, p.now(), mr, 0, buf).ok());
    ASSERT_TRUE(fabric.PostWrite(0, p.now(), mr, 72, buf).ok());
    std::fill(buf.begin(), buf.end(), std::byte{0x99});
    p.WaitUntil([&] { return fabric.OutstandingWrites(0) == 0; });
    EXPECT_EQ(ReadBack(fabric, mr, 0, 32), Fill(32, 0x88));
    EXPECT_EQ(ReadBack(fabric, mr, 72, 32), Fill(32, 0x88));
  });
  engine.Run();
}

TEST(FabricMemory, ViewGenerationAdvancesOnEveryApply) {
  // A Snapshot view is valid until the region's next write; readers detect
  // that through ViewGeneration (Dstorm::Gather's consume check).
  Engine engine;
  Fabric fabric(engine, 2, TestOptions());
  const MrHandle mr = fabric.RegisterMemory(1, 128, 64);
  engine.AddProcess("sender", [&](Process& p) {
    const uint64_t g0 = fabric.ViewGeneration();
    PostAndWait(fabric, p, mr, 0, Fill(64, 0x01));
    const uint64_t g1 = fabric.ViewGeneration();
    EXPECT_GT(g1, g0);
    (void)ReadBack(fabric, mr, 0, 64);
    EXPECT_EQ(fabric.ViewGeneration(), g1);  // reads do not advance it
    fabric.Write(mr, 64, Fill(8, 0x02));
    EXPECT_GT(fabric.ViewGeneration(), g1);
  });
  engine.Run();
}

TEST(NetworkModel, SerializationDelayScalesWithBytes) {
  NetworkModel net;
  net.bandwidth_bytes_per_sec = 5e9;
  net.per_message_overhead = 300;
  EXPECT_EQ(net.SerializationDelay(0), 300);
  EXPECT_EQ(net.SerializationDelay(5000), 300 + 1000);
  // 40 Gbps: 1 MB takes ~200 us.
  EXPECT_NEAR(static_cast<double>(net.SerializationDelay(1'000'000) - 300), 200'000.0, 1.0);
}

}  // namespace
}  // namespace malt
