// Tests for the simulated RDMA fabric: one-sided write semantics, timing,
// completions, failure and partition injection, traffic accounting.

#include "src/simnet/fabric.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

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
      std::memcpy(&v, fabric.Data(mr).data(), sizeof(v));
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
      auto data = fabric.Data(mr);
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
