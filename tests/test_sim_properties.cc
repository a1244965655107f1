// Property/stress tests for the simulator: clock monotonicity, causality of
// one-sided writes, schedule determinism under random workloads, and
// survival of dense barrier/scatter storms.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/check/check.h"
#include "src/comm/graph.h"
#include "tests/sim_cluster.h"

namespace malt {
namespace {

class RandomWorkloadSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomWorkloadSweep, ClocksMonotoneAndDeterministic) {
  const uint64_t seed = GetParam();

  auto run_once = [seed] {
    Engine engine;
    Fnv1a hash;
    const int procs = 6;
    for (int pid = 0; pid < procs; ++pid) {
      std::string name = "p";
      name += std::to_string(pid);
      engine.AddProcess(std::move(name), [pid, seed, &hash](Process& p) {
        Xoshiro256 rng(seed * 1000 + static_cast<uint64_t>(pid));
        SimTime last = p.now();
        for (int step = 0; step < 200; ++step) {
          const uint64_t action = rng.NextBounded(3);
          if (action == 0) {
            p.Advance(static_cast<SimDuration>(rng.NextBounded(5000)));
          } else if (action == 1) {
            p.Yield();
          } else {
            (void)p.WaitUntilOr([] { return false; },
                                p.now() + static_cast<SimTime>(1 + rng.NextBounded(2000)));
          }
          ASSERT_GE(p.now(), last) << "clock went backwards on pid " << pid;
          last = p.now();
          hash.MixI64(p.now());
          hash.MixU64(static_cast<uint64_t>(pid));
        }
      });
    }
    engine.Run();
    return hash.digest();
  };

  EXPECT_EQ(run_once(), run_once()) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkloadSweep, ::testing::Values(1, 2, 3, 17, 99));

TEST(SimProperties, WritesNeverArriveBeforePostTime) {
  // Causality: a value written at virtual time T must not be observable at
  // a virtual time < T + latency.
  Engine engine;
  Fabric fabric(engine, 2, FastNet());
  MrHandle mr = fabric.RegisterMemory(1, 8);
  std::vector<std::pair<SimTime, SimTime>> post_and_seen;  // (post, first seen)

  engine.AddProcess("sender", [&](Process& p) {
    Xoshiro256 rng(5);
    for (int i = 1; i <= 50; ++i) {
      p.Advance(static_cast<SimDuration>(rng.NextBounded(5000)));
      const uint64_t value = static_cast<uint64_t>(i);
      p.WaitUntil([&] { return fabric.HasSendRoom(0); });
      ASSERT_TRUE(fabric
                      .PostWrite(0, p.now(), mr, 0,
                                 std::span<const std::byte>(
                                     reinterpret_cast<const std::byte*>(&value), 8))
                      .ok());
      post_and_seen.push_back({p.now(), -1});
    }
  });
  engine.AddProcess("receiver", [&](Process& p) {
    uint64_t last_seen = 0;
    while (last_seen < 50) {
      p.Advance(200);
      uint64_t value;
      ASSERT_TRUE(
          fabric.Read(mr, 0, std::span<std::byte>(reinterpret_cast<std::byte*>(&value), 8)));
      if (value != last_seen) {
        ASSERT_EQ(value, last_seen + 1) << "writes reordered";
        last_seen = value;
        post_and_seen[static_cast<size_t>(value - 1)].second = p.now();
      }
    }
  });
  engine.Run();
  for (const auto& [post, seen] : post_and_seen) {
    ASSERT_GE(seen, post + 1000) << "observed before arrival time";
  }
}

TEST(SimProperties, BarrierStormNoDeadlock) {
  // 12 ranks hammer barriers with uneven compute between them.
  ProtocolChecker checker(CheckLevel::kCheap, 12);
  SimCluster cluster(12, FastNet(), &checker);
  int completed = 0;
  cluster.Run([&](int rank, Dstorm& d, Process& p) {
    Xoshiro256 rng(static_cast<uint64_t>(rank) + 1);
    for (int round = 0; round < 100; ++round) {
      p.Advance(static_cast<SimDuration>(rng.NextBounded(3000)));
      ASSERT_TRUE(d.Barrier().ok());
    }
    ++completed;
  });
  EXPECT_EQ(completed, 12);
  EXPECT_GT(checker.events_checked(), 0);
  EXPECT_EQ(checker.violation_count(), 0) << checker.ReportJson();
}

TEST(SimProperties, ScatterStormDeliversFreshest) {
  // Async senders lap a slow receiver thousands of times; the receiver must
  // always observe consistent objects with non-decreasing iteration stamps.
  ProtocolChecker checker(CheckLevel::kFull, 3);
  SimCluster cluster(3, FastNet(), &checker);
  bool receiver_ok = true;

  cluster.Run([&](int rank, Dstorm& d, Process& p) {
    SegmentOptions opts;
    opts.obj_bytes = 64;
    opts.graph = AllToAllGraph(3);
    opts.queue_depth = 2;
    const SegmentId seg = d.CreateSegment(opts);
    if (rank != 0) {
      std::vector<std::byte> payload(64);
      for (uint32_t iter = 1; iter <= 500; ++iter) {
        std::memset(payload.data(), static_cast<int>(iter & 0xFF), payload.size());
        (void)d.Scatter(seg, payload, iter);
        p.Advance(100);
      }
      (void)d.Flush();
      return;
    }
    std::vector<uint32_t> last_iter(3, 0);
    for (int poll = 0; poll < 200; ++poll) {
      p.Advance(997);  // slower than the senders
      d.Gather(seg, [&](const RecvObject& obj) {
        // Payload must be internally consistent with the stamp.
        const auto expected = static_cast<std::byte>(obj.iter & 0xFF);
        for (std::byte b : obj.bytes) {
          if (b != expected) {
            receiver_ok = false;
          }
        }
        if (obj.iter < last_iter[static_cast<size_t>(obj.sender)]) {
          receiver_ok = false;  // stale delivered after fresh
        }
        last_iter[static_cast<size_t>(obj.sender)] = obj.iter;
      });
    }
  });
  EXPECT_TRUE(receiver_ok);
  EXPECT_GT(checker.events_checked(), 0);
  EXPECT_EQ(checker.violation_count(), 0) << checker.ReportJson();
}

TEST(SimProperties, LostUpdatesAccountedUnderOverrun) {
  ProtocolChecker checker(CheckLevel::kCheap, 2);
  SimCluster cluster(2, FastNet(), &checker);
  int consumed = 0;
  const int kSent = 100;

  cluster.Run([&](int rank, Dstorm& d, Process&) {
    SegmentOptions opts;
    opts.obj_bytes = 8;
    opts.graph = RingGraph(2);
    opts.queue_depth = 2;
    const SegmentId seg = d.CreateSegment(opts);
    if (rank == 0) {
      std::byte payload[8] = {};
      for (uint32_t iter = 1; iter <= kSent; ++iter) {
        (void)d.Scatter(seg, payload, iter);
        (void)d.Flush();
      }
      (void)d.Barrier();
    } else {
      (void)d.Barrier();
      consumed += d.Gather(seg, [](const RecvObject&) {});
    }
  });
  const int64_t lost =
      cluster.fabric.telemetry().rank(1).metrics.CounterValue("dstorm.overwrites_on_full");
  // Conservation: everything sent was either consumed or counted as lost.
  EXPECT_EQ(consumed + lost, kSent);
  EXPECT_GT(lost, 0);
  EXPECT_EQ(checker.violation_count(), 0) << checker.ReportJson();
}

}  // namespace
}  // namespace malt
