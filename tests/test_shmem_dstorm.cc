// dstorm over the shared-memory transport: ranks are real concurrent
// threads, so these tests exercise the same protocol as test_dstorm.cc under
// genuine preemption — all-to-all scatter/gather delivery, the barrier
// invariant, and fail-stop detection via probes.
// Runs clean under TSan (tools/check.sh MALT_SANITIZE=thread stage).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "src/comm/graph.h"
#include "src/dstorm/dstorm.h"
#include "src/shmem/rank_ctx.h"
#include "src/shmem/shmem_transport.h"

namespace malt {
namespace {

std::span<const std::byte> AsBytes(const void* p, size_t n) {
  return {static_cast<const std::byte*>(p), n};
}

// Threaded harness: runs `body(rank, dstorm, ctx)` on every rank as a real
// OS thread bound to a ShmemRankCtx. A rank that unwinds on ProcessKilled is
// marked dead on the transport (as the runtime's RunShmem does).
struct ShmemCluster {
  explicit ShmemCluster(int n) : transport(n), domain(transport, n) {}

  void Run(const std::function<void(int, Dstorm&, ShmemRankCtx&)>& body) {
    const int n = domain.size();
    std::vector<std::unique_ptr<ShmemRankCtx>> ctxs;
    for (int rank = 0; rank < n; ++rank) {
      ctxs.push_back(std::make_unique<ShmemRankCtx>(rank, transport.clock()));
    }
    std::vector<std::thread> threads;
    for (int rank = 0; rank < n; ++rank) {
      threads.emplace_back([this, rank, &body, &ctxs] {
        Dstorm& d = domain.node(rank);
        d.BindCtx(*ctxs[static_cast<size_t>(rank)]);
        try {
          body(rank, d, *ctxs[static_cast<size_t>(rank)]);
          d.FinishBarriers();
        } catch (const ProcessKilled&) {
          transport.MarkDead(rank);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  }

  ShmemTransport transport;
  DstormDomain domain;
};

TEST(ShmemDstorm, ScatterGatherAllToAll) {
  const int n = 4;
  ShmemCluster cluster(n);
  std::vector<std::map<int, double>> received(n);  // [rank][sender] -> value

  cluster.Run([&](int rank, Dstorm& d, ShmemRankCtx& ctx) {
    SegmentOptions opts;
    opts.obj_bytes = sizeof(double);
    opts.graph = AllToAllGraph(n);
    opts.queue_depth = 2;
    const SegmentId seg = d.CreateSegment(opts);

    const double mine = 10.0 + rank;
    ASSERT_TRUE(d.Scatter(seg, AsBytes(&mine, sizeof(mine)), 1).ok());
    ASSERT_TRUE(d.Barrier().ok());

    // After the barrier every peer's write has landed; gather until all
    // n-1 arrive (a peer's write may still be mid-copy only *before* its
    // barrier arrival, never after).
    std::map<int, double>& mine_rx = received[static_cast<size_t>(rank)];
    ctx.Wait([&] {
      d.Gather(seg, [&](const RecvObject& obj) {
        double v = 0.0;
        ASSERT_EQ(obj.bytes.size(), sizeof(v));
        std::memcpy(&v, obj.bytes.data(), sizeof(v));
        mine_rx[obj.sender] = v;
      });
      return mine_rx.size() == static_cast<size_t>(n - 1);
    });
    ASSERT_TRUE(d.Barrier().ok());
  });

  for (int rank = 0; rank < n; ++rank) {
    ASSERT_EQ(received[static_cast<size_t>(rank)].size(), static_cast<size_t>(n - 1));
    for (const auto& [sender, value] : received[static_cast<size_t>(rank)]) {
      EXPECT_EQ(value, 10.0 + sender);
      EXPECT_NE(sender, rank);
    }
  }
}

// Many racing rounds: every consumed object must be internally consistent
// (the payload pattern matches its sender stamp) even while senders
// continuously overwrite slots. This is the atomic-gather property under
// real concurrency.
TEST(ShmemDstorm, RacingRoundsNeverYieldTornObjects) {
  const int n = 4;
  const int rounds = 100;
  const size_t dim = 16;
  ShmemCluster cluster(n);
  std::vector<int64_t> consumed(n, 0);

  cluster.Run([&](int rank, Dstorm& d, ShmemRankCtx&) {
    SegmentOptions opts;
    opts.obj_bytes = dim * sizeof(float);
    opts.graph = AllToAllGraph(n);
    opts.queue_depth = 2;
    const SegmentId seg = d.CreateSegment(opts);

    std::vector<float> payload(dim);
    for (int r = 1; r <= rounds; ++r) {
      const float stamp = static_cast<float>(rank * 1000 + r);
      for (size_t i = 0; i < dim; ++i) {
        payload[i] = stamp + static_cast<float>(i);
      }
      ASSERT_TRUE(
          d.Scatter(seg, AsBytes(payload.data(), dim * sizeof(float)),
                    static_cast<uint32_t>(r))
              .ok());
      consumed[static_cast<size_t>(rank)] += d.Gather(seg, [&](const RecvObject& obj) {
        ASSERT_EQ(obj.bytes.size(), dim * sizeof(float));
        float got[dim];
        std::memcpy(got, obj.bytes.data(), sizeof(got));
        // got[0] encodes sender*1000+round; every element must agree.
        for (size_t i = 1; i < dim; ++i) {
          ASSERT_EQ(got[i], got[0] + static_cast<float>(i)) << "torn object consumed";
        }
        EXPECT_EQ(static_cast<int>(got[0]) / 1000, obj.sender);
      });
    }
    // A fast rank can race through every round before its peers scatter at
    // all; after this barrier each peer's newest update has landed, so a
    // final gather guarantees everyone consumes something.
    ASSERT_TRUE(d.Barrier().ok());
    consumed[static_cast<size_t>(rank)] += d.Gather(seg, [](const RecvObject&) {});
  });
  for (int rank = 0; rank < n; ++rank) {
    EXPECT_GT(consumed[static_cast<size_t>(rank)], 0) << "rank " << rank;
  }
}

// Barrier invariant: no rank exits round k before every rank has entered
// round k. Checked by a shared epoch counter.
TEST(ShmemDstorm, GatherCopiesOnlyFreshSlots) {
  // The shmem twin of Dstorm.GatherCopiesOnlyFreshSlots: here a gather
  // copies each fresh slot's header + payload + back stamp out of the
  // receive region under its stripe guard (16 + 64 + 8 = 88 bytes), and a
  // stale slot, decided from the header, costs no copy.
  ShmemCluster cluster(2);
  const MetricRegistry& metrics = cluster.transport.telemetry().rank(1).metrics;
  int first = -1;
  int second = -1;
  int64_t copied_first = -1;
  int64_t copied_second = -1;
  cluster.Run([&](int rank, Dstorm& d, ShmemRankCtx&) {
    SegmentOptions opts;
    opts.obj_bytes = 64;
    opts.graph = RingGraph(2);
    opts.queue_depth = 4;
    const SegmentId seg = d.CreateSegment(opts);
    if (rank == 0) {
      std::vector<std::byte> payload(64, std::byte{0x3C});
      ASSERT_TRUE(d.Scatter(seg, payload, 1).ok());
      ASSERT_TRUE(d.Barrier().ok());
      return;
    }
    ASSERT_TRUE(d.Barrier().ok());
    first = d.Gather(seg, [](const RecvObject&) {});
    copied_first = metrics.CounterValue("dstorm.gather_bytes_copied");
    second = d.Gather(seg, [](const RecvObject&) {});
    copied_second = metrics.CounterValue("dstorm.gather_bytes_copied") - copied_first;
  });
  EXPECT_EQ(first, 1);
  EXPECT_EQ(copied_first, 16 + 64 + 8);
  EXPECT_EQ(second, 0);
  EXPECT_EQ(copied_second, 0);
}

TEST(ShmemDstorm, BarrierSeparatesRounds) {
  const int n = 4;
  const int rounds = 25;
  ShmemCluster cluster(n);
  std::vector<std::atomic<int>> entered(rounds);

  cluster.Run([&](int, Dstorm& d, ShmemRankCtx&) {
    SegmentOptions opts;
    opts.obj_bytes = 8;
    opts.graph = AllToAllGraph(n);
    const SegmentId seg = d.CreateSegment(opts);
    (void)seg;
    for (int r = 0; r < rounds; ++r) {
      entered[static_cast<size_t>(r)].fetch_add(1, std::memory_order_acq_rel);
      ASSERT_TRUE(d.Barrier().ok());
      EXPECT_EQ(entered[static_cast<size_t>(r)].load(std::memory_order_acquire), n)
          << "exited barrier round " << r << " early";
    }
  });
}

// Fail-stop: a killed rank is observed through failed probes; survivors
// remove it and finish their barrier among themselves.
TEST(ShmemDstorm, KilledRankIsDetectedAndRemoved) {
  const int n = 3;
  const int victim = 1;
  ShmemCluster cluster(n);
  std::vector<char> survived(n, 0);

  cluster.Run([&](int rank, Dstorm& d, ShmemRankCtx& ctx) {
    SegmentOptions opts;
    opts.obj_bytes = 8;
    opts.graph = AllToAllGraph(n);
    (void)d.CreateSegment(opts);
    ASSERT_TRUE(d.Barrier().ok());

    if (rank == victim) {
      ctx.KillSelf();  // throws; harness marks us dead on the transport
    }
    // Survivors: wait until the victim is actually marked dead, then probe,
    // remove, and re-synchronize among the remaining group.
    ctx.Wait([&] { return !d.transport().NodeAlive(victim); });
    EXPECT_FALSE(d.ProbePeer(victim));
    d.RemoveFromGroup(victim);
    EXPECT_TRUE(d.Barrier(FromSeconds(5.0)).ok());
    survived[static_cast<size_t>(rank)] = 1;
  });

  EXPECT_EQ(survived[0], 1);
  EXPECT_EQ(survived[victim], 0);
  EXPECT_EQ(survived[2], 1);
}

}  // namespace
}  // namespace malt
