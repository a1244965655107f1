// dstorm tests: collective segment creation, scatter/gather delivery over
// various dataflow graphs, overwrite-on-full, torn-write protection,
// per-sender freshness, copy accounting, bad segment ids, barrier, and
// group-membership changes.

#include "src/dstorm/dstorm.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "src/comm/graph.h"
#include "tests/sim_cluster.h"

namespace malt {
namespace {

std::span<const std::byte> AsBytes(const void* p, size_t n) {
  return {static_cast<const std::byte*>(p), n};
}

TEST(Dstorm, ScatterGatherAllToAll) {
  const int n = 4;
  SimCluster cluster(n);
  std::vector<std::map<int, double>> received(n);  // [rank][sender] -> value

  cluster.Run([&](int rank, Dstorm& d, Process& p) {
    SegmentOptions opts;
    opts.obj_bytes = sizeof(double);
    opts.graph = AllToAllGraph(n);
    const SegmentId seg = d.CreateSegment(opts);

    const double mine = 100.0 + rank;
    ASSERT_TRUE(d.Scatter(seg, AsBytes(&mine, sizeof(mine)), 1).ok());
    ASSERT_TRUE(d.Flush().ok());
    ASSERT_TRUE(d.Barrier().ok());  // everyone's writes have landed

    d.Gather(seg, [&](const RecvObject& obj) {
      double v;
      ASSERT_EQ(obj.bytes.size(), sizeof(v));
      std::memcpy(&v, obj.bytes.data(), sizeof(v));
      received[static_cast<size_t>(rank)][obj.sender] = v;
      EXPECT_EQ(obj.iter, 1u);
    });
    (void)p;
  });

  for (int rank = 0; rank < n; ++rank) {
    EXPECT_EQ(received[static_cast<size_t>(rank)].size(), static_cast<size_t>(n - 1));
    for (int sender = 0; sender < n; ++sender) {
      if (sender == rank) {
        continue;
      }
      ASSERT_TRUE(received[static_cast<size_t>(rank)].count(sender)) << rank << "<-" << sender;
      EXPECT_DOUBLE_EQ(received[static_cast<size_t>(rank)][sender], 100.0 + sender);
    }
  }
}

TEST(Dstorm, GatherOnlySeesInNeighbors) {
  const int n = 4;
  SimCluster cluster(n);
  std::vector<std::vector<int>> senders_seen(n);

  cluster.Run([&](int rank, Dstorm& d, Process&) {
    SegmentOptions opts;
    opts.obj_bytes = sizeof(int);
    opts.graph = RingGraph(n);  // i -> i+1
    const SegmentId seg = d.CreateSegment(opts);
    ASSERT_TRUE(d.Scatter(seg, AsBytes(&rank, sizeof(rank)), 0).ok());
    ASSERT_TRUE(d.Flush().ok());
    ASSERT_TRUE(d.Barrier().ok());
    d.Gather(seg, [&](const RecvObject& obj) {
      senders_seen[static_cast<size_t>(rank)].push_back(obj.sender);
    });
  });

  for (int rank = 0; rank < n; ++rank) {
    ASSERT_EQ(senders_seen[static_cast<size_t>(rank)].size(), 1u);
    EXPECT_EQ(senders_seen[static_cast<size_t>(rank)][0], (rank + n - 1) % n);
  }
}

// A gather bounded at iteration k takes the sender's round-k object and
// leaves its already-arrived round-k+1 object queued for the next gather.
TEST(Dstorm, GatherBoundLeavesLaterIterationsQueued) {
  SimCluster cluster(2);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    SegmentOptions opts;
    opts.obj_bytes = sizeof(int);
    opts.graph = AllToAllGraph(2);
    opts.queue_depth = 2;
    const SegmentId seg = d.CreateSegment(opts);
    for (uint32_t iter : {1u, 2u}) {
      ASSERT_TRUE(d.Scatter(seg, AsBytes(&iter, sizeof(iter)), iter).ok());
    }
    ASSERT_TRUE(d.Flush().ok());
    ASSERT_TRUE(d.Barrier().ok());
    std::vector<uint32_t> seen;
    auto note = [&](const RecvObject& obj) { seen.push_back(obj.iter); };
    EXPECT_EQ(d.Gather(seg, note, /*max_iter=*/0), 0);
    EXPECT_EQ(d.Gather(seg, note, /*max_iter=*/1), 1);
    EXPECT_EQ(d.Gather(seg, note, /*max_iter=*/1), 0);
    EXPECT_EQ(d.Gather(seg, note, /*max_iter=*/2), 1);
    EXPECT_EQ(seen, (std::vector<uint32_t>{1, 2})) << "rank " << rank;
  });
}

TEST(Dstorm, FreshnessNoDoubleConsume) {
  SimCluster cluster(2);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    SegmentOptions opts;
    opts.obj_bytes = sizeof(int);
    opts.graph = AllToAllGraph(2);
    const SegmentId seg = d.CreateSegment(opts);
    ASSERT_TRUE(d.Scatter(seg, AsBytes(&rank, sizeof(rank)), 7).ok());
    ASSERT_TRUE(d.Flush().ok());
    ASSERT_TRUE(d.Barrier().ok());
    EXPECT_EQ(d.Gather(seg, [](const RecvObject&) {}), 1);
    EXPECT_EQ(d.Gather(seg, [](const RecvObject&) {}), 0);  // already consumed
  });
}

TEST(Dstorm, OverwriteOnFullKeepsNewest) {
  // Sender pushes 5 objects into a depth-2 queue before the receiver looks:
  // only the newest 2 survive, oldest-first order.
  SimCluster cluster(2);
  std::vector<int> values;
  cluster.Run([&](int rank, Dstorm& d, Process& p) {
    SegmentOptions opts;
    opts.obj_bytes = sizeof(int);
    opts.graph = RingGraph(2);
    opts.queue_depth = 2;
    const SegmentId seg = d.CreateSegment(opts);
    if (rank == 0) {
      for (int i = 1; i <= 5; ++i) {
        ASSERT_TRUE(d.Scatter(seg, AsBytes(&i, sizeof(i)), static_cast<uint32_t>(i)).ok());
        ASSERT_TRUE(d.Flush().ok());
      }
      ASSERT_TRUE(d.Barrier().ok());
    } else {
      ASSERT_TRUE(d.Barrier().ok());
      d.Gather(seg, [&](const RecvObject& obj) {
        int v;
        std::memcpy(&v, obj.bytes.data(), sizeof(v));
        values.push_back(v);
      });
      (void)p;
    }
  });
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], 4);
  EXPECT_EQ(values[1], 5);
}

TEST(Dstorm, PeerIterationTracksNewestVisible) {
  SimCluster cluster(2);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    SegmentOptions opts;
    opts.obj_bytes = sizeof(int);
    opts.graph = RingGraph(2);
    const SegmentId seg = d.CreateSegment(opts);
    if (rank == 0) {
      EXPECT_EQ(d.PeerIteration(seg, 1), -1);  // nothing yet
      int v = 0;
      ASSERT_TRUE(d.Scatter(seg, AsBytes(&v, sizeof(v)), 41).ok());
      ASSERT_TRUE(d.Flush().ok());
      ASSERT_TRUE(d.Barrier().ok());
      EXPECT_EQ(d.PeerIteration(seg, 1), 99);
    } else {
      int v = 1;
      ASSERT_TRUE(d.Scatter(seg, AsBytes(&v, sizeof(v)), 99).ok());
      ASSERT_TRUE(d.Flush().ok());
      ASSERT_TRUE(d.Barrier().ok());
      EXPECT_EQ(d.PeerIteration(seg, 0), 41);
    }
  });
}

TEST(Dstorm, TornWriteSkippedThenConsumed) {
  // With torn_writes enabled the payload lands in two halves; a gather in
  // between must skip the slot (mismatched sequence stamps), and a later
  // gather sees the complete object.
  FabricOptions opts = FastNet();
  opts.torn_writes = true;
  opts.net.latency = 1'000'000;  // big gap between the halves
  SimCluster cluster(2, opts);
  int consumed_mid = -1;
  int consumed_late = -1;

  cluster.Run([&](int rank, Dstorm& d, Process& p) {
    SegmentOptions seg_opts;
    seg_opts.obj_bytes = 64;
    seg_opts.graph = RingGraph(2);
    const SegmentId seg = d.CreateSegment(seg_opts);
    if (rank == 0) {
      std::vector<std::byte> payload(64, std::byte{0xAB});
      ASSERT_TRUE(d.Scatter(seg, payload, 1).ok());
      p.SleepUntil(10'000'000);
    } else {
      // First half arrives at ~1.0ms; second at ~2.0ms. Sample at 1.5ms.
      p.SleepUntil(1'500'000);
      consumed_mid = d.Gather(seg, [](const RecvObject&) {});
      p.SleepUntil(5'000'000);
      consumed_late = d.Gather(seg, [&](const RecvObject& obj) {
        EXPECT_EQ(obj.bytes[0], std::byte{0xAB});
        EXPECT_EQ(obj.bytes[63], std::byte{0xAB});
      });
    }
  });
  EXPECT_EQ(consumed_mid, 0);
  EXPECT_EQ(consumed_late, 1);
  // The torn skip is visible in rank 1's telemetry registry (shared through
  // the fabric's fallback domain).
  const MetricRegistry& metrics = cluster.fabric.telemetry().rank(1).metrics;
  EXPECT_EQ(metrics.CounterValue("dstorm.torn_slots_skipped"), 1);
  EXPECT_EQ(metrics.CounterValue("dstorm.objects_folded"), 1);
}

TEST(Dstorm, GatherCopiesOnlyFreshSlots) {
  // One 64-byte object into a depth-4 queue, gathered twice. The first
  // gather takes its header + payload + back stamp in one snapshot, which on
  // the simulator is a view of the slot, so nothing is copied
  // (ShmemDstorm.GatherCopiesOnlyFreshSlots counts the shmem copy); the
  // second decides from the header that the slot is stale. The checker sees
  // exactly one stale skip, reported with matching stamps (a mismatched pair
  // would be a seqlock_protocol violation).
  ProtocolChecker checker(CheckLevel::kFull, 2);
  SimCluster cluster(2, FastNet(), &checker);
  const MetricRegistry& metrics = cluster.fabric.telemetry().rank(1).metrics;
  int first = -1;
  int second = -1;
  int64_t copied_first = -1;
  int64_t copied_second = -1;
  int64_t stale_events = -1;
  bool fresh_after = true;
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    SegmentOptions opts;
    opts.obj_bytes = 64;
    opts.graph = RingGraph(2);
    opts.queue_depth = 4;
    const SegmentId seg = d.CreateSegment(opts);
    if (rank == 0) {
      std::vector<std::byte> payload(64, std::byte{0x3C});
      ASSERT_TRUE(d.Scatter(seg, payload, 1).ok());
      ASSERT_TRUE(d.Flush().ok());
      ASSERT_TRUE(d.Barrier().ok());
      return;
    }
    ASSERT_TRUE(d.Barrier().ok());
    first = d.Gather(seg, [](const RecvObject&) {});
    copied_first = metrics.CounterValue("dstorm.gather_bytes_copied");
    const int64_t events_before = checker.events_checked();
    second = d.Gather(seg, [](const RecvObject&) {});
    stale_events = checker.events_checked() - events_before;
    copied_second = metrics.CounterValue("dstorm.gather_bytes_copied") - copied_first;
    fresh_after = d.FreshAvailable(seg);
  });
  EXPECT_EQ(first, 1);
  EXPECT_EQ(copied_first, 0);
  EXPECT_EQ(second, 0);
  EXPECT_EQ(copied_second, 0);
  EXPECT_FALSE(fresh_after);
  // The three never-written slots report nothing; the written one is a
  // stale skip (neither consumed nor torn).
  EXPECT_EQ(stale_events, 1);
  EXPECT_EQ(metrics.CounterValue("dstorm.torn_slots_skipped"), 0);
  EXPECT_EQ(checker.violation_count(), 0) << checker.ReportJson();
}

TEST(Dstorm, BarrierSynchronizesClocks) {
  const int n = 3;
  SimCluster cluster(n);
  std::vector<SimTime> after(n);
  cluster.Run([&](int rank, Dstorm& d, Process& p) {
    SegmentOptions opts;
    opts.obj_bytes = 8;
    opts.graph = AllToAllGraph(n);
    d.CreateSegment(opts);
    p.Advance(1000 * (rank + 1));  // ranks arrive at different times
    ASSERT_TRUE(d.Barrier().ok());
    after[static_cast<size_t>(rank)] = p.now();
  });
  // No rank may leave the barrier before the slowest arrived.
  for (int rank = 0; rank < n; ++rank) {
    EXPECT_GE(after[static_cast<size_t>(rank)], 3000);
  }
}

TEST(Dstorm, BarrierTimeoutOnDeadPeer) {
  SimCluster cluster(2);
  Status barrier_status;
  cluster.engine.ScheduleKill(1, 500);
  cluster.Run([&](int rank, Dstorm& d, Process& p) {
    if (rank == 1) {
      p.Advance(1'000'000);  // killed long before this finishes
      return;
    }
    barrier_status = d.Barrier(FromSeconds(0.01));
  });
  EXPECT_EQ(barrier_status.code(), StatusCode::kDeadlineExceeded);
}

TEST(Dstorm, BarrierProceedsAfterRemoval) {
  SimCluster cluster(3);
  cluster.engine.ScheduleKill(2, 100);
  std::vector<bool> completed(3, false);
  cluster.Run([&](int rank, Dstorm& d, Process& p) {
    if (rank == 2) {
      p.Advance(1'000'000);
      return;
    }
    d.RemoveFromGroup(2);
    ASSERT_TRUE(d.Barrier().ok());
    completed[static_cast<size_t>(rank)] = true;
  });
  EXPECT_TRUE(completed[0]);
  EXPECT_TRUE(completed[1]);
}

TEST(Dstorm, ScatterSkipsRemovedMembers) {
  SimCluster cluster(3);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    SegmentOptions opts;
    opts.obj_bytes = sizeof(int);
    opts.graph = AllToAllGraph(3);
    const SegmentId seg = d.CreateSegment(opts);
    d.RemoveFromGroup(2);
    if (rank == 2) {
      return;
    }
    ASSERT_TRUE(d.Scatter(seg, AsBytes(&rank, sizeof(rank)), 0).ok());
    ASSERT_TRUE(d.Flush().ok());
  });
  // Node 2 received nothing.
  EXPECT_EQ(cluster.fabric.stats().RxBytes(2), 0);
}

TEST(Dstorm, ProbePeerDetectsDeath) {
  SimCluster cluster(2);
  // Kill node 1 at 1 ms — after the first probe completes (a probe's RTT is
  // a few microseconds), before the second.
  cluster.engine.ScheduleKill(1, 1'000'000);
  bool probe_before = false;
  bool probe_after = true;
  cluster.Run([&](int rank, Dstorm& d, Process& p) {
    if (rank == 1) {
      p.Advance(10'000'000);
      return;
    }
    probe_before = d.ProbePeer(1);  // at t=0: still alive
    p.SleepUntil(2'000'000);
    probe_after = d.ProbePeer(1);
  });
  EXPECT_TRUE(probe_before);
  EXPECT_FALSE(probe_after);
}

TEST(Dstorm, SparsePayloadSmallerThanObjBytes) {
  SimCluster cluster(2);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    SegmentOptions opts;
    opts.obj_bytes = 256;
    opts.graph = AllToAllGraph(2);
    const SegmentId seg = d.CreateSegment(opts);
    std::vector<std::byte> small(10, std::byte{0x5A});
    ASSERT_TRUE(d.Scatter(seg, small, 0).ok());
    ASSERT_TRUE(d.Flush().ok());
    ASSERT_TRUE(d.Barrier().ok());
    d.Gather(seg, [&](const RecvObject& obj) {
      EXPECT_EQ(obj.bytes.size(), 10u);  // actual length, not capacity
      EXPECT_EQ(obj.bytes[9], std::byte{0x5A});
    });
    (void)rank;
  });
}

TEST(Dstorm, OversizedPayloadRejected) {
  SimCluster cluster(2);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    SegmentOptions opts;
    opts.obj_bytes = 8;
    opts.graph = AllToAllGraph(2);
    const SegmentId seg = d.CreateSegment(opts);
    std::vector<std::byte> big(16);
    if (rank == 0) {
      Status s = d.Scatter(seg, big, 0);
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    }
  });
}

TEST(Dstorm, MultipleSegmentsIndependent) {
  SimCluster cluster(2);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    SegmentOptions a;
    a.obj_bytes = sizeof(int);
    a.graph = AllToAllGraph(2);
    SegmentOptions b;
    b.obj_bytes = sizeof(double);
    b.graph = AllToAllGraph(2);
    const SegmentId seg_a = d.CreateSegment(a);
    const SegmentId seg_b = d.CreateSegment(b);
    ASSERT_NE(seg_a, seg_b);
    const int iv = rank + 10;
    const double dv = rank + 0.5;
    ASSERT_TRUE(d.Scatter(seg_a, AsBytes(&iv, sizeof(iv)), 0).ok());
    ASSERT_TRUE(d.Scatter(seg_b, AsBytes(&dv, sizeof(dv)), 0).ok());
    ASSERT_TRUE(d.Flush().ok());
    ASSERT_TRUE(d.Barrier().ok());
    int got_int = -1;
    double got_double = -1;
    d.Gather(seg_a, [&](const RecvObject& o) { std::memcpy(&got_int, o.bytes.data(), 4); });
    d.Gather(seg_b, [&](const RecvObject& o) { std::memcpy(&got_double, o.bytes.data(), 8); });
    EXPECT_EQ(got_int, (1 - rank) + 10);
    EXPECT_DOUBLE_EQ(got_double, (1 - rank) + 0.5);
  });
}

TEST(Dstorm, FinishedRankDoesNotBlockBarriers) {
  // A rank that completes training publishes an "infinite" barrier counter;
  // peers running more rounds must pass their remaining barriers without it.
  SimCluster cluster(3);
  std::vector<int> rounds_done(3, 0);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    const int my_rounds = rank == 0 ? 2 : 5;  // rank 0 finishes early
    for (int round = 0; round < my_rounds; ++round) {
      ASSERT_TRUE(d.Barrier().ok());
      ++rounds_done[static_cast<size_t>(rank)];
    }
    d.FinishBarriers();
  });
  EXPECT_EQ(rounds_done[0], 2);
  EXPECT_EQ(rounds_done[1], 5);
  EXPECT_EQ(rounds_done[2], 5);
}

TEST(Dstorm, ScatterToSubset) {
  const int n = 4;
  SimCluster cluster(n);
  std::vector<int> gathered(n, 0);
  cluster.Run([&](int rank, Dstorm& d, Process&) {
    SegmentOptions opts;
    opts.obj_bytes = sizeof(int);
    opts.graph = AllToAllGraph(n);
    const SegmentId seg = d.CreateSegment(opts);
    if (rank == 0) {
      const std::vector<int> dsts = {1, 3};  // fine-grained dataflow control
      ASSERT_TRUE(d.ScatterTo(seg, dsts, AsBytes(&rank, sizeof(rank)), 0).ok());
      ASSERT_TRUE(d.Flush().ok());
    }
    ASSERT_TRUE(d.Barrier().ok());
    gathered[static_cast<size_t>(rank)] = d.Gather(seg, [](const RecvObject&) {});
  });
  EXPECT_EQ(gathered[0], 0);
  EXPECT_EQ(gathered[1], 1);
  EXPECT_EQ(gathered[2], 0);
  EXPECT_EQ(gathered[3], 1);
}

TEST(DstormDeathTest, QueueDepthAboveSixteenRejectedAtCreation) {
  // Gather bounds its per-sender scan at 16 slots, so a deeper queue must be
  // refused before any receive memory is registered, not mid-training.
  SimCluster cluster(2);
  SegmentOptions opts;
  opts.obj_bytes = 8;
  opts.graph = AllToAllGraph(2);
  opts.queue_depth = 17;
  EXPECT_DEATH((void)cluster.domain.node(0).CreateSegment(opts), "queue depth must be in");
  opts.queue_depth = 16;  // the largest supported depth is accepted
  EXPECT_EQ(cluster.domain.node(0).CreateSegment(opts), 0);
}

TEST(DstormDeathTest, UnknownSegmentIdAborts) {
  // Rank 0's creation materializes segment 0 on rank 1's node too, but rank 1
  // never created it: data-plane calls with that id (or any id out of range)
  // must abort rather than index past the rank's own segment table.
  SimCluster cluster(2);
  SegmentOptions opts;
  opts.obj_bytes = 8;
  opts.graph = AllToAllGraph(2);
  ASSERT_EQ(cluster.domain.node(0).CreateSegment(opts), 0);
  auto ignore = [](const RecvObject&) {};
  EXPECT_DEATH(cluster.domain.node(1).Gather(0, ignore), "rank 1 has no segment 0");
  EXPECT_DEATH(cluster.domain.node(0).Gather(1, ignore), "rank 0 has no segment 1");
  EXPECT_DEATH((void)cluster.domain.node(0).FreshAvailable(-1), "rank 0 has no segment -1");
  EXPECT_EQ(cluster.domain.node(0).Gather(0, ignore), 0);  // its own id still works
}

TEST(DstormDeathTest, ConsumeThatYieldsAborts) {
  // On the simulator RecvObject::bytes views the receive slot, which the
  // next write into the region swaps out. A consume callback that advances
  // its clock lets rank 0's second object land under the view, and Gather
  // must abort rather than let the callback go on reading freed bytes.
  auto run = [] {
    SimCluster cluster(2);
    cluster.Run([&](int rank, Dstorm& d, Process& p) {
      SegmentOptions opts;
      opts.obj_bytes = 64;
      opts.graph = RingGraph(2);
      const SegmentId seg = d.CreateSegment(opts);
      std::vector<std::byte> payload(64, std::byte{0x5A});
      if (rank == 0) {
        ASSERT_TRUE(d.Scatter(seg, payload, 1).ok());
        p.Advance(50'000);
        ASSERT_TRUE(d.Scatter(seg, payload, 2).ok());
        ASSERT_TRUE(d.Flush().ok());
        return;
      }
      p.WaitUntil([&] { return d.FreshAvailable(seg); });
      d.Gather(seg, [&](const RecvObject&) { d.ctx().Advance(1'000'000); });
    });
  };
  EXPECT_DEATH(run(), "a write landed while Gather's consume callback held sender 0's object");
}

TEST(DstormDeathTest, MismatchedCollectiveOptionsAbort) {
  // The first creator registers the segment on every node with its options;
  // a later creator of the same id with a different object size or queue
  // depth would compute slot offsets for a layout that does not exist.
  SimCluster cluster(2);
  SegmentOptions opts;
  opts.obj_bytes = 8;
  opts.graph = AllToAllGraph(2);
  ASSERT_EQ(cluster.domain.node(0).CreateSegment(opts), 0);
  SegmentOptions bigger = opts;
  bigger.obj_bytes = 16;
  EXPECT_DEATH((void)cluster.domain.node(1).CreateSegment(bigger),
               "collective segment creation called with mismatched options on rank 1");
  SegmentOptions deeper = opts;
  deeper.queue_depth = 4;
  EXPECT_DEATH((void)cluster.domain.node(1).CreateSegment(deeper),
               "collective segment creation called with mismatched options on rank 1");
  EXPECT_EQ(cluster.domain.node(1).CreateSegment(opts), 0);  // matching options join
}

}  // namespace
}  // namespace malt
