// Shared-memory transport throughput: wall-clock scatter/gather rates as the
// rank count grows (the tentpole acceptance figure for src/shmem/).
//
// Two levels, each swept over ranks {1, 2, 4, 8} and a few object sizes:
//   raw:    concurrent PostWrite streams straight through the transport
//           (ranks=1 writes into its own region — the loopback DMA path),
//           reporting aggregate MB/s and writes/s.
//   dstorm: full protocol rounds (Scatter + Gather with slot stamps, torn
//           detection, freshness) over an all-to-all dataflow, reporting
//           aggregate scattered MB/s and gathered objects/s.
// Then two overhead sections rerun the dstorm rounds at --overhead_ranks:
// tracing (flow events + NDJSON sampling off vs on) and the concurrent
// protocol checker (DESIGN.md §9) at each level off|cheap|full. The
// checker's apply hooks run in the sender's store path and its read hooks in
// the gather path, so off-vs-cheap prices the lock-striped ledger and
// cheap-vs-full the payload hashing. A checker violation exits nonzero.
//
// Unlike the fig* benches these numbers are host wall-clock, not virtual
// time: scaling with rank count demonstrates the backend runs ranks as
// genuinely concurrent threads.
//
//   bench_shmem_throughput [--ranks=1,2,4,8] [--bytes=1024,65536] [--iters=2000]
//                          [--overhead_ranks=8]

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/base/flags.h"
#include "src/base/log.h"
#include "src/check/check.h"
#include "src/comm/graph.h"
#include "src/dstorm/dstorm.h"
#include "src/shmem/rank_ctx.h"
#include "src/shmem/shmem_transport.h"
#include "src/telemetry/stream.h"

namespace malt {
namespace {

std::vector<int> ParseIntList(const std::string& s) {
  std::vector<int> out;
  size_t pos = 0;
  while (pos < s.size()) {
    const size_t comma = s.find(',', pos);
    const std::string tok = s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    out.push_back(std::stoi(tok));
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  return out;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Raw transport: every rank streams `iters` one-sided writes of `bytes` into
// the next rank's region (its own when alone). Returns aggregate seconds.
double RawWriteStreams(int ranks, size_t bytes, int iters) {
  ShmemTransport t(ranks);
  std::vector<MrHandle> mr;
  mr.reserve(static_cast<size_t>(ranks));
  for (int node = 0; node < ranks; ++node) {
    // Slot-striped like a dstorm queue so the guard cost is representative.
    mr.push_back(t.RegisterMemory(node, bytes, bytes));
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int rank = 0; rank < ranks; ++rank) {
    threads.emplace_back([&, rank] {
      const MrHandle dst = mr[static_cast<size_t>((rank + 1) % ranks)];
      std::vector<std::byte> payload(bytes, std::byte{0xa5});
      Completion cq[64];
      for (int i = 0; i < iters; ++i) {
        MALT_CHECK(t.PostWrite(rank, t.now(), dst, 0, payload).ok());
        t.PollCq(rank, cq);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  return SecondsSince(t0);
}

struct DstormRates {
  double seconds = 0.0;
  int64_t objects_gathered = 0;
};

// Full-protocol rounds: each rank scatters its object all-to-all and gathers
// whatever has arrived, `iters` rounds, no barriers (the ASP-style hot path).
// Pass `telemetry` to control flow tracing; pass a `streamer` plus interval
// to also run the wall-clock NDJSON sampler alongside the workers (the
// observability-overhead configuration). `warmup` rounds run untimed first
// inside the same transport, so one-time costs (trace-ring page faults, lazy
// per-edge metric resolution) don't pollute the measured window. Pass a
// concurrent-mode `checker` to validate every apply and gather read.
DstormRates DstormRounds(int ranks, size_t bytes, int iters,
                         TelemetryDomain* telemetry = nullptr,
                         MetricsStreamer* streamer = nullptr, int sample_interval_ms = 0,
                         int warmup = 0, ProtocolChecker* checker = nullptr) {
  ShmemTransport t(ranks, telemetry, checker);
  DstormDomain domain(t, ranks, telemetry);
  std::vector<std::unique_ptr<ShmemRankCtx>> ctxs;
  for (int rank = 0; rank < ranks; ++rank) {
    ctxs.push_back(std::make_unique<ShmemRankCtx>(rank, t.clock()));
  }

  std::vector<int64_t> gathered(static_cast<size_t>(ranks), 0);
  auto t0 = std::chrono::steady_clock::now();
  // Warmup handoff: rank 0 restarts the clock between the two barrier
  // phases, so every rank's measured loop starts after it (main reads t0
  // only after joining the threads).
  std::barrier sync(ranks);

  std::atomic<bool> done{false};
  std::thread sampler;
  if (streamer != nullptr && sample_interval_ms > 0) {
    sampler = std::thread([&] {
      const auto interval = std::chrono::milliseconds(sample_interval_ms);
      auto next = std::chrono::steady_clock::now() + interval;
      while (!done.load(std::memory_order_acquire)) {
        if (std::chrono::steady_clock::now() >= next) {
          streamer->Sample(t.now());
          next += interval;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  std::vector<std::thread> threads;
  for (int rank = 0; rank < ranks; ++rank) {
    threads.emplace_back([&, rank] {
      Dstorm& d = domain.node(rank);
      d.BindCtx(*ctxs[static_cast<size_t>(rank)]);
      SegmentOptions opts;
      opts.obj_bytes = bytes;
      opts.graph = AllToAllGraph(ranks);
      opts.queue_depth = 4;
      const SegmentId seg = d.CreateSegment(opts);
      std::vector<std::byte> payload(bytes, std::byte{0x5a});
      for (int i = 1; i <= warmup; ++i) {
        MALT_CHECK(d.Scatter(seg, payload, static_cast<uint32_t>(i)).ok());
        d.Gather(seg, [](const RecvObject&) {});
      }
      if (warmup > 0) {
        sync.arrive_and_wait();
        if (rank == 0) {
          t0 = std::chrono::steady_clock::now();
        }
        sync.arrive_and_wait();
      }
      int64_t mine = 0;
      for (int i = warmup + 1; i <= warmup + iters; ++i) {
        MALT_CHECK(d.Scatter(seg, payload, static_cast<uint32_t>(i)).ok());
        mine += d.Gather(seg, [](const RecvObject&) {});
      }
      d.FinishBarriers();
      gathered[static_cast<size_t>(rank)] = mine;
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  done.store(true, std::memory_order_release);
  if (sampler.joinable()) {
    sampler.join();
    streamer->Finish(t.now());
  }
  DstormRates r;
  r.seconds = SecondsSince(t0);
  for (int64_t g : gathered) {
    r.objects_gathered += g;
  }
  return r;
}

}  // namespace
}  // namespace malt

int main(int argc, char** argv) {
  malt::Flags flags;
  flags.Parse(argc, argv);
  const std::vector<int> rank_list =
      malt::ParseIntList(flags.GetString("ranks", "1,2,4,8", "rank counts to sweep"));
  const std::vector<int> byte_list =
      malt::ParseIntList(flags.GetString("bytes", "1024,65536", "object sizes to sweep"));
  const int iters = static_cast<int>(flags.GetInt("iters", 2000, "posts/rounds per rank"));
  const int overhead_ranks = static_cast<int>(
      flags.GetInt("overhead_ranks", 8, "rank count for the overhead sections (0 = skip)"));
  flags.Finish();

  std::printf("# shmem transport throughput (wall-clock), %d iters/rank\n", iters);
  std::printf("%-8s %-6s %-8s %12s %12s %14s %14s\n", "level", "ranks", "bytes", "MB/s",
              "writes/s", "gathered/s", "seconds");
  for (const int bytes : byte_list) {
    for (const int ranks : rank_list) {
      const double secs =
          malt::RawWriteStreams(ranks, static_cast<size_t>(bytes), iters);
      const double total_bytes = static_cast<double>(ranks) * iters * bytes;
      std::printf("%-8s %-6d %-8d %12.1f %12.0f %14s %14.4f\n", "raw", ranks, bytes,
                  total_bytes / secs / 1e6, static_cast<double>(ranks) * iters / secs, "-",
                  secs);
    }
    for (const int ranks : rank_list) {
      if (ranks < 2) {
        continue;  // dstorm all-to-all needs peers
      }
      const malt::DstormRates r =
          malt::DstormRounds(ranks, static_cast<size_t>(bytes), iters);
      // Each round scatters to ranks-1 peers.
      const double total_bytes =
          static_cast<double>(ranks) * iters * (ranks - 1) * bytes;
      std::printf("%-8s %-6d %-8d %12.1f %12.0f %14.0f %14.4f\n", "dstorm", ranks, bytes,
                  total_bytes / r.seconds / 1e6,
                  static_cast<double>(ranks) * iters * (ranks - 1) / r.seconds,
                  static_cast<double>(r.objects_gathered) / r.seconds, r.seconds);
    }
  }

  // Observability overhead: the acceptance criterion for the flow-tracing
  // work is that full lineage (flow events + per-edge histograms) plus live
  // 50 ms sampling costs < 5% of dstorm round throughput. Same rounds, same
  // rank count, only the telemetry configuration differs.
  if (overhead_ranks >= 2) {
    std::printf("\n# tracing overhead: dstorm rounds, %d ranks, flow tracing + 50ms NDJSON\n",
                overhead_ranks);
    std::printf("# sampling vs telemetry off. Lineage costs a fixed ~100-200ns per traced\n");
    std::printf("# write (4 ring events + delivery histogram): bandwidth-bound object sizes\n");
    std::printf("# amortize it, message-rate-bound sizes expose it (--flow_events=0 to shed).\n");
    std::printf("%-8s %12s %12s %10s\n", "bytes", "off MB/s", "on MB/s", "overhead");
    // Best-of-3 with an untimed warmup phase per run: on a box where ranks
    // timeslice few cores, single-shot numbers swing far more than the
    // effect being measured.
    const int reps = 3;
    const int warmup = std::max(50, iters / 10);
    for (const int bytes : byte_list) {
      double off_secs = 0.0;
      double on_secs = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        malt::TelemetryOptions off_topt;
        off_topt.flow_events = false;
        malt::TelemetryDomain off_dom(overhead_ranks, off_topt);
        const malt::DstormRates off = malt::DstormRounds(
            overhead_ranks, static_cast<size_t>(bytes), iters, &off_dom, nullptr, 0, warmup);
        off_secs = rep == 0 ? off.seconds : std::min(off_secs, off.seconds);

        malt::TelemetryDomain on_dom(overhead_ranks);  // flow_events on by default
        malt::MetricsStreamer streamer(&on_dom, "/dev/null");
        const malt::DstormRates on = malt::DstormRounds(
            overhead_ranks, static_cast<size_t>(bytes), iters, &on_dom, &streamer, 50, warmup);
        on_secs = rep == 0 ? on.seconds : std::min(on_secs, on.seconds);
      }
      const double total_bytes =
          static_cast<double>(overhead_ranks) * iters * (overhead_ranks - 1) * bytes;
      std::printf("%-8d %12.1f %12.1f %9.2f%%\n", bytes, total_bytes / off_secs / 1e6,
                  total_bytes / on_secs / 1e6, (on_secs - off_secs) / off_secs * 100.0);
    }

    // Checker overhead: the same rounds under the concurrent checker (no
    // barriers, so the raciest load it faces), single-shot per level.
    std::printf("\n# checker overhead: dstorm rounds, %d ranks, concurrent checker\n",
                overhead_ranks);
    std::printf("%-6s %-8s %12s %14s %12s %10s\n", "check", "bytes", "MB/s", "gathered/s",
                "events", "violations");
    for (const int bytes : byte_list) {
      for (const malt::CheckLevel level :
           {malt::CheckLevel::kOff, malt::CheckLevel::kCheap, malt::CheckLevel::kFull}) {
        malt::ProtocolChecker checker(level, overhead_ranks);
        checker.SetConcurrent(true);
        const malt::DstormRates r = malt::DstormRounds(
            overhead_ranks, static_cast<size_t>(bytes), iters, nullptr, nullptr, 0, 0, &checker);
        const double total_bytes =
            static_cast<double>(overhead_ranks) * iters * (overhead_ranks - 1) * bytes;
        std::printf("%-6s %-8d %12.1f %14.0f %12lld %10lld\n", malt::ToString(level).c_str(),
                    bytes, total_bytes / r.seconds / 1e6,
                    static_cast<double>(r.objects_gathered) / r.seconds,
                    static_cast<long long>(checker.events_checked()),
                    static_cast<long long>(checker.violation_count()));
        if (checker.violation_count() != 0) {
          std::fprintf(stderr, "check: %lld violations at level %s — protocol bug\n",
                       static_cast<long long>(checker.violation_count()),
                       malt::ToString(level).c_str());
          return 1;
        }
      }
    }
  }
  return 0;
}
