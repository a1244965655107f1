// Microbenchmarks (google-benchmark) for the substrate pieces: Halton graph
// construction, scatter/gather rounds across object sizes and dataflows,
// sequence-stamp read validation, and the sparse wire codec.
//
// These measure *host* cost of the simulator machinery (how fast experiments
// run), complementing the virtual-time figures.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "src/base/seqlock.h"
#include "src/comm/graph.h"
#include "src/dstorm/dstorm.h"
#include "src/simnet/fabric.h"
#include "src/simnet/rank_ctx.h"
#include "src/vol/malt_vector.h"

namespace malt {
namespace {

void BM_HaltonGraph(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Graph g = HaltonGraph(n);
    benchmark::DoNotOptimize(g.EdgeCount());
  }
}
BENCHMARK(BM_HaltonGraph)->Arg(8)->Arg(64)->Arg(256);

void BM_SeqLockTryReadCopy(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  SeqLock lock;
  std::vector<char> src(len, 'x');
  std::vector<char> dst(len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lock.TryReadCopyAtomic(dst.data(), src.data(), len));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}
BENCHMARK(BM_SeqLockTryReadCopy)->Arg(64)->Arg(4096)->Arg(262144);

// One full scatter+flush+gather round across the simulated cluster, per
// object size and dataflow. state.range(0)=object bytes, range(1)=1 for
// Halton, 0 for all-to-all.
void BM_DstormRound(benchmark::State& state) {
  const size_t obj_bytes = static_cast<size_t>(state.range(0));
  const bool use_halton = state.range(1) == 1;
  const int nodes = 8;
  for (auto _ : state) {
    Engine engine;
    Fabric fabric(engine, nodes, FabricOptions{});
    DstormDomain domain(fabric, nodes);
    for (int rank = 0; rank < nodes; ++rank) {
      std::string name = "r";
      name += std::to_string(rank);
      engine.AddProcess(std::move(name), [&, rank](Process& p) {
        SimProcessCtx ctx(p);
        Dstorm& d = domain.node(rank);
        d.BindCtx(ctx);
        SegmentOptions opts;
        opts.obj_bytes = obj_bytes;
        opts.graph = use_halton ? HaltonGraph(nodes) : AllToAllGraph(nodes);
        const SegmentId seg = d.CreateSegment(opts);
        std::vector<std::byte> payload(obj_bytes);
        for (int round = 0; round < 4; ++round) {
          (void)d.Scatter(seg, payload, static_cast<uint32_t>(round));
          (void)d.Flush();
          (void)d.Barrier();
          d.Gather(seg, [](const RecvObject&) {});
        }
      });
    }
    engine.Run();
  }
}
BENCHMARK(BM_DstormRound)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({65536, 0})
    ->Args({65536, 1})
    ->Unit(benchmark::kMillisecond);

void BM_SparseEncodeScatter(benchmark::State& state) {
  const size_t dim = 100000;
  const size_t nnz = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    Fabric fabric(engine, 2, FabricOptions{});
    DstormDomain domain(fabric, 2);
    for (int rank = 0; rank < 2; ++rank) {
      std::string name = "r";
      name += std::to_string(rank);
      engine.AddProcess(std::move(name), [&, rank](Process& p) {
        SimProcessCtx ctx(p);
        Dstorm& d = domain.node(rank);
        d.BindCtx(ctx);
        MaltVectorOptions opts;
        opts.dim = dim;
        opts.layout = Layout::kSparse;
        opts.max_nnz = nnz;
        opts.graph = AllToAllGraph(2);
        MaltVector v(d, std::move(opts));
        std::vector<uint32_t> indices(nnz);
        for (size_t i = 0; i < nnz; ++i) {
          indices[i] = static_cast<uint32_t>(i * (dim / nnz));
          v.data()[indices[i]] = 1.0f;
        }
        for (int round = 0; round < 4; ++round) {
          (void)v.ScatterIndices(indices);
          (void)d.Flush();
          (void)v.Barrier();
          v.GatherSum();
        }
        (void)rank;
      });
    }
    engine.Run();
  }
}
BENCHMARK(BM_SparseEncodeScatter)->Arg(100)->Arg(10000)->Unit(benchmark::kMicrosecond);

void BM_EngineContextSwitch(benchmark::State& state) {
  // Cost of one engine slice (Advance, a fiber switch to the scheduler and
  // back) with N processes.
  const int nodes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    for (int rank = 0; rank < nodes; ++rank) {
      std::string name = "r";
      name += std::to_string(rank);
      engine.AddProcess(std::move(name), [](Process& p) {
        for (int i = 0; i < 100; ++i) {
          p.Advance(10);
        }
      });
    }
    engine.Run();
    state.counters["switches"] = static_cast<double>(engine.stats().slices_run);
  }
  state.SetItemsProcessed(state.iterations() * nodes * 100);
}
BENCHMARK(BM_EngineContextSwitch)->Arg(2)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace malt

BENCHMARK_MAIN();
