// §6.2 network saturation test: scatter large model updates back-to-back and
// measure the achieved per-node send rate against the modeled line rate.
//
// Paper: synchronous all-to-all scatters run at ~5.1 GB/s (~40 Gb/s) per
// machine on the 56 Gbps FDR fabric; with three async replicas per machine
// each sends at ~4.2 GB/s.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/base/flags.h"
#include "src/comm/graph.h"
#include "src/dstorm/dstorm.h"
#include "src/simnet/fabric.h"
#include "src/simnet/rank_ctx.h"

int main(int argc, char** argv) {
  malt::Flags flags;
  flags.Parse(argc, argv);
  const int nodes = static_cast<int>(flags.GetInt("nodes", 8, "cluster size"));
  const int rounds = static_cast<int>(flags.GetInt("rounds", 64, "scatter rounds"));
  const size_t obj_mb = static_cast<size_t>(flags.GetInt("obj_mb", 4, "object size, MB"));
  flags.Finish();

  malt::PrintFigureHeader(
      "Net saturation (sect. 6.2)", "back-to-back scatters at line rate",
      "per-node send throughput approaches the fabric's 40 Gb/s effective line rate");

  malt::Engine engine;
  malt::FabricOptions fabric_opts;  // paper-default network model
  malt::Fabric fabric(engine, nodes, fabric_opts);
  malt::DstormDomain domain(fabric, nodes);

  const size_t obj_bytes = obj_mb * 1024 * 1024;
  std::vector<malt::SimTime> finish(static_cast<size_t>(nodes), 0);
  for (int rank = 0; rank < nodes; ++rank) {
    engine.AddProcess("rank" + std::to_string(rank), [&, rank](malt::Process& p) {
      malt::SimProcessCtx ctx(p);
      malt::Dstorm& d = domain.node(rank);
      d.BindCtx(ctx);
      malt::SegmentOptions seg_opts;
      seg_opts.obj_bytes = obj_bytes;
      seg_opts.graph = malt::AllToAllGraph(nodes);
      seg_opts.queue_depth = 2;
      const malt::SegmentId seg = d.CreateSegment(seg_opts);
      std::vector<std::byte> payload(obj_bytes, std::byte{0x42});
      for (int round = 0; round < rounds; ++round) {
        (void)d.Scatter(seg, payload, static_cast<uint32_t>(round));
      }
      (void)d.Flush();
      finish[static_cast<size_t>(rank)] = p.now();
    });
  }
  engine.Run();

  const double seconds = malt::ToSeconds(finish[0]);
  const double bytes_per_node =
      static_cast<double>(fabric.stats().TxBytes(0));
  const double gbps = bytes_per_node * 8.0 / seconds / 1e9;
  std::printf("# nodes=%d object=%zuMB rounds=%d fanout=%d\n", nodes, obj_mb, rounds, nodes - 1);
  std::printf("per-node sent %.1f MB in %.4fs virtual => %.1f Gb/s (%.2f GB/s)\n",
              bytes_per_node / 1e6, seconds, gbps, gbps / 8);
  malt::PrintResult("achieved %.1f Gb/s per node vs 40 Gb/s modeled line rate (%.0f%%)",
                    gbps, gbps / 40.0 * 100.0);
  return 0;
}
