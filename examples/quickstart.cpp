// Quickstart: train ResNet-152 on the paper's 16-GPU heterogeneous cluster
// with HetPipe (ED allocation, local parameter placement, D=0) and compare
// against the Horovod baseline.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>

#include "core/hetpipe.h"
#include "dp/horovod.h"
#include "model/resnet.h"

int main() {
  using namespace hetpipe;

  // 1. Describe the cluster: 4 nodes x 4 GPUs (TITAN V / TITAN RTX /
  //    RTX 2060 / Quadro P4000), PCIe inside nodes, Infiniband between.
  const hw::Cluster cluster = hw::Cluster::Paper();
  std::printf("cluster: %s\n", cluster.ToString().c_str());

  // 2. Pick a model. ResNet-152 at batch 32 does not fit the 6 GiB RTX 2060,
  //    so plain data parallelism cannot use those GPUs — HetPipe can.
  const model::ModelGraph graph = model::BuildResNet152();
  std::printf("model:   %s\n\n", graph.Summary().c_str());

  // 3. Configure HetPipe: equal-distribution virtual workers (one GPU of
  //    every type each), parameters served from each partition's own node,
  //    BSP-like WSP (D=0).
  core::HetPipeConfig config;
  config.allocation = cluster::AllocationPolicy::kEqualDistribution;
  config.placement = wsp::PlacementPolicy::kLocal;
  config.sync = wsp::SyncPolicy::Wsp(0);

  // 4. Profile the model on the cluster once (§7) and run.
  const core::SolveContext context(cluster, graph, config.batch_size);
  const core::HetPipeReport report = core::HetPipe(context, config).Run();
  if (!report.feasible) {
    std::printf("HetPipe infeasible: %s\n", report.infeasible_reason.c_str());
    return 1;
  }
  std::printf("HetPipe: %.0f img/s with %zu virtual workers, Nm=%d "
              "(s_local=%lld, s_global=%lld)\n",
              report.throughput_img_s, report.vws.size(), report.nm,
              static_cast<long long>(report.s_local), static_cast<long long>(report.s_global));
  for (size_t v = 0; v < report.vws.size(); ++v) {
    const core::VwReport& vw = report.vws[v];
    std::printf("  VW%zu: %.0f img/s, max stage utilization %.0f%%\n", v + 1,
                vw.throughput_img_s, 100.0 * vw.max_stage_utilization);
  }

  // 5. Baseline: BSP data parallelism over AllReduce (Horovod), on the same
  //    profile.
  const dp::HorovodResult horovod = dp::SimulateHorovod(cluster, context.profile);
  std::printf("\nHorovod: %s\n", horovod.ToString().c_str());
  std::printf("\nHetPipe speedup: %.2fx (and it uses the %d GPUs Horovod had to exclude)\n",
              report.throughput_img_s / horovod.throughput_img_s, horovod.num_excluded);
  return 0;
}
