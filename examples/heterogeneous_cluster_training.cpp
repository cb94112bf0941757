// Plan training for *your* heterogeneous cluster: describe the nodes on the
// command line and the example compares every allocation policy x parameter
// placement for both paper models.
//
// Usage: heterogeneous_cluster_training [node-codes [gpus-per-node]]
//   node-codes    one letter per node: V=TITAN V, R=TITAN RTX,
//                 G=RTX 2060, Q=Quadro P4000 (default "VRGQ")
//   gpus-per-node default 4
//
// Example: ./heterogeneous_cluster_training VVRG 4
#include <cstdio>
#include <string>

#include "core/hetpipe.h"
#include "runner/cli.h"
#include "dp/horovod.h"
#include "model/resnet.h"
#include "model/vgg.h"

int main(int argc, char** argv) {
  using namespace hetpipe;
  const std::string nodes = argc > 1 ? argv[1] : "VRGQ";
  int gpus_per_node = 4;
  if (argc > 2 && !runner::ParseIntFlag(argv[2], &gpus_per_node)) {
    std::fprintf(stderr, "gpus-per-node must be an integer, got \"%s\"\n", argv[2]);
    return 2;
  }

  hw::Cluster cluster(hw::ParseGpuCodes(nodes), gpus_per_node);
  std::printf("cluster: %s\n", cluster.ToString().c_str());

  for (const bool vgg : {false, true}) {
    // Profile the model on this cluster once; every run below reuses it.
    const core::SolveContext context(cluster, vgg ? model::BuildVgg19() : model::BuildResNet152(),
                                     32);
    std::printf("\n=== %s ===\n", context.graph.Summary().c_str());

    const dp::HorovodResult horovod = dp::SimulateHorovod(cluster, context.profile);
    std::printf("%-22s %s\n", "Horovod baseline:", horovod.ToString().c_str());

    struct Setup {
      const char* label;
      cluster::AllocationPolicy allocation;
      wsp::PlacementPolicy placement;
    };
    const Setup setups[] = {
        {"HetPipe NP", cluster::AllocationPolicy::kNodePartition,
         wsp::PlacementPolicy::kRoundRobin},
        {"HetPipe ED", cluster::AllocationPolicy::kEqualDistribution,
         wsp::PlacementPolicy::kRoundRobin},
        {"HetPipe ED-local", cluster::AllocationPolicy::kEqualDistribution,
         wsp::PlacementPolicy::kLocal},
    };
    for (const Setup& setup : setups) {
      core::HetPipeConfig config;
      config.allocation = setup.allocation;
      config.placement = setup.placement;
      config.jitter_cv = 0.1;
      const core::HetPipeReport report = core::HetPipe(context, config).Run();
      if (!report.feasible) {
        std::printf("%-22s infeasible: %s\n", setup.label, report.infeasible_reason.c_str());
        continue;
      }
      std::printf("%-22s %7.0f img/s  (Nm=%d, %zu VWs)\n", setup.label,
                  report.throughput_img_s, report.nm, report.vws.size());
    }
    // HD needs the 4x4 shape.
    if (cluster.num_nodes() == 4 && cluster.gpus_per_node() == 4) {
      core::HetPipeConfig config;
      config.allocation = cluster::AllocationPolicy::kHybridDistribution;
      config.jitter_cv = 0.1;
      const core::HetPipeReport report = core::HetPipe(context, config).Run();
      if (report.feasible) {
        std::printf("%-22s %7.0f img/s  (Nm=%d)\n", "HetPipe HD", report.throughput_img_s,
                    report.nm);
      }
    }
  }
  return 0;
}
