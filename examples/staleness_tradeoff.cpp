// Explore the WSP staleness trade-off: sweeping the clock-distance threshold
// D trades synchronization stalls (throughput) against parameter staleness
// (statistical efficiency). Prints simulated throughput, observed staleness,
// and estimated time-to-target-accuracy for each D.
#include <cstdio>

#include "core/convergence.h"
#include "core/hetpipe.h"
#include "model/vgg.h"
#include "wsp/sync_policy.h"

int main() {
  using namespace hetpipe;
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildVgg19();
  const core::ConvergenceModel conv = core::ConvergenceModel::For(graph.family());
  constexpr double kTarget = 0.67;

  std::printf("WSP staleness trade-off — %s, ED-local, 4 virtual workers\n\n",
              graph.name().c_str());
  std::printf("%6s %10s %12s %14s %16s\n", "D", "img/s", "wait (s)", "staleness",
              "hours to 67%");

  const core::SolveContext context(cluster, graph, 32);
  for (int d : {0, 1, 2, 4, 8, 16, 32}) {
    core::HetPipeConfig config;
    config.allocation = cluster::AllocationPolicy::kEqualDistribution;
    config.placement = wsp::PlacementPolicy::kLocal;
    config.sync = wsp::SyncPolicy::Wsp(d);
    config.jitter_cv = 0.15;
    config.waves = 50;
    const core::HetPipeReport report = core::HetPipe(context, config).Run();
    core::ConvergenceInput input;
    input.throughput_img_s = report.throughput_img_s;
    input.avg_missing_updates = report.AvgMissingUpdates();
    std::printf("%6d %10.0f %12.2f %14.1f %16.1f\n", d, report.throughput_img_s,
                report.total_wait_s, input.avg_missing_updates,
                conv.HoursToAccuracy(input, kTarget));
  }

  std::printf("\nSmall D wastes time in synchronization stalls; huge D lets weights go\n"
              "stale and wastes epochs. The paper (Fig. 6) finds D=4 the sweet spot.\n");
  return 0;
}
