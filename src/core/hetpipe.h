#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "hw/cluster.h"
#include "model/model_graph.h"
#include "model/profiler.h"
#include "partition/partitioner.h"

namespace hetpipe::core {

// The one immutable bundle of what depends only on (cluster, model, batch
// size): HetPipe profiles a model once per cluster (§7), and every experiment
// kind, the baselines and the plan daemon reuse that profile. Members point at
// each other (profile -> graph, partitioner -> profile + cluster), so a
// context is built in place and never copied or moved; it is safe to share
// across threads (runner::ContextMemo does).
struct SolveContext {
  hw::Cluster cluster;
  model::ModelGraph graph;
  model::ModelProfile profile;
  partition::Partitioner partitioner;

  SolveContext(hw::Cluster built_cluster, model::ModelGraph built_graph, int batch_size)
      : cluster(std::move(built_cluster)),
        graph(std::move(built_graph)),
        profile(graph, batch_size),
        partitioner(profile, cluster) {}

  int batch_size() const { return profile.batch_size(); }
};

// Per-virtual-worker results of a run.
struct VwReport {
  std::vector<int> gpu_ids;
  partition::Partition partition;
  int max_nm = 0;                 // Maxm: memory-feasibility bound (§4)
  double throughput_img_s = 0.0;  // steady state, warmup excluded
  double max_stage_utilization = 0.0;
  double wait_s = 0.0;            // blocked on the global staleness gate
  double idle_during_wait_s = 0.0;
};

// Results of a full HetPipe run.
struct HetPipeReport {
  bool feasible = false;
  std::string infeasible_reason;

  int nm = 0;             // common Nm used by every virtual worker
  int64_t s_local = 0;    // Nm - 1
  int64_t s_global = 0;   // (D+1)(s_local+1) + s_local - 1

  double throughput_img_s = 0.0;  // aggregate over virtual workers
  std::vector<VwReport> vws;

  // Synchronization behaviour (§8.4).
  double total_wait_s = 0.0;
  double idle_fraction_of_wait = 0.0;  // "actual idle is only 18% of waiting"
  double avg_clock_distance = 0.0;
  double avg_global_lag_waves = 0.0;  // observed staleness, feeds convergence

  // Average missing updates (in minibatches) seen by an injected minibatch:
  // s_local locally + observed cross-VW lag. Input to the convergence model.
  double AvgMissingUpdates() const;

  std::string Summary() const;
};

// The memory-constrained min-max partition of the virtual worker `gpu_ids`
// at `nm`, through config.partition_cache when it is set.
partition::Partition SolvePartition(const SolveContext& context, const std::vector<int>& gpu_ids,
                                    int nm, const HetPipeConfig& config);

// One virtual worker running `partition` with `nm` minibatches in flight and
// no global gating (Fig. 3 and the partition-only kind): fills the report's
// steady-state throughput and max stage utilization, warmup excluded.
VwReport SimulateSingleWorker(const partition::Partition& partition, int nm,
                              const HetPipeConfig& config);

// HetPipe: allocates GPUs to virtual workers, partitions the model for each,
// and runs the integrated PMP+DP discrete-event simulation under WSP.
class HetPipe {
 public:
  // Runs on `context` (caller-owned, must outlive the HetPipe). Throws
  // std::invalid_argument when config.batch_size is not the batch size the
  // context's profile was built for.
  HetPipe(const SolveContext& context, HetPipeConfig config);

  // End-to-end run (Fig. 4 / Table 4 style experiments).
  HetPipeReport Run() const;

  // Runs a single virtual worker made of `gpu_ids` with a fixed nm and no
  // global gating — the Fig. 3 experiment.
  HetPipeReport RunSingleVirtualWorker(const std::vector<int>& gpu_ids, int nm) const;

 private:
  const SolveContext* context_;
  HetPipeConfig config_;
};

}  // namespace hetpipe::core
