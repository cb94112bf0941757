// Output checks: what the plan service must answer for a request, computed
// directly with Partitioner::SolveScalable outside any timed window.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common.h"
#include "model/model_graph.h"
#include "model/profiler.h"
#include "partition/partitioner.h"
#include "runner/result_sink.h"
#include "serve/protocol.h"

namespace perfbench {

// A solving context like the service's: cluster, model, profile and
// partitioner for one (cluster, model) at batch size 32.
struct SolveContext {
  hw::Cluster cluster;
  model::ModelGraph graph;
  model::ModelProfile profile;
  partition::Partitioner partitioner;
  SolveContext(hw::Cluster c, model::ModelGraph g, int batch_size)
      : cluster(std::move(c)), graph(std::move(g)), profile(graph, batch_size),
        partitioner(profile, cluster) {}
};
std::unique_ptr<SolveContext> BuildContext(const serve::PlanRequest& request);

// The partition options the service derives from a request.
partition::PartitionOptions OptionsFor(const serve::PlanRequest& request);

// The response fields a correct service returns for `request`: feasible,
// bottleneck_time_s and stages (plus max_nm for max_nm requests).
runner::ResultRow ExpectedFields(const serve::PlanRequest& request, const SolveContext& context);

// Compares a raw response against the expected fields; empty when it
// matches, else a one-line reason. `error_code` receives the response's
// error_code when it is not ok.
std::string CompareResponse(const std::string& response_json, const runner::ResultRow& expected,
                            std::string* error_code);

// The service's stage rendering (docs/serve-protocol.md).
std::string StagesToString(const partition::Partition& partition);

}  // namespace perfbench
