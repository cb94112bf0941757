#include "checks.h"

#include "core/experiment.h"
#include "hw/cluster_spec.h"
#include "hw/gpu_spec.h"

namespace perfbench {

std::unique_ptr<SolveContext> BuildContext(const serve::PlanRequest& request) {
  hw::Cluster cluster = request.cluster_spec.empty()
                            ? hw::Cluster::PaperSubset(request.cluster_nodes)
                            : hw::ClusterSpec::Parse(request.cluster_spec).Build();
  const core::ModelKind kind = request.model == "vgg19" ? core::ModelKind::kVgg19
                                                        : core::ModelKind::kResNet152;
  return std::make_unique<SolveContext>(std::move(cluster), core::BuildModel(kind),
                                        request.batch_size);
}

partition::PartitionOptions OptionsFor(const serve::PlanRequest& request) {
  partition::PartitionOptions options;
  options.nm = request.nm;
  options.search_gpu_orders = request.search_orders;
  partition::ParseSearchStrategy(request.strategy, &options.strategy);
  options.beam_width = request.beam_width;
  options.rack_order_limit = request.rack_order_limit;
  return options;
}

std::string StagesToString(const partition::Partition& partition) {
  std::string out;
  for (const partition::StageAssignment& stage : partition.stages) {
    if (!out.empty()) out += "|";
    out += std::to_string(stage.first_layer) + "-" + std::to_string(stage.last_layer) +
           ":gpu" + std::to_string(stage.gpu_id) + ":node" + std::to_string(stage.node) + ":" +
           hw::SpecOf(stage.gpu_type).name;
  }
  return out;
}

runner::ResultRow ExpectedFields(const serve::PlanRequest& request, const SolveContext& context) {
  const std::vector<int> gpu_ids = core::PickGpus(context.cluster, request.selector);
  partition::PartitionOptions options = OptionsFor(request);
  const partition::Partitioner& partitioner = context.partitioner;
  runner::ResultRow row;
  auto fill = [&](const partition::Partition& p) {
    row.Set("feasible", p.feasible);
    row.Set("bottleneck_time_s", p.bottleneck_time);
    row.Set("stages", StagesToString(p));
  };
  if (request.op == "max_nm") {
    const int max_nm = partition::FindMaxNmWith(
        [&](const partition::PartitionOptions& o) { return partitioner.SolveScalable(gpu_ids, o); },
        request.nm_cap, options);
    row.Set("max_nm", max_nm);
    if (max_nm > 0) {
      options.nm = max_nm;
      fill(partitioner.SolveScalable(gpu_ids, options));
    } else {
      row.Set("feasible", false);
    }
  } else {
    fill(partitioner.SolveScalable(gpu_ids, options));
  }
  return row;
}

namespace {

bool SameValue(const serve::JsonValue& a, const serve::JsonValue& b) {
  if (a.type != b.type) return false;
  switch (a.type) {
    case serve::JsonValue::Type::kNumber:
      return a.num == b.num;
    case serve::JsonValue::Type::kBool:
      return a.boolean == b.boolean;
    default:
      return a.str == b.str;
  }
}

}  // namespace

std::string CompareResponse(const std::string& response_json, const runner::ResultRow& expected,
                            std::string* error_code) {
  std::map<std::string, serve::JsonValue> got;
  std::string error;
  if (!serve::ParseJsonObject(response_json, &got, &error)) return "unparseable response: " + error;
  auto ok = got.find("ok");
  if (ok == got.end() || ok->second.type != serve::JsonValue::Type::kBool || !ok->second.boolean) {
    auto code = got.find("error_code");
    *error_code = code == got.end() ? "missing" : code->second.str;
    return "ok is not true (" + *error_code + ")";
  }
  // Expected values go through the same encoder and reader as the wire, so
  // equal doubles compare equal at the wire's precision.
  std::map<std::string, serve::JsonValue> want;
  serve::ParseJsonObject(runner::RowToJson(expected), &want, &error);
  for (const auto& [key, value] : want) {
    auto it = got.find(key);
    if (it == got.end()) return "missing field " + key;
    if (!SameValue(it->second, value)) return "field " + key + " differs from SolveScalable";
  }
  return "";
}

}  // namespace perfbench
