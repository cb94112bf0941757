#include "layers.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "checks.h"
#include "hw/cluster_spec.h"
#include "runner/partition_cache.h"
#include "runner/sweep_runner.h"
#include "serve/plan_service.h"
#include "store/extent_writer.h"

namespace perfbench {
namespace {

// A solving context built one layer at a time, each under its own span.
struct StagedContext {
  std::unique_ptr<hw::Cluster> cluster;
  std::unique_ptr<model::ModelGraph> graph;
  std::unique_ptr<model::ModelProfile> profile;
  std::unique_ptr<partition::Partitioner> partitioner;
};

std::unique_ptr<StagedContext> BuildStaged(const serve::PlanRequest& request, Tracer* tracer,
                                           int64_t op) {
  ScopedSpan span(tracer, "serve.context_build", op);
  auto context = std::make_unique<StagedContext>();
  if (request.cluster_spec.empty()) {
    ScopedSpan build(tracer, "hw.cluster_build", op);
    context->cluster =
        std::make_unique<hw::Cluster>(hw::Cluster::PaperSubset(request.cluster_nodes));
  } else {
    std::optional<hw::ClusterSpec> spec;
    {
      ScopedSpan parse(tracer, "hw.spec_parse", op);
      spec = hw::ClusterSpec::Parse(request.cluster_spec);
    }
    ScopedSpan build(tracer, "hw.cluster_build", op);
    context->cluster = std::make_unique<hw::Cluster>(spec->Build());
  }
  context->graph = std::make_unique<model::ModelGraph>(core::BuildModel(
      request.model == "vgg19" ? core::ModelKind::kVgg19 : core::ModelKind::kResNet152));
  {
    ScopedSpan profile(tracer, "model.profile", op);
    context->profile = std::make_unique<model::ModelProfile>(*context->graph, request.batch_size);
  }
  context->partitioner =
      std::make_unique<partition::Partitioner>(*context->profile, *context->cluster);
  return context;
}

const char* TierSpanName(partition::SearchStrategy tier) {
  switch (tier) {
    case partition::SearchStrategy::kBeam:
      return "partition.beam";
    case partition::SearchStrategy::kHierarchical:
      return "partition.hierarchical";
    default:
      return "partition.exact";
  }
}

void LayerFailed(Report* report, const std::string& what, int64_t* failures) {
  ++*failures;
  report->CheckFailed("layer pass: " + what);
}

// Iterations of the request section (each records four spans).
constexpr int64_t kMaxRequestSamples = 20000;

// Handle, parse, encode and frame over the workload's requests.
void RequestSection(const LayerInputs& inputs, double deadline, Tracer* tracer, Report* report,
                    int64_t* failures) {
  runner::PartitionCache cache;
  serve::PlanService service(&cache);
  std::vector<std::string> cold_payloads;
  if (inputs.hot != nullptr) {
    for (const std::string& payload : inputs.hot->payloads) service.HandleJson(payload);
  } else {
    for (const serve::PlanRequest& request : inputs.cold_requests) {
      cold_payloads.push_back(PayloadOf(request));
    }
  }
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    LayerFailed(report, "socketpair", failures);
    return;
  }
  Rng rng(7);
  for (int64_t op = 0; op < kMaxRequestSamples && NowS() < deadline; ++op) {
    if (inputs.hot == nullptr && op >= static_cast<int64_t>(cold_payloads.size())) break;
    const std::string& payload =
        inputs.hot != nullptr ? inputs.hot->payloads[static_cast<size_t>(inputs.hot->Draw(rng))]
                              : cold_payloads[static_cast<size_t>(op)];
    ++report->attempted;
    runner::ResultRow row;
    {
      ScopedSpan span(tracer, "serve.handle", op);
      row = service.HandleJson(payload);
    }
    if (row.Get("ok") != "true") LayerFailed(report, "HandleJson: " + row.Get("error"), failures);
    serve::PlanRequest request;
    serve::ErrorCode code = serve::ErrorCode::kNone;
    std::string error;
    bool parsed = false;
    {
      ScopedSpan span(tracer, "serve.parse", op);
      parsed = serve::ParsePlanRequest(payload, &request, &code, &error);
    }
    if (!parsed) LayerFailed(report, "ParsePlanRequest: " + error, failures);
    std::string json;
    {
      ScopedSpan span(tracer, "serve.encode", op);
      json = runner::RowToJson(row);
    }
    std::string echoed;
    bool framed = false;
    {
      ScopedSpan span(tracer, "serve.frame", op);
      framed = serve::WriteFrame(fds[0], json, serve::kDefaultMaxFrameBytes, &error) &&
               serve::ReadFrame(fds[1], serve::kDefaultMaxFrameBytes, &echoed, &error) ==
                   serve::FrameResult::kFrame;
    }
    if (!framed || echoed != json) LayerFailed(report, "frame round trip: " + error, failures);
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

// Context build, search tiers, max_nm and the partition cache's miss and
// hit paths over the workload's (and companion) plan inputs.
void SearchSection(const LayerInputs& inputs, double deadline, Tracer* tracer, Report* report,
                   int64_t* failures) {
  runner::PartitionCache cache;
  for (size_t i = 0; i < inputs.cold_requests.size() && NowS() < deadline; ++i) {
    const serve::PlanRequest& request = inputs.cold_requests[i];
    const int64_t op = static_cast<int64_t>(i);
    ++report->attempted;
    try {
      std::unique_ptr<StagedContext> context = BuildStaged(request, tracer, op);
      const std::vector<int> gpu_ids = core::PickGpus(*context->cluster, request.selector);
      const partition::PartitionOptions options = OptionsFor(request);
      const partition::Partitioner& partitioner = *context->partitioner;
      const partition::SearchStrategy tier =
          partition::ResolveSearchStrategy(*context->cluster, gpu_ids, options);
      {
        ScopedSpan span(tracer, TierSpanName(tier), op);
        partitioner.SolveScalable(gpu_ids, options);
      }
      if (request.op == "max_nm") {
        ScopedSpan span(tracer, "partition.max_nm", op);
        partition::FindMaxNmWith(
            [&](const partition::PartitionOptions& o) {
              return partitioner.SolveScalable(gpu_ids, o);
            },
            request.nm_cap, options);
      }
      bool hit = false;
      double t0 = NowS();
      cache.Solve(partitioner, gpu_ids, options, &hit);
      if (!hit && tracer != nullptr) tracer->Record("runner.cache_miss", t0, NowS(), op);
      // Repeated hits: the hot path is short, so one sample is noise.
      for (int k = 0; k < 8; ++k) {
        t0 = NowS();
        cache.Solve(partitioner, gpu_ids, options, &hit);
        if (hit && tracer != nullptr) tracer->Record("runner.cache_hit", t0, NowS(), op);
      }
      if (!hit) LayerFailed(report, "PartitionCache::Solve missed a key it holds", failures);
    } catch (const std::exception& e) {
      LayerFailed(report, std::string("search section: ") + e.what(), failures);
    }
  }
}

// Every experiment on a cold partition cache, then again on the warm one.
void ExperimentSection(const LayerInputs& inputs, double deadline, Tracer* tracer, Report* report,
                       int64_t* failures) {
  for (size_t i = 0; i < inputs.experiments.size(); ++i) {
    // The first job holds every kind; finish it even past the deadline.
    if (i >= static_cast<size_t>(kSweepJobSize) && NowS() >= deadline) break;
    const int64_t op = static_cast<int64_t>(i);
    runner::PartitionCache cache;
    core::Experiment experiment = inputs.experiments[i];
    experiment.config.partition_cache = &cache;
    report->attempted += 2;
    try {
      {
        ScopedSpan span(tracer, ExperimentSpanName(experiment.kind, false), op);
        core::RunExperiment(experiment);
      }
      ScopedSpan span(tracer, ExperimentSpanName(experiment.kind, true), op);
      core::RunExperiment(experiment);
    } catch (const std::exception& e) {
      LayerFailed(report, std::string("RunExperiment: ") + e.what(), failures);
    }
  }
}

}  // namespace

const char* ExperimentSpanName(core::ExperimentKind kind, bool warm) {
  switch (kind) {
    case core::ExperimentKind::kFullCluster:
      return warm ? "core.experiment_warm.full_cluster" : "core.experiment.full_cluster";
    case core::ExperimentKind::kSingleVirtualWorker:
      return warm ? "core.experiment_warm.single_vw" : "core.experiment.single_vw";
    case core::ExperimentKind::kPartitionOnly:
      return warm ? "core.experiment_warm.partition" : "core.experiment.partition";
    case core::ExperimentKind::kHorovod:
      return warm ? "core.experiment_warm.horovod" : "core.experiment.horovod";
    case core::ExperimentKind::kPsDataParallel:
      return warm ? "core.experiment_warm.ps_dp" : "core.experiment.ps_dp";
    case core::ExperimentKind::kAdPsgd:
      return warm ? "core.experiment_warm.ad_psgd" : "core.experiment.ad_psgd";
  }
  return "core.experiment.unknown";
}

void RunLayerPass(const LayerInputs& inputs, double seconds, Tracer* tracer, Report* report) {
  // Cumulative deadlines: time a section leaves unused goes to the next.
  int64_t failures = 0;
  const double start = NowS();
  RequestSection(inputs, start + seconds / 3.0, tracer, report, &failures);
  SearchSection(inputs, start + seconds * 2.0 / 3.0, tracer, report, &failures);
  ExperimentSection(inputs, start + seconds, tracer, report, &failures);
  report->Set("layers.failed", static_cast<double>(failures), "count");
}

TracedSweepResult TracedSweep(const std::vector<std::vector<core::Experiment>>& jobs,
                              runner::ThreadPool* pool, bool cold,
                              const std::string& hds_path, Tracer* tracer, Report* report) {
  runner::PartitionCache cache;
  runner::SweepOptions options;
  options.cache = &cache;
  options.pool = pool;
  runner::SweepRunner runner(options);
  std::string error;
  std::unique_ptr<store::StoreSink> sink = store::StoreSink::Open(hds_path, &error);
  if (sink == nullptr) {
    report->CheckFailed("StoreSink::Open: " + error);
    return {};
  }
  TracedSweepResult out;
  double busy = 0.0;
  double store_s = 0.0;
  const double start = NowS();
  for (const std::vector<core::Experiment>& job : jobs) {
    if (cold) {
      out.cache_hits += cache.hits();
      out.cache_misses += cache.misses();
      out.cache_evictions += cache.evictions();
      cache.Clear();
    }
    const int64_t n = static_cast<int64_t>(job.size());
    std::vector<core::ExperimentResult> results(job.size());
    std::vector<double> job_busy(job.size(), 0.0);
    std::vector<std::string> errors(job.size());
    // SweepRunner::Run's body with a span per experiment: the same plumbing
    // of the sweep's cache and pool into each experiment.
    runner.Map<char>(n, [&](int64_t i) -> char {
      const size_t k = static_cast<size_t>(i);
      core::Experiment experiment = job[k];
      experiment.config.partition_cache = &runner.cache();
      experiment.config.pool = &runner.pool();
      ScopedSpan span(tracer, "sweep.experiment", out.experiments + i);
      const double t0 = NowS();
      try {
        results[k] = core::RunExperiment(experiment);
      } catch (const std::exception& e) {
        errors[k] = e.what();
      }
      job_busy[k] = NowS() - t0;
      return 0;
    });
    const double t0 = NowS();
    {
      ScopedSpan span(tracer, "store.encode");
      for (size_t k = 0; k < job.size(); ++k) sink->Write(runner::RowFor(job[k], results[k]));
      sink->Flush();
    }
    store_s += NowS() - t0;
    for (size_t k = 0; k < job.size(); ++k) {
      busy += job_busy[k];
      if (!errors[k].empty()) report->CheckFailed("RunExperiment: " + errors[k]);
    }
    out.experiments += n;
  }
  const double t0 = NowS();
  {
    ScopedSpan span(tracer, "store.encode");
    if (!sink->Close(&error)) report->CheckFailed("StoreSink::Close: " + error);
  }
  store_s += NowS() - t0;
  out.wall_s = NowS() - start;
  report->attempted += out.experiments;
  const double rows = static_cast<double>(std::max<int64_t>(1, out.experiments));
  report->Set("store.encode_us_per_row", store_s * 1e6 / rows, "us");
  report->Set("runner.pool_idle_share", 1.0 - busy / (pool->num_threads() * out.wall_s), "share");
  out.cache_hits += cache.hits();
  out.cache_misses += cache.misses();
  out.cache_evictions += cache.evictions();
  return out;
}

void SummarizeLayers(const Tracer& tracer, Report* report) {
  struct Layer {
    const char* span;
    const char* metric;
    double scale;
    const char* unit;
  };
  static const Layer kLayers[] = {
      {"serve.handle", "serve.handle_us", 1e6, "us"},
      {"serve.parse", "serve.parse_us", 1e6, "us"},
      {"serve.encode", "serve.encode_us", 1e6, "us"},
      {"serve.frame", "serve.frame_us", 1e6, "us"},
      {"serve.context_build", "serve.context_build_ms", 1e3, "ms"},
      {"hw.spec_parse", "hw.spec_parse_us", 1e6, "us"},
      {"hw.cluster_build", "hw.cluster_build_us", 1e6, "us"},
      {"model.profile", "model.profile_ms", 1e3, "ms"},
      {"runner.cache_hit", "runner.cache_hit_us", 1e6, "us"},
      {"runner.cache_miss", "runner.cache_miss_ms", 1e3, "ms"},
      {"partition.exact", "partition.exact_ms", 1e3, "ms"},
      {"partition.beam", "partition.beam_ms", 1e3, "ms"},
      {"partition.hierarchical", "partition.hierarchical_ms", 1e3, "ms"},
      {"partition.max_nm", "partition.max_nm_ms", 1e3, "ms"},
  };
  const std::map<std::string, SpanStats> stats = tracer.Summarize();
  // A layer without spans was never measured: it fails the run rather than
  // reading as a perfect 0, and so does a span lost at the tracer's cap.
  int64_t unmeasured = 0;
  auto median_of = [&](const char* span) {
    auto it = stats.find(span);
    if (it != stats.end()) return Median(it->second.self_s);
    ++unmeasured;
    report->CheckFailed(std::string("layer ") + span + " has no spans");
    return 0.0;
  };
  auto count_of = [&](const char* span) {
    auto it = stats.find(span);
    return it == stats.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  for (const Layer& layer : kLayers) {
    report->Set(layer.metric, median_of(layer.span) * layer.scale, layer.unit);
  }
  report->Set("partition.exact_count", count_of("partition.exact"), "count");
  report->Set("partition.beam_count", count_of("partition.beam"), "count");
  report->Set("partition.hierarchical_count", count_of("partition.hierarchical"), "count");
  const core::ExperimentKind kKinds[] = {
      core::ExperimentKind::kFullCluster, core::ExperimentKind::kSingleVirtualWorker,
      core::ExperimentKind::kPartitionOnly, core::ExperimentKind::kHorovod,
      core::ExperimentKind::kPsDataParallel, core::ExperimentKind::kAdPsgd};
  for (core::ExperimentKind kind : kKinds) {
    for (bool warm : {false, true}) {
      const std::string span = ExperimentSpanName(kind, warm);
      // "core.experiment.<kind>" -> "core.experiment_ms.<kind>".
      const size_t dot = span.find('.', 5);
      report->Set(span.substr(0, dot) + "_ms" + span.substr(dot), median_of(span.c_str()) * 1e3,
                  "ms");
    }
  }
  if (tracer.dropped() > 0) {
    ++unmeasured;
    report->CheckFailed(std::to_string(tracer.dropped()) + " spans dropped at the tracer's cap");
  }
  report->Set("layers.failed", report->metrics["layers.failed"].first + unmeasured, "count");
  std::printf("trace: %lld spans recorded, %lld dropped\n",
              static_cast<long long>(tracer.recorded()), static_cast<long long>(tracer.dropped()));
  for (const auto& [name, s] : stats) {
    std::printf("span %-34s n=%-7lld self_p50=%.3fus self_p99=%.3fus\n", name.c_str(),
                static_cast<long long>(s.count), Median(s.self_s) * 1e6,
                Quantile(s.self_s, 0.99) * 1e6);
  }
}

}  // namespace perfbench
