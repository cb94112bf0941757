// The per-layer pass of a traced run: spans around the benchmark's own calls
// into each module's public functions, over the workload's own inputs and,
// for layers its path never reaches, a small companion sample generated from
// the same seed. Summarize turns the spans into the per-layer metrics.
#pragma once

#include <vector>

#include "common.h"
#include "core/experiment.h"
#include "inputs.h"
#include "runner/thread_pool.h"
#include "serve/protocol.h"
#include "trace.h"

namespace perfbench {

// Cold requests a traced run adds for the search layers when its own
// workload never reaches them.
constexpr int kCompanionColdRequests = 24;

struct LayerInputs {
  // Request path (handle, parse, encode, frame): hot requests drawn Zipf(1)
  // from `hot`, or every request of `cold_requests` when `hot` is null.
  const HotPool* hot = nullptr;
  // Context and search path (spec parse, build, profile, tiers, cache).
  std::vector<serve::PlanRequest> cold_requests;
  // Experiments, run on a cold and then a warm partition cache.
  std::vector<core::Experiment> experiments;
};

// Runs the three sections within `seconds`, each for at most a third plus
// what the sections before it left. Failures count in report->failed and in
// the layers.failed metric.
void RunLayerPass(const LayerInputs& inputs, double seconds, Tracer* tracer, Report* report);

// One traced sweep pass: each job runs like SweepRunner::Run on `pool` with
// a partition cache fresh for the pass (or, with `cold`, for every job), with
// a span per experiment, and its rows go to a .hds file under a span. Fills runner.pool_idle_share (1 - busy / (threads
// x wall)) and store.encode_us_per_row.
struct TracedSweepResult {
  double wall_s = 0.0;
  int64_t experiments = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
};
TracedSweepResult TracedSweep(const std::vector<std::vector<core::Experiment>>& jobs,
                              runner::ThreadPool* pool, bool cold,
                              const std::string& hds_path, Tracer* tracer, Report* report);

// Per-layer metrics from the recorded spans (median self time per layer,
// plus tier counts). A layer without spans, or any span dropped at the
// tracer's cap, counts in layers.failed and fails the run.
void SummarizeLayers(const Tracer& tracer, Report* report);

// Name of the span RunExperiment gets for `kind` (cold or warm cache).
const char* ExperimentSpanName(core::ExperimentKind kind, bool warm);

}  // namespace perfbench
