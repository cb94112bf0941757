// serve-hot and serve-cold: an open loop with seeded Poisson arrivals over
// loopback TCP against an in-process serve::PlanServer, plus the output
// checks against direct Partitioner::SolveScalable answers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "trace.h"

namespace perfbench {

// One serve workload's fixed settings; rates are requests per second.
struct ServeSettings {
  bool hot = true;             // serve-hot, else serve-cold
  double limit_ms = 1.0;       // p99 latency limit of a passing step
  double base_rps = 0.0;       // p50_ms / p99_ms are measured here
  double base_s = 0.0;
  double peak_rps = 0.0;       // p99_ms_peak is measured here
  double peak_s = 0.0;
  double burst_s = 0.0;        // closed-loop saturation burst (exps_per_s)
  std::vector<double> ladder;  // fixed offered rates, ascending (max_rps)
  double step_s = 1.0;         // duration of one ladder step
  int64_t cache_capacity = 0;  // partition-cache bound (0 = unbounded)
};

// The settings of "serve-hot" or "serve-cold"; null for any other name.
const ServeSettings* FindServeSettings(const std::string& workload);

// serve-hot: distinct requests in the pool.
constexpr int kHotKeys = 320;

// Untraced run: repeated set-up, then base, peak, burst and the ladder until
// `seconds` have passed. Fills every end-to-end metric; false when the
// generator fell behind (the run is then invalid, not slow).
bool RunServeEndToEnd(const ServeSettings& settings, uint64_t seed, double seconds,
                      Report* report);

// Traced run: an untraced and a traced base/peak pass (their difference is
// the tracing overhead), with the per-request wait split, load-generator and
// cache counters, and the per-layer pass over this workload's inputs.
bool RunServeTraced(const ServeSettings& settings, uint64_t seed, double seconds,
                    Tracer* tracer, Report* report);

// For a workload whose own path never reaches the server: one traced
// serve-hot step at kCompanionRps, for serve.wait_us_*, loadgen.* and
// serve.errors.
constexpr double kCompanionRps = 500.0;
bool CompanionServeStep(uint64_t seed, double seconds, Tracer* tracer, Report* report);

}  // namespace perfbench
