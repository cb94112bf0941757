// sweep and sweep-cold: a closed-loop batch of figure-sized jobs through
// runner::SweepRunner with a fresh partition cache per pass (sweep) or per
// job (sweep-cold), rows to a .hds store::StoreSink, and the read-back and
// determinism checks.
#pragma once

#include <cstdint>

#include "common.h"
#include "trace.h"

namespace perfbench {

// Jobs of kSweepJobSize experiments in the list.
constexpr int kSweepJobs = 300;

// Untraced run, in rounds until `seconds` have passed: one client runs the
// whole list on a pool of half the cores (exps_per_s, job p50/p99), then two
// clients split it on a pool one thread smaller (job p99 at peak, jobs per
// second).
bool RunSweepEndToEnd(uint64_t seed, double seconds, bool cold, Report* report);

// Traced run: an untraced and a traced pass (the tracing overhead), pool
// idle share and store cost from the traced pass, then the per-layer pass.
bool RunSweepTraced(uint64_t seed, double seconds, bool cold, Tracer* tracer, Report* report);

}  // namespace perfbench
