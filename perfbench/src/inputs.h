// Seeded input generators of the three workloads. Every generator is a pure
// function of (seed, index): the same seed always yields the same requests
// and experiments, and the program under test only ever sees their output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/experiment.h"
#include "serve/protocol.h"

namespace perfbench {

// serve-hot: a pool of distinct plan/max_nm requests over paper-testbed
// subsets x selectors x models x Nm, drawn Zipf(1) by a seeded rank order.
struct HotPool {
  std::vector<serve::PlanRequest> requests;  // distinct keys, id "h<k>"
  std::vector<std::string> payloads;         // wire JSON of each request
  std::vector<int> rank_to_key;              // Zipf rank -> request index
  std::vector<double> cumulative;            // Zipf(1) CDF over ranks

  int Draw(Rng& rng) const;
};
HotPool MakeHotPool(uint64_t seed, int size);

// serve-cold: request `index` carries its own racked heterogeneous cluster
// spec (8-32 GPUs over a fixed set of GPU classes) and a 4-16 GPU virtual
// worker shaped so that indices cycle exact, exact, beam, hierarchical.
serve::PlanRequest MakeColdRequest(uint64_t seed, int index);

// `count` serve-cold requests from an index range no timed step reaches, for
// the traced runs' layer pass.
std::vector<serve::PlanRequest> LayerPassColdRequests(uint64_t seed, int count);

// sweep: `jobs` figure-sized jobs of 16 experiments each, every job holding
// every experiment kind in fixed numbers, over a seeded pool of paper
// subsets and generated 4 x 4 specs.
constexpr int kSweepJobSize = 16;
std::vector<std::vector<core::Experiment>> MakeSweepJobs(uint64_t seed, int jobs);

// The wire JSON of a request (the bytes a client sends).
std::string PayloadOf(const serve::PlanRequest& request);

}  // namespace perfbench
