#include "partition/partitioner.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>
#include <set>
#include <utility>

#include "runner/thread_pool.h"
#include "util/binary_io.h"

namespace hetpipe::partition {

bool ImprovesPartition(const Partition& candidate, const Partition& best) {
  if (!candidate.feasible) {
    return false;
  }
  return !best.feasible || candidate.bottleneck_time < best.bottleneck_time ||
         (candidate.bottleneck_time == best.bottleneck_time &&
          candidate.sum_time < best.sum_time);
}

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Shorthand for the shared first-wins improvement rule declared in the
// header; the searches below visit candidates in enumeration order.
bool Improves(const Partition& candidate, const Partition& best) {
  return ImprovesPartition(candidate, best);
}

// Flat scratch buffers for SolveFixedOrder, one set per thread (the GPU-order
// search runs SolveFixedOrder concurrently on pool workers). Buffers only
// ever grow, so after the first solve of the largest (k, n) shape a thread
// sees, repeated solves allocate nothing.
struct DpScratch {
  std::vector<double> dp;          // (k+1) x (n+1), row-major
  std::vector<int> choice;         // (k+1) x (n+1), row-major
  std::vector<double> xfer;        // (k-1) x (n-1): boundary transfer seconds
  std::vector<double> fwd_xfer;    // n: per-row shifted fwd-comm terms (SoA)
  std::vector<double> vals;        // n: masked candidate bottlenecks (SoA)
  std::vector<hw::GpuType> types;  // k
  std::vector<uint64_t> mem_caps;  // k
  std::vector<int> lasts;          // k
  int64_t grows = 0;

  template <typename T>
  T* Ensure(std::vector<T>& v, size_t need) {
    if (v.size() < need) {
      if (v.capacity() < need) {
        ++grows;
      }
      v.resize(need);
    }
    return v.data();
  }
};

DpScratch& LocalScratch() {
  static thread_local DpScratch scratch;
  return scratch;
}

// Appends the distinct (type, node) orderings of `ids` (sorted ascending) to
// `orders`, each realized by its minimal GPU-id representative (every class's
// ids appear in ascending order), in lexicographic order of those
// representatives. That is exactly the sequence the old factorial
// next_permutation + string-signature dedup scan produced — the first
// permutation reaching a signature is its minimal representative, and first
// occurrences appear in representative order — so downstream "first wins"
// tie-breaks are unchanged. Cost is O(#distinct-orders * k^2) instead of
// O(k! * k): with repeated GPU classes (homogeneous and mixed-node VWs, the
// common case) the distinct count is the multinomial, not the factorial.
struct ClassGroup {
  hw::GpuType type;
  int node;
  std::vector<int> ids;  // ascending
  size_t used = 0;
};

void EmitClassOrders(std::vector<ClassGroup>& groups, std::vector<int>& current, size_t k,
                     std::vector<std::vector<int>>& orders) {
  if (current.size() == k) {
    orders.push_back(current);
    return;
  }
  // Candidates: the next unused id of each class, tried in ascending id
  // order, which yields representatives lexicographically.
  std::vector<std::pair<int, size_t>> candidates;
  candidates.reserve(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].used < groups[g].ids.size()) {
      candidates.emplace_back(groups[g].ids[groups[g].used], g);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  for (const auto& [id, g] : candidates) {
    ++groups[g].used;
    current.push_back(id);
    EmitClassOrders(groups, current, k, orders);
    current.pop_back();
    --groups[g].used;
  }
}

}  // namespace

std::vector<std::vector<int>> DistinctClassOrders(const hw::Cluster& cluster,
                                                  std::vector<int> ids) {
  std::sort(ids.begin(), ids.end());
  std::vector<ClassGroup> groups;
  for (int id : ids) {
    const hw::Gpu& gpu = cluster.gpu(id);
    ClassGroup* group = nullptr;
    for (ClassGroup& existing : groups) {
      if (existing.type == gpu.type && existing.node == gpu.node) {
        group = &existing;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back(ClassGroup{gpu.type, gpu.node, {}, 0});
      group = &groups.back();
    }
    group->ids.push_back(id);
  }
  std::vector<std::vector<int>> orders;
  std::vector<int> current;
  current.reserve(ids.size());
  EmitClassOrders(groups, current, ids.size(), orders);
  return orders;
}

int64_t DpScratchGrowCount() { return LocalScratch().grows; }

std::string Partition::ToString(const model::ModelProfile& profile) const {
  if (!feasible) {
    return "infeasible";
  }
  std::string out;
  out.reserve(24 + stages.size() * 64);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "bottleneck %g ms:", bottleneck_time * 1e3);
  out += buf;
  for (const StageAssignment& s : stages) {
    out += " [";
    out += profile.graph().layer(s.first_layer).name;
    out += "..";
    out += profile.graph().layer(s.last_layer).name;
    out += " on ";
    out += hw::CodeOf(s.gpu_type);
    std::snprintf(buf, sizeof(buf), " %gms %lluMiB]", s.TotalTime() * 1e3,
                  static_cast<unsigned long long>(s.memory_bytes >> 20));
    out += buf;
  }
  return out;
}

Partitioner::Partitioner(const model::ModelProfile& profile, const hw::Cluster& cluster)
    : profile_(&profile), cluster_(&cluster) {}

namespace {

// The distinct GPU classes present in `cluster`, ordered by name so the
// result is independent of registration order (and thus of the process).
std::vector<const hw::GpuSpec*> PresentSpecs(const hw::Cluster& cluster) {
  std::vector<const hw::GpuSpec*> specs;
  for (const hw::Gpu& gpu : cluster.gpus()) {
    const hw::GpuSpec& spec = hw::SpecOf(gpu.type);
    bool known = false;
    for (const hw::GpuSpec* s : specs) {
      known = known || s == &spec;
    }
    if (!known) {
      specs.push_back(&spec);
    }
  }
  std::sort(specs.begin(), specs.end(),
            [](const hw::GpuSpec* a, const hw::GpuSpec* b) {
              return std::strcmp(a->name, b->name) < 0;
            });
  return specs;
}

// Everything the per-layer cost model feeds the partitioner: compute times on
// every GPU class present in the cluster, boundary transfer sizes, stash and
// param bytes (memory model), and the class identities (name, declared
// TFLOPS, memory capacity) those times and caps derive from. Value-based, so
// two processes that build the same cluster spec agree on the fingerprint.
uint64_t ProfileFingerprint(const model::ModelProfile& profile, const hw::Cluster& cluster) {
  const std::vector<const hw::GpuSpec*> specs = PresentSpecs(cluster);
  util::Fnv1a fp;
  fp.Mix(profile.graph().name());
  fp.Mix(static_cast<uint64_t>(profile.batch_size()));
  for (const hw::GpuSpec* spec : specs) {
    fp.Mix(std::string(spec->name));
    fp.Mix(spec->effective_tflops);
    fp.Mix(spec->memory_gib);
  }
  for (int layer = 0; layer < profile.num_layers(); ++layer) {
    for (const hw::GpuSpec* spec : specs) {
      const model::LayerTime& t = profile.TimeOf(layer, spec->type);
      fp.Mix(t.fwd_s);
      fp.Mix(t.bwd_s);
    }
    fp.Mix(profile.BoundaryTransferBytes(layer));
    fp.Mix(profile.graph().layer(layer).param_bytes);
    fp.Mix(profile.graph().StashBytesInRange(layer, layer));
  }
  return fp.value();
}

}  // namespace

uint64_t Partitioner::ContextFingerprint() const {
  std::call_once(context_once_, [this] {
    util::Fnv1a fp;
    fp.Mix(ProfileFingerprint(*profile_, *cluster_));
    fp.Mix(cluster_->ToString());
    // Two probes at distinct non-zero sizes fully characterize each affine
    // link model: t(1) = latency + 1/bw and t(1 MiB) = latency + 1 MiB/bw pin
    // down both coefficients, so clusters differing in any link knob —
    // bandwidth, scaling/efficiency, or latency/intercept — never share a
    // key. (A 0-byte probe would be blind to latency: TransferTime(0) is 0
    // by definition, so latency-only and latency+bandwidth-aliased changes
    // could collide.)
    fp.Mix(cluster_->pcie().TransferTime(1));
    fp.Mix(cluster_->pcie().TransferTime(1ULL << 20));
    fp.Mix(cluster_->infiniband().TransferTime(1));
    fp.Mix(cluster_->infiniband().TransferTime(1ULL << 20));
    context_fingerprint_ = fp.value();
  });
  return context_fingerprint_;
}

Partition BuildFixedPartition(const model::ModelProfile& profile, const hw::Cluster& cluster,
                              const std::vector<int>& gpu_ids,
                              const std::vector<int>& stage_lasts, int nm,
                              const StageMemoryParams& mem_params) {
  Partition result;
  const int k = static_cast<int>(gpu_ids.size());
  if (k == 0 || stage_lasts.size() != gpu_ids.size() ||
      stage_lasts.back() != profile.num_layers() - 1) {
    return result;
  }

  result.feasible = true;
  int first = 0;
  for (int q = 0; q < k; ++q) {
    StageAssignment stage;
    stage.first_layer = first;
    stage.last_layer = stage_lasts[static_cast<size_t>(q)];
    if (stage.last_layer < stage.first_layer) {
      return Partition{};  // empty stage: malformed boundaries
    }
    stage.gpu_id = gpu_ids[static_cast<size_t>(q)];
    stage.gpu_type = cluster.gpu(stage.gpu_id).type;
    stage.node = cluster.gpu(stage.gpu_id).node;
    stage.fwd_compute_s =
        profile.StageFwdTime(stage.first_layer, stage.last_layer, stage.gpu_type);
    stage.bwd_compute_s =
        profile.StageBwdTime(stage.first_layer, stage.last_layer, stage.gpu_type);
    if (q > 0) {
      const auto& link = cluster.LinkBetween(gpu_ids[static_cast<size_t>(q) - 1],
                                             gpu_ids[static_cast<size_t>(q)]);
      stage.fwd_comm_in_s =
          link.TransferTime(profile.BoundaryTransferBytes(stage.first_layer - 1));
    }
    if (q < k - 1) {
      const auto& link = cluster.LinkBetween(gpu_ids[static_cast<size_t>(q)],
                                             gpu_ids[static_cast<size_t>(q) + 1]);
      stage.bwd_comm_in_s = link.TransferTime(profile.BoundaryTransferBytes(stage.last_layer));
    }
    stage.param_bytes =
        profile.graph().ParamBytesInRange(stage.first_layer, stage.last_layer);
    stage.memory_bytes = StageMemoryBytes(profile, stage.first_layer, stage.last_layer, q, k,
                                          nm, mem_params);
    stage.memory_cap = hw::MemoryBytes(stage.gpu_type);
    result.feasible = result.feasible && stage.memory_bytes <= stage.memory_cap;
    result.bottleneck_time = std::max(result.bottleneck_time, stage.TotalTime());
    result.sum_time += stage.TotalTime();
    result.stages.push_back(stage);
    first = stage.last_layer + 1;
  }
  return result;
}

std::vector<int> NaiveStageLasts(const model::ModelGraph& graph, int k, NaiveSplit kind) {
  std::vector<int> lasts;
  const int n = graph.num_layers();
  switch (kind) {
    case NaiveSplit::kEqualLayers:
      for (int q = 1; q <= k; ++q) {
        lasts.push_back(n * q / k - 1);
      }
      lasts.back() = n - 1;
      break;
    case NaiveSplit::kParamBalanced: {
      const uint64_t per_stage = graph.total_param_bytes() / static_cast<uint64_t>(k);
      uint64_t acc = 0;
      for (int i = 0; i < n; ++i) {
        acc += graph.layer(i).param_bytes;
        if (acc >= per_stage && static_cast<int>(lasts.size()) < k - 1 &&
            n - i - 1 >= k - 1 - static_cast<int>(lasts.size())) {
          lasts.push_back(i);
          acc = 0;
        }
      }
      while (static_cast<int>(lasts.size()) < k) {
        lasts.push_back(n - 1);
      }
      lasts.back() = n - 1;
      break;
    }
  }
  return lasts;
}

Partition Partitioner::SolveFixedOrder(const std::vector<int>& gpu_ids,
                                       const PartitionOptions& options,
                                       double prune_above) const {
  const int n = profile_->num_layers();
  const int k = static_cast<int>(gpu_ids.size());
  Partition result;
  if (k == 0 || n < k) {
    return result;
  }

  DpScratch& scratch = LocalScratch();
  hw::GpuType* types = scratch.Ensure(scratch.types, static_cast<size_t>(k));
  uint64_t* mem_caps = scratch.Ensure(scratch.mem_caps, static_cast<size_t>(k));
  for (int q = 0; q < k; ++q) {
    types[q] = cluster_->gpu(gpu_ids[static_cast<size_t>(q)]).type;
    // Resolved once per order: SpecOf takes the registry lock for classes
    // beyond Table 1, which the O(k n^2) DP loop must not.
    mem_caps[q] = hw::MemoryBytes(types[q]);
  }

  // Transfer seconds across each stage boundary (q -> q+1) for every layer
  // boundary b (the activation after layer b): hoists the two LinkBetween
  // lookups and the virtual TransferTime call out of the DP inner loop into
  // one O(k n) pass per order.
  const int nb = n - 1;
  double* xfer = scratch.Ensure(
      scratch.xfer, static_cast<size_t>(std::max(0, k - 1)) * static_cast<size_t>(nb));
  for (int q = 0; q + 1 < k; ++q) {
    const hw::LinkModel& link = cluster_->LinkBetween(gpu_ids[static_cast<size_t>(q)],
                                                      gpu_ids[static_cast<size_t>(q) + 1]);
    double* row = xfer + static_cast<size_t>(q) * static_cast<size_t>(nb);
    for (int b = 0; b < nb; ++b) {
      row[b] = link.TransferTime(profile_->BoundaryTransferBytes(b));
    }
  }

  // dp[q][i]: minimal bottleneck assigning the first i layers to the first q
  // stages (all non-empty). choice[q][i]: split point achieving it. States
  // whose bottleneck strictly exceeds `prune_above` stay at infinity — any
  // completion would be strictly worse than the incumbent. Flat row-major
  // scratch reused across solves; everything the inner loop touches is a raw
  // array and every arithmetic operation happens in the same order as the
  // reference implementation, so costs, memory sums, and therefore every DP
  // decision are bit-identical to it.
  const uint64_t* param_prefix = profile_->graph().ParamPrefix();
  const uint64_t* stash_prefix = profile_->graph().StashPrefix();
  const StageMemoryParams& mem = options.mem_params;
  const uint64_t batch = static_cast<uint64_t>(profile_->batch_size());

  const size_t stride = static_cast<size_t>(n) + 1;
  const size_t cells = static_cast<size_t>(k + 1) * stride;
  double* dp = scratch.Ensure(scratch.dp, cells);
  int* choice = scratch.Ensure(scratch.choice, cells);
  std::fill(dp, dp + cells, kInf);
  std::fill(choice, choice + cells, -1);
  dp[0] = 0.0;
  for (int q = 1; q <= k; ++q) {
    const int sq = q - 1;  // stage index of the stage this DP row places
    // Stage [j, i-1] on stage sq costs fwd_cum[j][i-1] + bwd_cum[j][i-1]
    // plus the boundary transfers hoisted into xfer above, and needs
    // StageMemoryBytesFromSums(...) bytes evaluated on prefix-sum
    // differences with the per-stage in-flight count hoisted out of the
    // loops (identical operations, identical bits).
    const double* tot_cum = profile_->TotalCumByLast(types[sq]);
    const double* prev_xfer =
        sq > 0 ? xfer + static_cast<size_t>(sq - 1) * static_cast<size_t>(nb) : nullptr;
    const double* next_xfer =
        sq < k - 1 ? xfer + static_cast<size_t>(sq) * static_cast<size_t>(nb) : nullptr;
    const uint64_t in_flight =
        static_cast<uint64_t>(InFlightAtStage(sq, k, options.nm));
    const uint64_t cap = mem_caps[sq];
    const double* prev = dp + static_cast<size_t>(q - 1) * stride;
    double* cur = dp + static_cast<size_t>(q) * stride;
    int* cur_choice = choice + static_cast<size_t>(q) * stride;
    // SoA pass per row: shift the forward-comm terms so the inner loop reads
    // fwd_x[j] instead of prev_xfer[j - 1] (unit stride, no branch). The
    // first row has no incoming transfer — zeros there, and adding 0.0 to a
    // positive finite (or +inf) cost is a bit-exact identity, so the single
    // branchless expression below reproduces the reference's conditional
    // adds. Every stage cost is strictly positive (launch overheads), so the
    // -0.0 + 0.0 == +0.0 edge case cannot arise.
    double* fwd_x = scratch.Ensure(scratch.fwd_xfer, static_cast<size_t>(n));
    double* vals = scratch.Ensure(scratch.vals, static_cast<size_t>(n));
    if (prev_xfer != nullptr) {
      fwd_x[0] = 0.0;  // j == 0 is unreachable when sq > 0 (j >= q - 1 >= 1)
      for (int b = 0; b < nb; ++b) {
        fwd_x[b + 1] = prev_xfer[b];
      }
    } else {
      std::fill(fwd_x, fwd_x + n, 0.0);
    }
    for (int i = q; i <= n - (k - q); ++i) {
      const size_t last = static_cast<size_t>(i - 1);
      // Contiguous over j: entry j is fwd_cum[j][i-1] + bwd_cum[j][i-1],
      // precombined at profile build time in the same operand order.
      const double* tot_row = tot_cum + last * static_cast<size_t>(n);
      const double bwd_comm = next_xfer != nullptr ? next_xfer[last] : 0.0;
      double best = kInf;
      int best_j = -1;
      // The stage's memory demand is non-increasing in j (a later split means
      // fewer layers, and both prefix differences shrink), so feasibility is
      // monotone over j: binary-search the first memory-feasible split and
      // run the tightened loop from there with no per-j memory check. The
      // skipped j values are exactly the ones the reference loop `continue`s
      // on, so every surviving (j, cand) decision is unchanged.
      int feasible_from = i;  // i: no feasible split for this (q, i)
      {
        int lo = q - 1;
        int hi = i - 1;
        while (lo <= hi) {
          const int mid = lo + (hi - lo) / 2;
          const uint64_t need = StageMemoryBytesFromSums(
              param_prefix[i] - param_prefix[mid],  // layers [mid, i-1]
              stash_prefix[i] - stash_prefix[mid], batch, in_flight, mem);
          if (need <= cap) {
            feasible_from = mid;
            hi = mid - 1;
          } else {
            lo = mid + 1;
          }
        }
      }
      // Phase A (branchless, contiguous, auto-vectorizable): compute every
      // candidate bottleneck and mask pruned ones to +inf with a compare +
      // select. The reference's `prior == kInf` skip needs no branch here:
      // inf + anything = inf, max(inf, cost) = inf, and +inf never wins the
      // strict `<` in phase B. Its `cand > prune_above` skip becomes the
      // select (a pruned candidate is stored as +inf, which likewise cannot
      // win). The arithmetic is ((tot + fwd_x[j]) + bwd_comm) — the exact
      // association order of the reference's conditional `+=` chain — and
      // `prior < cost ? cost : prior` is std::max(prior, cost) verbatim, so
      // every surviving value is bit-identical to the scalar loop's.
      for (int j = feasible_from; j < i; ++j) {
        const double cost = (tot_row[j] + fwd_x[j]) + bwd_comm;
        const double prior = prev[j];
        const double cand = prior < cost ? cost : prior;
        vals[j] = cand <= prune_above ? cand : kInf;
      }
      // Phase B: index-min reduction over vals with four independent lanes
      // (breaks the loop-carried min dependence so the compiler can overlap
      // the compares). Within a lane indices increase, so strict `<` keeps
      // the smallest index of the lane's argmin; the final cross-lane reduce
      // is lexicographic on (value, index), which together reproduce the
      // reference's "smallest j wins ties" exactly.
      double lane_best[4] = {kInf, kInf, kInf, kInf};
      int lane_j[4] = {-1, -1, -1, -1};
      int j = feasible_from;
      for (; j + 4 <= i; j += 4) {
        for (int l = 0; l < 4; ++l) {
          if (vals[j + l] < lane_best[l]) {
            lane_best[l] = vals[j + l];
            lane_j[l] = j + l;
          }
        }
      }
      for (int l = 0; j < i; ++j, ++l) {  // remainder: still index-monotone per lane
        if (vals[j] < lane_best[l]) {
          lane_best[l] = vals[j];
          lane_j[l] = j;
        }
      }
      for (int l = 0; l < 4; ++l) {
        if (lane_best[l] < best ||
            (lane_best[l] == best && lane_j[l] != -1 && lane_j[l] < best_j)) {
          best = lane_best[l];
          best_j = lane_j[l];
        }
      }
      cur[i] = best;
      cur_choice[i] = best_j;
    }
  }

  if (dp[static_cast<size_t>(k) * stride + static_cast<size_t>(n)] == kInf) {
    return result;
  }

  // Reconstruct stage boundaries and rebuild the stages from them.
  int* lasts = scratch.Ensure(scratch.lasts, static_cast<size_t>(k));
  int i = n;
  for (int q = k; q >= 1; --q) {
    lasts[q - 1] = i - 1;
    i = choice[static_cast<size_t>(q) * stride + static_cast<size_t>(i)];
  }
  return BuildFixedPartition(*profile_, *cluster_, gpu_ids,
                             std::vector<int>(lasts, lasts + k), options.nm,
                             options.mem_params);
}

Partition Partitioner::Solve(const std::vector<int>& gpu_ids,
                             const PartitionOptions& options) const {
  if (!options.search_gpu_orders || gpu_ids.size() <= 1) {
    return SolveFixedOrder(gpu_ids, options, kInf);
  }

  // Enumerate distinct (type, node) orderings of the VW's GPUs; identical
  // class sequences produce identical solutions, so each is solved once.
  const std::vector<std::vector<int>> orders = DistinctClassOrders(*cluster_, gpu_ids);

  // Solve every order, sharing the incumbent bottleneck as a branch-and-bound
  // cut. The incumbent is only ever an upper bound on the optimum, so any
  // value observed by any thread is a valid cut; the final reduction walks
  // the orders in enumeration order, which makes the result independent of
  // thread interleaving.
  std::vector<Partition> candidates(orders.size());
  std::mutex incumbent_mu;
  double incumbent = kInf;
  const auto solve_one = [&](int64_t index) {
    double bound = kInf;
    if (options.prune) {
      std::lock_guard<std::mutex> lock(incumbent_mu);
      bound = incumbent;
    }
    Partition candidate =
        SolveFixedOrder(orders[static_cast<size_t>(index)], options, bound);
    if (candidate.feasible) {
      std::lock_guard<std::mutex> lock(incumbent_mu);
      incumbent = std::min(incumbent, candidate.bottleneck_time);
    }
    candidates[static_cast<size_t>(index)] = std::move(candidate);
  };

  if (options.pool != nullptr && orders.size() > 1) {
    options.pool->ParallelFor(static_cast<int64_t>(orders.size()), solve_one);
  } else {
    for (int64_t index = 0; index < static_cast<int64_t>(orders.size()); ++index) {
      solve_one(index);
    }
  }

  Partition best;
  for (const Partition& candidate : candidates) {
    if (Improves(candidate, best)) {
      best = candidate;
    }
  }
  return best;
}

Partition Partitioner::SolveFixedOrderReference(const std::vector<int>& gpu_ids,
                                                const PartitionOptions& options,
                                                double prune_above) const {
  const int n = profile_->num_layers();
  const int k = static_cast<int>(gpu_ids.size());
  Partition result;
  if (k == 0 || n < k) {
    return result;
  }

  std::vector<hw::GpuType> types(static_cast<size_t>(k));
  std::vector<uint64_t> mem_caps(static_cast<size_t>(k));
  for (int q = 0; q < k; ++q) {
    types[static_cast<size_t>(q)] = cluster_->gpu(gpu_ids[static_cast<size_t>(q)]).type;
    mem_caps[static_cast<size_t>(q)] = hw::MemoryBytes(types[static_cast<size_t>(q)]);
  }

  const auto stage_cost = [&](int q, int j, int i) -> double {
    double cost = profile_->StageTotalTimeNaive(j, i, types[static_cast<size_t>(q)]);
    if (q > 0) {
      const auto& link = cluster_->LinkBetween(gpu_ids[static_cast<size_t>(q) - 1],
                                               gpu_ids[static_cast<size_t>(q)]);
      cost += link.TransferTime(profile_->BoundaryTransferBytes(j - 1));
    }
    if (q < k - 1) {
      const auto& link = cluster_->LinkBetween(gpu_ids[static_cast<size_t>(q)],
                                               gpu_ids[static_cast<size_t>(q) + 1]);
      cost += link.TransferTime(profile_->BoundaryTransferBytes(i));
    }
    return cost;
  };

  const auto stage_fits = [&](int q, int j, int i) -> bool {
    // The pre-optimization cost: O(stage-length) range sums per DP state.
    const model::ModelGraph& graph = profile_->graph();
    const uint64_t need = StageMemoryBytesFromSums(
        graph.ParamBytesInRangeNaive(j, i), graph.StashBytesInRangeNaive(j, i),
        static_cast<uint64_t>(profile_->batch_size()),
        static_cast<uint64_t>(InFlightAtStage(q, k, options.nm)), options.mem_params);
    return need <= mem_caps[static_cast<size_t>(q)];
  };

  std::vector<std::vector<double>> dp(static_cast<size_t>(k) + 1,
                                      std::vector<double>(static_cast<size_t>(n) + 1, kInf));
  std::vector<std::vector<int>> choice(static_cast<size_t>(k) + 1,
                                       std::vector<int>(static_cast<size_t>(n) + 1, -1));
  dp[0][0] = 0.0;
  for (int q = 1; q <= k; ++q) {
    for (int i = q; i <= n - (k - q); ++i) {
      double best = kInf;
      int best_j = -1;
      for (int j = q - 1; j < i; ++j) {
        if (dp[static_cast<size_t>(q) - 1][static_cast<size_t>(j)] == kInf) {
          continue;
        }
        if (!stage_fits(q - 1, j, i - 1)) {
          continue;
        }
        const double cand = std::max(dp[static_cast<size_t>(q) - 1][static_cast<size_t>(j)],
                                     stage_cost(q - 1, j, i - 1));
        if (cand > prune_above) {
          continue;
        }
        if (cand < best) {
          best = cand;
          best_j = j;
        }
      }
      dp[static_cast<size_t>(q)][static_cast<size_t>(i)] = best;
      choice[static_cast<size_t>(q)][static_cast<size_t>(i)] = best_j;
    }
  }

  if (dp[static_cast<size_t>(k)][static_cast<size_t>(n)] == kInf) {
    return result;
  }

  std::vector<int> lasts(static_cast<size_t>(k));
  int i = n;
  for (int q = k; q >= 1; --q) {
    lasts[static_cast<size_t>(q) - 1] = i - 1;
    i = choice[static_cast<size_t>(q)][static_cast<size_t>(i)];
  }
  return BuildFixedPartition(*profile_, *cluster_, gpu_ids, lasts, options.nm,
                             options.mem_params);
}

Partition Partitioner::SolveReference(const std::vector<int>& gpu_ids,
                                      const PartitionOptions& options) const {
  if (!options.search_gpu_orders || gpu_ids.size() <= 1) {
    return SolveFixedOrderReference(gpu_ids, options, kInf);
  }

  // The pre-optimization order enumeration: scan all k! id permutations,
  // dedup by a per-candidate (type, node) string signature.
  std::vector<int> ids = gpu_ids;
  std::sort(ids.begin(), ids.end());
  std::set<std::string> seen;
  std::vector<std::vector<int>> orders;
  do {
    std::string signature;
    for (int id : ids) {
      const hw::Gpu& g = cluster_->gpu(id);
      signature += std::to_string(static_cast<int>(g.type));
      signature.push_back('@');
      signature += std::to_string(g.node);
      signature.push_back(';');
    }
    if (seen.insert(signature).second) {
      orders.push_back(ids);
    }
  } while (std::next_permutation(ids.begin(), ids.end()));

  std::vector<Partition> candidates(orders.size());
  double incumbent = kInf;
  for (size_t index = 0; index < orders.size(); ++index) {
    const double bound = options.prune ? incumbent : kInf;
    Partition candidate = SolveFixedOrderReference(orders[index], options, bound);
    if (candidate.feasible) {
      incumbent = std::min(incumbent, candidate.bottleneck_time);
    }
    candidates[index] = std::move(candidate);
  }

  Partition best;
  for (const Partition& candidate : candidates) {
    if (Improves(candidate, best)) {
      best = candidate;
    }
  }
  return best;
}

int FindMaxNmWith(const std::function<Partition(const PartitionOptions&)>& solve, int nm_cap,
                  PartitionOptions options) {
  // Feasibility is monotone non-increasing in nm: every stage's memory demand
  // grows with nm (InFlightAtStage is non-decreasing in nm), so a partition
  // feasible at nm is feasible at every smaller nm. Binary search the largest
  // feasible value — O(log nm_cap) solves instead of a nm_cap -> 1 scan, with
  // the identical answer.
  int lo = 1;
  int hi = nm_cap;
  int best = 0;
  while (lo <= hi) {
    const int mid = lo + (hi - lo) / 2;
    options.nm = mid;
    if (solve(options).feasible) {
      best = mid;
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return best;
}

int Partitioner::FindMaxNm(const std::vector<int>& gpu_ids, int nm_cap,
                           PartitionOptions options) const {
  return FindMaxNmWith(
      [&](const PartitionOptions& at_nm) { return Solve(gpu_ids, at_nm); }, nm_cap, options);
}

}  // namespace hetpipe::partition
