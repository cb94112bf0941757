#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "hw/cluster_spec.h"

namespace perfbench {
namespace {

// The GPU classes every generated spec draws from. Class names are a
// process-wide identity, so their numbers never vary.
struct GpuClass {
  const char* name;
  double tflops;
  double memory_gib;
};
constexpr GpuClass kClasses[] = {
    {"PbA", 15.7, 32.0}, {"PbB", 8.1, 16.0}, {"PbC", 11.3, 24.0}, {"PbD", 5.3, 16.0}};
constexpr int kNumClasses = 4;

const char* kModels[] = {"resnet152", "vgg19"};

void DeclareClasses(hw::ClusterSpec* spec) {
  for (const GpuClass& c : kClasses) spec->AddGpuClass(c.name, c.tflops, c.memory_gib);
}

void Shuffle(Rng& rng, std::vector<int>* values) {
  for (size_t i = values->size(); i > 1; --i) std::swap((*values)[i - 1], (*values)[rng.Next() % i]);
}

double Knob(Rng& rng, double lo, double hi) {
  // Six decimals keep thousands of generated specs distinct.
  const double v = lo + (hi - lo) * rng.Uniform();
  return static_cast<double>(static_cast<int64_t>(v * 1e6)) / 1e6;
}

std::string Term(const std::string& type, int count, int node) {
  return type + "*" + std::to_string(count) + "@" + std::to_string(node);
}

}  // namespace

std::string PayloadOf(const serve::PlanRequest& request) { return request.ToJson(); }

int HotPool::Draw(Rng& rng) const {
  const double pick = rng.Uniform() * cumulative.back();
  const size_t rank = static_cast<size_t>(
      std::upper_bound(cumulative.begin(), cumulative.end(), pick) - cumulative.begin());
  return rank_to_key[std::min(rank, rank_to_key.size() - 1)];
}

HotPool MakeHotPool(uint64_t seed, int size) {
  static const char* kSubsets[] = {"VRGQ", "VRG", "VRQ", "VGQ", "RGQ", "VR",
                                   "VG",   "VQ",  "RG",  "RQ",  "GQ",  "VVQQ"};
  static const char* kSelectors[] = {"VVVV", "RRRR", "GGGG",     "QQQQ",    "VRGQ",
                                     "VVQQ", "VV",   "QQ",       "VQ",      "RG",
                                     "VRG",  "GQ",   "VVRR",     "RRGG",    "VVRRGGQQ",
                                     "VRGQVRGQ", "VVVVQQQQ", "RGQ", "VVGG", "RRQQ"};
  // Every (subset, selector, model, op) whose selector the subset satisfies.
  std::vector<serve::PlanRequest> candidates;
  for (const char* subset : kSubsets) {
    for (const char* selector : kSelectors) {
      bool ok = true;
      const std::string wanted = selector, nodes = subset;
      for (char code : std::string("VRGQ")) {
        // Each paper node holds four GPUs of its class.
        ok = ok && std::count(wanted.begin(), wanted.end(), code) <=
                       4 * std::count(nodes.begin(), nodes.end(), code);
      }
      if (!ok) continue;
      for (const char* model : kModels) {
        for (int op = 0; op <= 4; ++op) {
          serve::PlanRequest request;
          request.cluster_nodes = subset;
          request.selector = selector;
          request.model = model;
          if (op == 4) {
            request.op = "max_nm";
            request.nm_cap = 4;
          } else {
            request.nm = op + 1;
          }
          candidates.push_back(request);
        }
      }
    }
  }
  // Seeded sample without replacement, then a seeded Zipf rank order.
  Rng rng(seed, 1);
  for (size_t i = candidates.size(); i > 1; --i) {
    std::swap(candidates[i - 1], candidates[rng.Next() % i]);
  }
  HotPool pool;
  const int n = std::min<int>(size, static_cast<int>(candidates.size()));
  for (int k = 0; k < n; ++k) {
    serve::PlanRequest request = candidates[static_cast<size_t>(k)];
    request.id = "h" + std::to_string(k);
    pool.payloads.push_back(PayloadOf(request));
    pool.requests.push_back(std::move(request));
    pool.rank_to_key.push_back(k);
  }
  for (size_t i = pool.rank_to_key.size(); i > 1; --i) {
    std::swap(pool.rank_to_key[i - 1], pool.rank_to_key[rng.Next() % i]);
  }
  double total = 0.0;
  for (int rank = 0; rank < n; ++rank) {
    total += 1.0 / (rank + 1);
    pool.cumulative.push_back(total);
  }
  return pool;
}

serve::PlanRequest MakeColdRequest(uint64_t seed, int index) {
  Rng rng(seed, 1000000 + static_cast<uint64_t>(index));
  // The request's shape cycles through a fixed list, so every seed offers
  // the same mix of search tiers and worker sizes; the seed picks the GPU
  // classes, links, racks and placement. Exact shapes keep at most 90
  // distinct GPU orders; beam and hierarchical ones have 8! or more. The
  // worker's nodes take a fixed multiset of classes (node j of the worker
  // class j mod 4, under a seeded relabelling and order): the number of
  // distinct classes in the worker sets what the search costs, and drawing
  // it freely made the cost mix, and every latency, swing between seeds.
  struct Shape {
    bool racked;
    int per_node, nodes, span, take;
  };
  static const Shape kShapes[] = {
      {false, 2, 6, 2, 2},  {false, 4, 4, 2, 4},  {false, 2, 8, 3, 2},    // exact
      {false, 4, 6, 3, 2},  {true, 2, 12, 2, 2},  {true, 4, 8, 2, 4},     // exact
      {false, 2, 8, 8, 1},  {false, 2, 12, 6, 2}, {false, 4, 8, 8, 2},    // beam
      {true, 2, 10, 10, 1}, {true, 2, 16, 7, 2},  {true, 4, 8, 8, 2}};    // hierarchical
  constexpr int kNumShapes = static_cast<int>(sizeof(kShapes) / sizeof(kShapes[0]));
  const Shape& shape = kShapes[index % kNumShapes];
  const int cycle = index / kNumShapes;

  hw::ClusterSpec spec;
  spec.Named("cold-" + std::to_string(seed) + "-" + std::to_string(index));
  DeclareClasses(&spec);
  const int per_node = shape.per_node;
  const int nodes = shape.nodes;
  const int span = shape.span;
  const int take = shape.take;
  const int offset = rng.Int(0, nodes - 1);
  std::vector<int> labels(kNumClasses), vw_class(static_cast<size_t>(nodes), -1);
  for (int c = 0; c < kNumClasses; ++c) labels[static_cast<size_t>(c)] = c;
  Shuffle(rng, &labels);
  std::vector<int> order(static_cast<size_t>(span));
  for (int j = 0; j < span; ++j) order[static_cast<size_t>(j)] = j;
  Shuffle(rng, &order);
  for (int j = 0; j < span; ++j) {
    vw_class[static_cast<size_t>((offset + j * nodes / span) % nodes)] =
        labels[static_cast<size_t>(order[static_cast<size_t>(j)] % kNumClasses)];
  }

  // Per node: its classes. Mixed nodes have two groups of two; a whole-node
  // exact worker keeps its nodes homogeneous so its order count stays small.
  std::vector<std::vector<std::pair<std::string, int>>> groups(static_cast<size_t>(nodes));
  for (int node = 0; node < nodes; ++node) {
    const bool in_vw = vw_class[static_cast<size_t>(node)] >= 0;
    const std::string a =
        kClasses[in_vw ? vw_class[static_cast<size_t>(node)] : rng.Int(0, kNumClasses - 1)].name;
    const bool may_mix = per_node == 4 && !(take == 4 && in_vw);
    if (may_mix && rng.Int(0, 3) == 0) {
      std::string b = kClasses[rng.Int(0, kNumClasses - 1)].name;
      if (b == a) b = kClasses[(rng.Int(1, kNumClasses - 1) + (a[2] - 'A')) % kNumClasses].name;
      groups[static_cast<size_t>(node)] = {{a, 2}, {b, 2}};
      spec.AddMixedNode({{a, 2}, {b, 2}});
    } else {
      groups[static_cast<size_t>(node)] = {{a, per_node}};
      spec.AddNode(a, per_node);
    }
  }
  spec.InterGbits(Knob(rng, 10.0, 100.0));
  if (shape.racked) {
    const int racks = std::min(nodes, rng.Int(2, 4));
    for (int r = 0; r < racks; ++r) {
      std::vector<int> members;
      for (int node = r * nodes / racks; node < (r + 1) * nodes / racks; ++node) {
        members.push_back(node);
      }
      spec.AddRack("r" + std::to_string(r), members);
    }
    spec.CrossRackGbits(Knob(rng, 2.0, 20.0));
  }

  std::string selector;
  for (int j = 0; j < span; ++j) {
    const int node = (offset + j * nodes / span) % nodes;
    int left = take;
    for (const auto& [type, count] : groups[static_cast<size_t>(node)]) {
      const int here = std::min(left, count);
      if (here == 0) break;
      if (!selector.empty()) selector += ",";
      selector += Term(type, here, node);
      left -= here;
    }
  }

  serve::PlanRequest request;
  request.id = "c" + std::to_string(index);
  request.cluster_spec = spec.ToString();
  request.model = kModels[(cycle % 12) / 6];
  request.selector = selector;
  // max_nm on a third of the exact-tier requests (one in six overall): its
  // nm probes multiply the solve, which on the approximate tiers would make
  // a handful of requests dominate every tail percentile.
  if (index % kNumShapes < 6 && (index % kNumShapes + cycle) % 3 == 2) {
    request.op = "max_nm";
    request.nm_cap = 4;
  } else {
    request.nm = rng.Int(1, 4);
  }
  return request;
}

std::vector<serve::PlanRequest> LayerPassColdRequests(uint64_t seed, int count) {
  std::vector<serve::PlanRequest> requests;
  for (int i = 0; i < count; ++i) requests.push_back(MakeColdRequest(seed, (1 << 29) + i));
  return requests;
}

std::vector<std::vector<core::Experiment>> MakeSweepJobs(uint64_t seed, int jobs) {
  Rng rng(seed, 2);
  // Cluster pool: six 4-node paper subsets and six generated 4 x 4 specs
  // (homogeneous nodes, as the HD policy requires). The class multisets are
  // fixed so that every seed has the same cost mix; the seed orders the
  // nodes and picks the generated specs' links.
  struct SweepCluster {
    std::string nodes;  // paper node codes, or empty
    std::string spec;   // generated spec text, or empty
    std::vector<std::string> node_types;  // code letter or class name per node
  };
  auto shuffled = [&](std::vector<std::string> types) {
    for (size_t i = types.size(); i > 1; --i) std::swap(types[i - 1], types[rng.Next() % i]);
    return types;
  };
  static const char* kPaperSubsets[] = {"VRGQ", "VVQQ", "RRGG", "VRRQ", "GGQQ", "VVRG"};
  std::vector<SweepCluster> clusters;
  for (const char* subset : kPaperSubsets) {
    SweepCluster c;
    for (char code : std::string(subset)) c.node_types.push_back(std::string(1, code));
    c.node_types = shuffled(c.node_types);
    for (const std::string& code : c.node_types) c.nodes += code;
    clusters.push_back(c);
  }
  // Generated specs by node class: "ABCD" is one node each of PbA..PbD.
  static const char* kGeneratedNodes[] = {"AAAA", "ABCD", "AACC", "BBDD", "ABBD", "CCCD"};
  for (int g = 0; g < 6; ++g) {
    hw::ClusterSpec spec;
    spec.Named("sweep-" + std::to_string(seed) + "-" + std::to_string(g));
    DeclareClasses(&spec);
    SweepCluster c;
    std::vector<std::string> types;
    for (char letter : std::string(kGeneratedNodes[g])) types.push_back(std::string("Pb") + letter);
    c.node_types = shuffled(types);
    for (const std::string& type : c.node_types) spec.AddNode(type, 4);
    spec.InterGbits(Knob(rng, 10.0, 100.0));
    c.spec = spec.ToString();
    clusters.push_back(c);
  }

  const cluster::AllocationPolicy kPolicies[] = {cluster::AllocationPolicy::kNodePartition,
                                                 cluster::AllocationPolicy::kEqualDistribution,
                                                 cluster::AllocationPolicy::kHybridDistribution};
  const int kD[] = {0, 4, 32};
  const double kJitter[] = {0.02, 0.05, 0.1};

  std::vector<std::vector<core::Experiment>> out(static_cast<size_t>(jobs));
  int serial = 0;
  for (int j = 0; j < jobs; ++j) {
    // Every cluster and model gets the same share of the jobs.
    const SweepCluster& c = clusters[static_cast<size_t>(j) % clusters.size()];
    const core::ModelKind model = (j / clusters.size()) % 2 == 0 ? core::ModelKind::kResNet152
                                                                  : core::ModelKind::kVgg19;
    // A virtual-worker selector taking `take` GPUs from each of `span` of
    // the cluster's nodes; the shape is fixed by the caller so that every
    // seed has the same mix of search sizes.
    auto selector = [&](int span, int take) {
      std::string s;
      const int offset = rng.Int(0, 3);
      for (int k = 0; k < span; ++k) {
        const int node = (offset + k) % 4;
        const std::string& type = c.node_types[static_cast<size_t>(node)];
        if (c.spec.empty()) {
          // Paper code letters pick the lowest unused GPU of the class.
          for (int t = 0; t < take; ++t) s += type;
        } else {
          if (!s.empty()) s += ",";
          s += Term(type, take, node);
        }
      }
      return s;
    };
    auto base = [&](core::ExperimentKind kind) {
      core::Experiment e;
      e.name = "s" + std::to_string(serial++);
      e.kind = kind;
      e.model = model;
      if (c.spec.empty()) {
        e.cluster_nodes = c.nodes;
      } else {
        e.cluster_spec = c.spec;
      }
      return e;
    };
    std::vector<core::Experiment>& job = out[static_cast<size_t>(j)];
    for (int k = 0; k < 5; ++k) {
      core::Experiment e = base(core::ExperimentKind::kFullCluster);
      e.config.allocation = kPolicies[k < 3 ? k : rng.Int(0, 2)];
      e.config.sync = wsp::SyncPolicy::Wsp(kD[rng.Int(0, 2)]);
      e.config.jitter_cv = kJitter[rng.Int(0, 2)];
      e.config.placement =
          rng.Int(0, 1) == 0 ? wsp::PlacementPolicy::kLocal : wsp::PlacementPolicy::kRoundRobin;
      e.config.seed = rng.Next() % 1000;
      job.push_back(e);
    }
    // Worker shapes (nodes, GPUs per node) cycle over whole rounds of the 24
    // cluster-and-model slots, so each slot sees every shape. At most 90
    // distinct GPU orders each: no few experiments dominate a pass.
    static const std::pair<int, int> kShapes[] = {{2, 1}, {3, 1}, {4, 1}, {2, 2}, {3, 2}};
    const int round = j / static_cast<int>(2 * clusters.size());
    auto shape = [&](int k) { return kShapes[(round + k) % 5]; };
    const std::string nm_sweep_vw = selector(shape(0).first, shape(0).second);
    const int nm_first = rng.Int(1, 4);
    for (int k = 0; k < 4; ++k) {
      core::Experiment e = base(core::ExperimentKind::kSingleVirtualWorker);
      e.vw_codes = nm_sweep_vw;
      e.config.nm = nm_first + k;
      job.push_back(e);
    }
    const core::PartitionStrategy kStrategies[] = {core::PartitionStrategy::kMinMaxDp,
                                                   core::PartitionStrategy::kEqualLayers,
                                                   core::PartitionStrategy::kParamBalanced};
    for (int k = 0; k < 3; ++k) {
      core::Experiment e = base(core::ExperimentKind::kPartitionOnly);
      e.vw_codes = selector(shape(k + 1).first, shape(k + 1).second);
      e.strategy = kStrategies[k];
      e.config.nm = rng.Int(1, 4);
      e.simulate = rng.Int(0, 1) == 0;
      job.push_back(e);
    }
    job.push_back(base(core::ExperimentKind::kHorovod));
    for (int k = 0; k < 2; ++k) {
      core::Experiment e = base(core::ExperimentKind::kPsDataParallel);
      const int mode = rng.Int(0, 2);
      e.ps.mode = mode == 0 ? dp::PsSyncMode::kBsp
                            : (mode == 1 ? dp::PsSyncMode::kSsp : dp::PsSyncMode::kAsp);
      e.ps.staleness = mode == 1 ? 3 : 0;
      job.push_back(e);
    }
    job.push_back(base(core::ExperimentKind::kAdPsgd));
  }
  return out;
}

}  // namespace perfbench
