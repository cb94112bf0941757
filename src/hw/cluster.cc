#include "hw/cluster.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace hetpipe::hw {
namespace {

std::vector<NodeGpus> UniformNodes(const std::vector<GpuType>& node_types, int gpus_per_node) {
  std::vector<NodeGpus> nodes;
  nodes.reserve(node_types.size());
  for (GpuType type : node_types) {
    nodes.push_back(NodeGpus{type, gpus_per_node});
  }
  return nodes;
}

std::vector<std::vector<GpuType>> ExpandNodes(const std::vector<NodeGpus>& nodes) {
  std::vector<std::vector<GpuType>> node_gpus;
  node_gpus.reserve(nodes.size());
  for (const NodeGpus& node : nodes) {
    node_gpus.emplace_back(static_cast<size_t>(std::max(node.count, 0)), node.type);
  }
  return node_gpus;
}

// Two links are the same when every transfer costs the same over both.
bool SameLink(const InfinibandLink& a, const InfinibandLink& b) {
  return a.EffectiveBandwidth() == b.EffectiveBandwidth() && a.intercept_s() == b.intercept_s();
}

}  // namespace

Cluster::Cluster(const std::vector<GpuType>& node_types, int gpus_per_node)
    : Cluster(UniformNodes(node_types, gpus_per_node), PcieLink(), InfinibandLink()) {}

Cluster::Cluster(const std::vector<NodeGpus>& nodes, const PcieLink& pcie,
                 const InfinibandLink& infiniband, std::string name)
    : Cluster(ExpandNodes(nodes), pcie, infiniband, std::move(name)) {}

Cluster::Cluster(const std::vector<std::vector<GpuType>>& node_gpus, const PcieLink& pcie,
                 const InfinibandLink& infiniband, std::string name)
    : num_nodes_(static_cast<int>(node_gpus.size())),
      pcie_(pcie),
      infiniband_(infiniband),
      cross_rack_(infiniband),
      name_(std::move(name)) {
  int id = 0;
  for (int n = 0; n < num_nodes_; ++n) {
    const std::vector<GpuType>& types = node_gpus[static_cast<size_t>(n)];
    if (types.empty()) {
      throw std::invalid_argument("cluster node " + std::to_string(n) +
                                  " must hold at least one GPU");
    }
    node_types_.push_back(types.front());
    node_homogeneous_.push_back(
        std::all_of(types.begin(), types.end(), [&](GpuType t) { return t == types.front(); }));
    node_counts_.push_back(static_cast<int>(types.size()));
    gpus_per_node_ = std::max(gpus_per_node_, static_cast<int>(types.size()));
    for (GpuType type : types) {
      gpus_.push_back(Gpu{id++, type, n});
    }
  }
  for (int count : node_counts_) {
    uniform_ = uniform_ && count == gpus_per_node_;
  }
}

Cluster Cluster::Paper() { return PaperSubset("VRGQ"); }

Cluster Cluster::PaperSubset(const std::string& node_codes) {
  return Cluster(ParseGpuCodes(node_codes), /*gpus_per_node=*/4);
}

std::vector<int> Cluster::GpusOnNode(int node) const {
  std::vector<int> ids;
  for (const Gpu& g : gpus_) {
    if (g.node == node) {
      ids.push_back(g.id);
    }
  }
  return ids;
}

void Cluster::SetLinkTopology(std::vector<int> rack_of_node, const InfinibandLink& cross_rack,
                              std::map<std::pair<int, int>, InfinibandLink> overrides) {
  if (!rack_of_node.empty() && rack_of_node.size() != static_cast<size_t>(num_nodes_)) {
    throw std::invalid_argument("link topology: rack_of_node must name every node");
  }
  // The fabric is uniform when every override matches the inter link and the
  // cross-rack link either matches it too or is never used because every
  // cross-rack pair is overridden. Pairs are counted, never visited.
  int64_t cross_pairs = 0;
  if (!rack_of_node.empty()) {
    std::vector<int64_t> rack_sizes(rack_of_node.size(), 0);
    for (int rack : rack_of_node) {
      if (rack < 0 || rack >= num_nodes_) {
        throw std::invalid_argument("link topology: rack ids must be in [0, num_nodes)");
      }
      ++rack_sizes[static_cast<size_t>(rack)];
    }
    const int64_t nodes = num_nodes_;
    cross_pairs = nodes * (nodes - 1) / 2;
    for (int64_t size : rack_sizes) {
      cross_pairs -= size * (size - 1) / 2;
    }
  }
  int64_t cross_overrides = 0;
  bool overrides_match_inter = true;
  for (const auto& [pair, link] : overrides) {
    if (pair.first < 0 || pair.first >= pair.second || pair.second >= num_nodes_) {
      throw std::invalid_argument("link topology: override pairs must be in-range (a < b)");
    }
    overrides_match_inter = overrides_match_inter && SameLink(link, infiniband_);
    if (!rack_of_node.empty() && rack_of_node[static_cast<size_t>(pair.first)] !=
                                     rack_of_node[static_cast<size_t>(pair.second)]) {
      ++cross_overrides;
    }
  }
  rack_of_node_ = std::move(rack_of_node);
  cross_rack_ = cross_rack;
  overrides_ = std::move(overrides);
  uniform_fabric_ = overrides_match_inter &&
                    (cross_overrides == cross_pairs || SameLink(cross_rack_, infiniband_));
}

const LinkModel& Cluster::LinkBetweenNodes(int node_a, int node_b) const {
  if (node_a == node_b) {
    return pcie_;
  }
  if (uniform_fabric_) {
    return infiniband_;
  }
  const auto it = overrides_.find({std::min(node_a, node_b), std::max(node_a, node_b)});
  if (it != overrides_.end()) {
    return it->second;
  }
  return SameRack(node_a, node_b) ? infiniband_ : cross_rack_;
}

double Cluster::WorstInterTransferTimeFrom(int node, uint64_t bytes) const {
  if (uniform_fabric_ || num_nodes_ < 2) {
    return infiniband_.TransferTime(bytes);
  }
  double worst_s = 0.0;
  for (int peer = 0; peer < num_nodes_; ++peer) {
    if (peer != node) {
      worst_s = std::max(worst_s, LinkBetweenNodes(node, peer).TransferTime(bytes));
    }
  }
  return worst_s;
}

const LinkModel& Cluster::LinkBetween(int gpu_a, int gpu_b) const {
  return LinkBetweenNodes(gpu(gpu_a).node, gpu(gpu_b).node);
}

const LinkModel& Cluster::LinkToNode(int gpu_id, int node) const {
  return LinkBetweenNodes(gpu(gpu_id).node, node);
}

std::string Cluster::ToString() const {
  std::ostringstream os;
  bool paper_classes = true;
  for (const Gpu& g : gpus_) {
    paper_classes = paper_classes && static_cast<int>(g.type) < kNumGpuTypes;
  }
  if (uniform_ && paper_classes) {
    os << num_nodes_ << " nodes x " << gpus_per_node_ << " GPUs [";
    for (const Gpu& g : gpus_) {
      if (g.id > 0 && g.node != gpu(g.id - 1).node) {
        os << '|';
      }
      os << CodeOf(g.type);
    }
    os << ']';
    return os.str();
  }
  os << num_nodes_ << " nodes [";
  for (int n = 0; n < num_nodes_; ++n) {
    if (n > 0) {
      os << '|';
    }
    // Each node lists its class runs ("A100 x2 + T4 x2"), so two clusters
    // differing only in a node's class mix never share a ToString.
    const std::vector<int> ids = GpusOnNode(n);
    size_t i = 0;
    bool first_run = true;
    while (i < ids.size()) {
      const GpuType type = gpu(ids[i]).type;
      size_t run = 0;
      while (i + run < ids.size() && gpu(ids[i + run]).type == type) {
        ++run;
      }
      if (!first_run) {
        os << " + ";
      }
      first_run = false;
      os << SpecOf(type).name << " x" << run;
      i += run;
    }
  }
  os << ']';
  return os.str();
}

}  // namespace hetpipe::hw
