#include "runner/partition_cache.h"

#include <algorithm>
#include <memory>
#include <variant>

#include "runner/result_sink.h"
#include "store/extent_reader.h"
#include "store/extent_writer.h"
#include "util/binary_io.h"

namespace hetpipe::runner {
namespace {

// The shared FNV-1a (util/binary_io.h): same algorithm this file always
// used, so every structural fingerprint — and thus every cache key — is
// byte-identical to what older binaries computed.
using Fingerprint = util::Fnv1a;

// The (class, node) sequence of the virtual worker, by class name so the
// signature survives process boundaries. With the order search on, Solve's
// answer depends only on the multiset, so the sequence is sorted and any
// GPU-id set with the same shape maps to the same key; with the search off
// the given order IS the stage order, so it must stay in the key.
std::string VwSignature(const hw::Cluster& cluster, const std::vector<int>& gpu_ids,
                        bool order_invariant) {
  std::vector<std::pair<std::string, int>> shape;
  shape.reserve(gpu_ids.size());
  for (int id : gpu_ids) {
    const hw::Gpu& gpu = cluster.gpu(id);
    shape.emplace_back(hw::SpecOf(gpu.type).name, gpu.node);
  }
  if (order_invariant) {
    std::sort(shape.begin(), shape.end());
  }
  std::string signature;
  for (const auto& [name, node] : shape) {
    signature += name;
    signature.push_back('@');
    signature += std::to_string(node);
    signature.push_back(';');
  }
  return signature;
}

std::string MakeKey(const partition::Partitioner& partitioner, const std::vector<int>& gpu_ids,
                    const partition::PartitionOptions& options) {
  // The context part — profile fingerprint, cluster layout and the four
  // PCIe/Infiniband link probes — depends only on the partitioner's inputs,
  // so Partitioner::ContextFingerprint hashes it once; resuming from that
  // FNV state gives the same key bytes as mixing it here on every lookup.
  Fingerprint fp(partitioner.ContextFingerprint());
  // Rack topologies and per-pair overrides make the inter-node fabric
  // non-uniform, so probe the resolved links among the virtual worker's own
  // nodes too (file version 3). Solve depends on inter-node links only
  // between consecutive stages, which are all VW GPUs, so pairs outside the
  // VW are irrelevant — probing only the VW's pairs keeps a degraded link
  // elsewhere in the cluster from splitting keys of provably identical
  // solves. On a uniform fabric every probe is a pure function of the four
  // context probes, so topology-only changes, and nothing else, split keys.
  const hw::Cluster& cluster = partitioner.cluster();
  std::vector<int> vw_nodes;
  vw_nodes.reserve(gpu_ids.size());
  for (int id : gpu_ids) {
    const int node = cluster.gpu(id).node;
    if (std::find(vw_nodes.begin(), vw_nodes.end(), node) == vw_nodes.end()) {
      vw_nodes.push_back(node);
    }
  }
  std::sort(vw_nodes.begin(), vw_nodes.end());
  for (size_t a = 0; a < vw_nodes.size(); ++a) {
    for (size_t b = a + 1; b < vw_nodes.size(); ++b) {
      fp.Mix(cluster.LinkBetweenNodes(vw_nodes[a], vw_nodes[b]).TransferTime(1));
      fp.Mix(cluster.LinkBetweenNodes(vw_nodes[a], vw_nodes[b]).TransferTime(1ULL << 20));
    }
  }
  fp.Mix(options.mem_params.optimizer_multiplier);
  fp.Mix(options.mem_params.framework_overhead_bytes);
  fp.Mix(static_cast<uint64_t>(options.mem_params.stash_weights ? 1 : 0));
  std::string key = std::to_string(fp.value());
  key.push_back('|');
  key += VwSignature(partitioner.cluster(), gpu_ids,
                     /*order_invariant=*/options.search_gpu_orders);
  key += "nm" + std::to_string(options.nm);
  key += options.search_gpu_orders ? "s1" : "s0";
  // Scalable-tier strategies search different order slices, so their results
  // may differ from the exact search's and must not alias its entries. The
  // token is appended only when the RESOLVED strategy is non-exact: every
  // exact-path key (the only kind that existed before the scalable tier) is
  // byte-identical to what it always was, so version-3 cache files stay
  // valid with no version bump. The knobs that shape a non-exact search ride
  // along in its token.
  const partition::SearchStrategy resolved =
      partition::ResolveSearchStrategy(partitioner.cluster(), gpu_ids, options);
  if (resolved != partition::SearchStrategy::kExact) {
    key.push_back('|');
    key += partition::SearchStrategyName(resolved);
    key += " w" + std::to_string(options.beam_width);
    if (resolved == partition::SearchStrategy::kHierarchical) {
      key += " r" + std::to_string(options.rack_order_limit);
    }
  }
  return key;
}

// Rewrites the cached partition's gpu ids onto `gpu_ids`. Valid because the
// solution depends on the GPUs only through (type, node): stage times, link
// classes, and memory caps are all unchanged under the rewrite.
partition::Partition Remap(partition::Partition partition, const hw::Cluster& cluster,
                           const std::vector<int>& gpu_ids) {
  std::vector<bool> used(gpu_ids.size(), false);
  for (partition::StageAssignment& stage : partition.stages) {
    for (size_t i = 0; i < gpu_ids.size(); ++i) {
      const hw::Gpu& gpu = cluster.gpu(gpu_ids[i]);
      if (!used[i] && gpu.type == stage.gpu_type && gpu.node == stage.node) {
        used[i] = true;
        stage.gpu_id = gpu_ids[i];
        break;
      }
    }
  }
  return partition;
}

// ---- Partition (de)serialization: the bytes of a cache file's `partition`
// ---- column, via util/binary_io.h. Little-endian scalars, length-prefixed
// ---- strings; GPU classes travel by name + numbers, never by handle.

using util::Cursor;
using util::PutF64;
using util::PutI32;
using util::PutStr;
using util::PutU32;
using util::PutU64;

void SerializePartition(std::string& out, const partition::Partition& partition) {
  out.push_back(partition.feasible ? 1 : 0);
  PutF64(out, partition.bottleneck_time);
  PutF64(out, partition.sum_time);
  PutU32(out, static_cast<uint32_t>(partition.stages.size()));
  for (const partition::StageAssignment& stage : partition.stages) {
    const hw::GpuSpec& spec = hw::SpecOf(stage.gpu_type);
    PutI32(out, stage.first_layer);
    PutI32(out, stage.last_layer);
    PutI32(out, stage.gpu_id);
    PutI32(out, stage.node);
    PutStr(out, spec.name);
    PutF64(out, spec.effective_tflops);
    PutF64(out, spec.memory_gib);
    out.push_back(spec.code);
    PutF64(out, stage.fwd_compute_s);
    PutF64(out, stage.bwd_compute_s);
    PutF64(out, stage.fwd_comm_in_s);
    PutF64(out, stage.bwd_comm_in_s);
    PutU64(out, stage.param_bytes);
    PutU64(out, stage.memory_bytes);
    PutU64(out, stage.memory_cap);
  }
}

// Fails (returns false) on malformed bytes or a GPU class name that is not
// currently registered with the recorded numbers. The latter cannot happen
// for a true key hit — the key fingerprints every class of the cluster — so
// a failure simply demotes the entry to a miss.
bool DeserializePartition(const std::string& bytes, partition::Partition* out) {
  Cursor cursor(bytes.data(), bytes.size());
  partition::Partition partition;
  partition.feasible = cursor.Get<char>() != 0;
  partition.bottleneck_time = cursor.Get<double>();
  partition.sum_time = cursor.Get<double>();
  const uint32_t num_stages = cursor.Get<uint32_t>();
  for (uint32_t q = 0; cursor.ok() && q < num_stages; ++q) {
    partition::StageAssignment stage;
    stage.first_layer = cursor.Get<int32_t>();
    stage.last_layer = cursor.Get<int32_t>();
    stage.gpu_id = cursor.Get<int32_t>();
    stage.node = cursor.Get<int32_t>();
    const std::string type_name = cursor.GetStr();
    const double tflops = cursor.Get<double>();
    const double memory_gib = cursor.Get<double>();
    cursor.Get<char>();  // display code: informational only
    stage.fwd_compute_s = cursor.Get<double>();
    stage.bwd_compute_s = cursor.Get<double>();
    stage.fwd_comm_in_s = cursor.Get<double>();
    stage.bwd_comm_in_s = cursor.Get<double>();
    stage.param_bytes = cursor.Get<uint64_t>();
    stage.memory_bytes = cursor.Get<uint64_t>();
    stage.memory_cap = cursor.Get<uint64_t>();
    if (!cursor.ok()) {
      return false;
    }
    const hw::GpuSpec* spec = hw::FindGpuTypeByName(type_name);
    if (spec == nullptr || spec->effective_tflops != tflops ||
        spec->memory_gib != memory_gib) {
      return false;
    }
    stage.gpu_type = spec->type;
    partition.stages.push_back(stage);
  }
  if (!cursor.ok() || cursor.left() != 0) {
    return false;
  }
  *out = std::move(partition);
  return true;
}

// The columns of a cache file row (docs/result-store.md, "Partition cache
// files"): the file version, the exact key, and SerializePartition's bytes.
constexpr char kVersionColumn[] = "cache_version";
constexpr char kKeyColumn[] = "key";
constexpr char kPartitionColumn[] = "partition";

// Why `row` is not a current-version cache entry, or "" when it is one.
std::string EntryProblem(const ResultRow& row) {
  const Value* version = row.FindValue(kVersionColumn);
  const Value* key = row.FindValue(kKeyColumn);
  const Value* bytes = row.FindValue(kPartitionColumn);
  if (version == nullptr || !std::holds_alternative<int64_t>(*version) || key == nullptr ||
      !std::holds_alternative<std::string>(*key) || bytes == nullptr ||
      !std::holds_alternative<std::string>(*bytes)) {
    return "not a partition cache entry (want int64 cache_version, string key and string "
           "partition columns)";
  }
  if (std::get<int64_t>(*version) != PartitionCache::kFileVersion) {
    return "cache version " + std::to_string(std::get<int64_t>(*version)) + ", expected " +
           std::to_string(PartitionCache::kFileVersion);
  }
  if (std::get<std::string>(*key).empty()) {
    return "empty cache key";
  }
  return "";
}

ResultRow EntryRow(const std::string& key, std::string partition_bytes) {
  ResultRow row;
  row.Set(kVersionColumn, static_cast<int64_t>(PartitionCache::kFileVersion));
  row.Set(kKeyColumn, key);
  row.Set(kPartitionColumn, std::move(partition_bytes));
  return row;
}

}  // namespace

partition::Partition PartitionCache::Solve(const partition::Partitioner& partitioner,
                                           const std::vector<int>& gpu_ids,
                                           const partition::PartitionOptions& options,
                                           bool* was_hit) {
  const std::string key = MakeKey(partitioner, gpu_ids, options);
  if (was_hit != nullptr) {
    *was_hit = false;
  }
  // Fast path: a materialized hit needs only the shared lock — concurrent
  // readers (sweep tasks, serve connections) never serialize here. The LRU
  // stamp is an atomic inside the entry, so refreshing it is a plain store.
  {
    util::ReaderMutexLock lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      it->second.last_use.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                                std::memory_order_relaxed);
      if (was_hit != nullptr) {
        *was_hit = true;
      }
      return Remap(it->second.partition, partitioner.cluster(), gpu_ids);
    }
  }
  // Slow path: materializing a disk-loaded entry or recording a miss mutates
  // the maps, so take the exclusive lock and re-check (another thread may
  // have materialized or solved this key since the shared lock dropped).
  {
    util::WriterMutexLock lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      it->second.last_use.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                                std::memory_order_relaxed);
      if (was_hit != nullptr) {
        *was_hit = true;
      }
      return Remap(it->second.partition, partitioner.cluster(), gpu_ids);
    }
    auto pending = pending_.find(key);
    if (pending != pending_.end()) {
      partition::Partition materialized;
      const bool usable = DeserializePartition(pending->second, &materialized);
      pending_.erase(pending);
      if (usable) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        entries_.try_emplace(key, materialized,
                             clock_.fetch_add(1, std::memory_order_relaxed) + 1);
        if (was_hit != nullptr) {
          *was_hit = true;
        }
        return Remap(std::move(materialized), partitioner.cluster(), gpu_ids);
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  partition::Partition solved = partitioner.SolveScalable(gpu_ids, options);
  {
    util::WriterMutexLock lock(mu_);
    entries_.try_emplace(key, solved, clock_.fetch_add(1, std::memory_order_relaxed) + 1);
    EvictOverCapacityLocked();
  }
  return solved;
}

void PartitionCache::SetCapacity(int64_t max_entries) {
  util::WriterMutexLock lock(mu_);
  max_entries_ = max_entries < 0 ? 0 : max_entries;
  EvictOverCapacityLocked();
}

int64_t PartitionCache::capacity() const {
  util::ReaderMutexLock lock(mu_);
  return max_entries_;
}

void PartitionCache::EvictOverCapacityLocked() {
  if (max_entries_ <= 0) {
    return;
  }
  while (static_cast<int64_t>(entries_.size() + pending_.size()) > max_entries_) {
    // Loaded-but-never-requested entries rank older than any materialized
    // one: nothing in this process has asked for them yet.
    if (!pending_.empty()) {
      pending_.erase(pending_.begin());
    } else {
      auto oldest = entries_.begin();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second.last_use.load(std::memory_order_relaxed) <
            oldest->second.last_use.load(std::memory_order_relaxed)) {
          oldest = it;
        }
      }
      entries_.erase(oldest);
    }
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

int PartitionCache::FindMaxNm(const partition::Partitioner& partitioner,
                              const std::vector<int>& gpu_ids, int nm_cap,
                              partition::PartitionOptions options) {
  return partition::FindMaxNmWith(
      [&](const partition::PartitionOptions& at_nm) {
        return Solve(partitioner, gpu_ids, at_nm);
      },
      nm_cap, options);
}

bool PartitionCache::Save(const std::string& path, std::string* error) const {
  // Every save of `path` writes through the one `path + ".tmp"`, so two
  // overlapping saves would interleave their bytes there; they take turns.
  util::MutexLock save_lock(save_mu_);
  std::vector<ResultRow> rows;
  {
    // Shared lock: Save only reads, so a periodic background save never
    // blocks concurrent cache hits (inserts wait, which is fine — they are
    // preceded by a full solve anyway). The file is written after it drops.
    util::ReaderMutexLock lock(mu_);
    rows.reserve(entries_.size() + pending_.size());
    for (const auto& [key, entry] : entries_) {
      std::string bytes;
      SerializePartition(bytes, entry.partition);
      rows.push_back(EntryRow(key, std::move(bytes)));
    }
    for (const auto& [key, bytes] : pending_) {
      rows.push_back(EntryRow(key, bytes));
    }
  }
  std::unique_ptr<store::ExtentWriter> writer = store::ExtentWriter::Open(path, error);
  if (writer == nullptr) {
    return false;
  }
  for (const ResultRow& row : rows) {
    writer->Append(row);
  }
  return writer->Finalize(error);
}

bool PartitionCache::Load(const std::string& path, std::string* error) {
  std::vector<ResultRow> rows;
  if (!store::ReadAllRows(path, &rows, error)) {
    return false;
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    const std::string problem = EntryProblem(rows[i]);
    if (!problem.empty()) {
      if (error != nullptr) {
        *error = path + ": row " + std::to_string(i) + ": " + problem;
      }
      return false;
    }
  }

  util::WriterMutexLock lock(mu_);
  for (const ResultRow& row : rows) {
    const std::string& key = std::get<std::string>(*row.FindValue(kKeyColumn));
    if (entries_.find(key) == entries_.end() && pending_.find(key) == pending_.end()) {
      pending_.emplace(key, std::get<std::string>(*row.FindValue(kPartitionColumn)));
    }
  }
  EvictOverCapacityLocked();
  return true;
}

int64_t PartitionCache::size() const {
  util::ReaderMutexLock lock(mu_);
  return static_cast<int64_t>(entries_.size() + pending_.size());
}

void PartitionCache::Clear() {
  util::WriterMutexLock lock(mu_);
  entries_.clear();
  pending_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

}  // namespace hetpipe::runner
