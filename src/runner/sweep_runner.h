#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/experiment.h"
#include "runner/partition_cache.h"
#include "runner/result_sink.h"
#include "runner/thread_pool.h"

namespace hetpipe::runner {

struct SweepOptions {
  // Worker threads; <= 0 selects the hardware concurrency. Ignored when
  // `pool` is set.
  int threads = 0;
  // Partition memo shared by every experiment of the sweep. When null the
  // runner owns one, so repeated virtual-worker shapes across the sweep
  // always coalesce; pass an external cache to share across sweeps too.
  PartitionCache* cache = nullptr;
  // Worker pool shared by every runner it is handed to. When null the runner
  // owns a pool of `threads`. Nested sweeps (a SweepRunner::Map task that
  // itself constructs a SweepRunner) should share the outer runner's pool:
  // ThreadPool::ParallelFor from inside a pool worker runs inline, so the
  // nesting cannot deadlock or oversubscribe the machine with one thread set
  // per inner runner — and results stay identical to the serial run.
  ThreadPool* pool = nullptr;
  // Optional structured output; rows are written in experiment order after
  // the parallel phase, so sinks need no locking and output is reproducible.
  ResultSink* sink = nullptr;
};

// The standard machine-readable row for one experiment result (echoed config
// plus the kind-specific metrics).
ResultRow RowFor(const core::Experiment& experiment, const core::ExperimentResult& result);

// Executes many experiments concurrently on a thread pool. Results come back
// indexed exactly like the input — result ordering (and every value in it) is
// independent of thread interleaving: experiments are independent, the
// partition cache returns bit-identical partitions hit or miss, and rows are
// emitted sequentially afterwards.
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  // Runs every experiment; results[i] belongs to experiments[i]. The sweep's
  // cache and pool are plumbed into each experiment's config unless the
  // experiment already carries its own. Experiments with one (cluster,
  // model, batch size) share a core::SolveContext that dies with the call.
  std::vector<core::ExperimentResult> Run(const std::vector<core::Experiment>& experiments);

  // Generic deterministic fan-out for sweeps that are not core::Experiments
  // (e.g. the real-SGD convergence studies, or nested sweeps that construct
  // an inner SweepRunner sharing this runner's pool): results[i] = fn(i).
  template <typename R>
  std::vector<R> Map(int64_t n, const std::function<R(int64_t)>& fn) {
    // vector<bool> packs elements into shared words, so "distinct index" is
    // NOT "distinct memory" — concurrent writes to neighbors would be a data
    // race. Reject it at compile time; use vector<char> results instead.
    static_assert(!std::is_same_v<R, bool>,
                  "SweepRunner::Map<bool> would race on vector<bool>'s packed "
                  "words; map to char (or a struct) instead");
    std::vector<R> results(static_cast<size_t>(n));
    pool_->ParallelFor(n, [&](int64_t i) { results[static_cast<size_t>(i)] = fn(i); });
    return results;
  }

  PartitionCache& cache() { return *cache_; }
  ThreadPool& pool() { return *pool_; }
  ResultSink* sink() { return options_.sink; }
  // Solving contexts built by every Run so far (one per call and distinct key).
  int64_t contexts_built() const { return contexts_built_.load(std::memory_order_relaxed); }

 private:
  SweepOptions options_;
  std::unique_ptr<PartitionCache> owned_cache_;
  PartitionCache* cache_ = nullptr;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
  std::atomic<int64_t> contexts_built_{0};
};

}  // namespace hetpipe::runner
