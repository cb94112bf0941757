#include "sweep_workload.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "inputs.h"
#include "layers.h"
#include "runner/partition_cache.h"
#include "runner/sweep_runner.h"
#include "runner/thread_pool.h"
#include "serve_workload.h"
#include "store/extent_reader.h"
#include "store/extent_writer.h"

namespace perfbench {
namespace {

using Jobs = std::vector<std::vector<core::Experiment>>;

// Sweep pool threads: half the cores. On a shared virtual machine the host
// takes processor time back when every core is busy, which made whole-core
// runs swing with the neighbours' load rather than with the program.
int SweepThreads() {
  return std::max(2, static_cast<int>(std::thread::hardware_concurrency()) / 2);
}

// A row's fields as sorted one-field JSON objects: the store reads rows back
// in its column order, which mixes kinds' first-seen orders.
std::string Canonical(const runner::ResultRow& row) {
  std::vector<std::string> fields;
  for (const auto& [key, value] : row.fields()) {
    runner::ResultRow one;
    std::visit([&](const auto& v) { one.Set(key, v); }, value);
    fields.push_back(runner::RowToJson(one));
  }
  std::sort(fields.begin(), fields.end());
  std::string out;
  for (const std::string& f : fields) out += f;
  return out;
}

// Checks the rows read back from `path` against the in-memory results;
// returns the rows as JSON lines, in order.
std::vector<std::string> CheckRows(const std::string& path,
                                   const std::vector<const std::vector<core::Experiment>*>& jobs,
                                   const std::vector<std::vector<core::ExperimentResult>>& results,
                                   Report* report) {
  std::vector<runner::ResultRow> written;
  std::vector<std::string> rows;
  for (size_t j = 0; j < jobs.size(); ++j) {
    for (size_t k = 0; k < jobs[j]->size(); ++k) {
      written.push_back(runner::RowFor((*jobs[j])[k], results[j][k]));
      rows.push_back(runner::RowToJson(written.back()));
    }
  }
  std::vector<runner::ResultRow> read;
  std::string error;
  if (!store::ReadAllRows(path, &read, &error)) {
    report->CheckFailed("ExtentReader: " + error);
  } else if (read.size() != rows.size()) {
    report->CheckFailed("row count read back from .hds differs");
  } else {
    for (size_t r = 0; r < rows.size(); ++r) {
      if (Canonical(read[r]) != Canonical(written[r])) {
        report->CheckFailed("row " + std::to_string(r) + " read back from .hds differs");
      }
    }
  }
  std::remove(path.c_str());
  return rows;
}

uint64_t Checksum(const std::vector<std::string>& rows) {
  uint64_t checksum = Fnv1a("");
  for (const std::string& row : rows) checksum = Fnv1a(row + "\n", checksum);
  return checksum;
}

struct PassResult {
  double wall_s = 0.0;
  std::vector<double> job_ms;
  int64_t experiments = 0;
  int64_t cache_hits = 0;    // lookups on the pass's cache (a shared cache
  int64_t cache_misses = 0;  // counts every client's)
  std::vector<std::string> rows;  // JSON, in run order
};

// One client running `jobs` (every `stride`-th from `first`) back to back
// through one SweepRunner with its own sink. With `cold`, `cache` is emptied
// before every job, so each job searches its own partitions.
PassResult RunJobs(const Jobs& jobs, size_t first, size_t stride,
                   runner::ThreadPool* pool, runner::PartitionCache* cache, bool cold,
                   const std::string& path, Report* report) {
  PassResult out;
  auto take_counts = [&] {
    out.cache_hits += cache->hits();
    out.cache_misses += cache->misses();
  };
  std::string error;
  std::unique_ptr<store::StoreSink> sink = store::StoreSink::Open(path, &error);
  if (sink == nullptr) {
    report->CheckFailed("StoreSink::Open: " + error);
    return out;
  }
  runner::SweepOptions options;
  options.pool = pool;
  options.cache = cache;
  options.sink = sink.get();
  runner::SweepRunner runner(options);
  std::vector<const std::vector<core::Experiment>*> ran;
  std::vector<std::vector<core::ExperimentResult>> results;
  const double start = NowS();
  for (size_t j = first; j < jobs.size(); j += stride) {
    if (cold) {
      take_counts();
      cache->Clear();
    }
    const double t0 = NowS();
    try {
      results.push_back(runner.Run(jobs[j]));
    } catch (const std::exception& e) {
      report->CheckFailed(std::string("SweepRunner::Run: ") + e.what());
      report->attempted += static_cast<int64_t>(jobs[j].size());
      continue;
    }
    out.job_ms.push_back((NowS() - t0) * 1e3);
    ran.push_back(&jobs[j]);
    out.experiments += static_cast<int64_t>(jobs[j].size());
  }
  if (!sink->Close(&error)) report->CheckFailed("StoreSink::Close: " + error);
  out.wall_s = NowS() - start;
  take_counts();
  report->attempted += out.experiments;
  out.rows = CheckRows(path, ran, results, report);
  return out;
}

double SetUp(uint64_t seed, Jobs* jobs, std::unique_ptr<runner::ThreadPool>* pool) {
  const double t0 = NowS();
  *jobs = MakeSweepJobs(seed, kSweepJobs);
  *pool = std::make_unique<runner::ThreadPool>(SweepThreads());
  // Warm-up: three jobs from another seed, so class registration and model
  // construction costs stay out of the passes (and set-up is long enough to
  // time steadily).
  runner::SweepOptions options;
  options.pool = pool->get();
  runner::SweepRunner warm(options);
  for (const auto& job : MakeSweepJobs(seed + 0x5eed, 3)) warm.Run(job);
  return NowS() - t0;
}

void PrintShares(const Jobs& jobs, int64_t hits, int64_t misses, bool cold) {
  std::map<std::string, int64_t> kinds;
  int64_t total = 0;
  for (const auto& job : jobs) {
    for (const core::Experiment& e : job) {
      ++kinds[core::KindName(e.kind)];
      ++total;
    }
  }
  std::printf("shares: kinds");
  for (const auto& [kind, count] : kinds) {
    std::printf(" %s=%.4f", kind.c_str(), static_cast<double>(count) / total);
  }
  std::printf(" (experiments=%lld)\n", static_cast<long long>(total));
  std::printf("shares: cache_hit=%.4f (hits=%lld misses=%lld, unbounded cache, fresh per %s)\n",
              static_cast<double>(hits) / std::max<int64_t>(1, hits + misses),
              static_cast<long long>(hits), static_cast<long long>(misses),
              cold ? "job" : "pass");
}

}  // namespace

bool RunSweepEndToEnd(uint64_t seed, double seconds, bool cold, Report* report) {
  // Set-up is timed once before the rounds (those jobs and that pool are
  // used) and once more, thrown away at once, at the start of every round,
  // so that its median spans the run like every other measurement.
  std::vector<double> setups;
  auto timed_setup = [&](Jobs* jobs, std::unique_ptr<runner::ThreadPool>* pool) {
    setups.push_back(SetUp(seed, jobs, pool));
    std::printf("setup %zu: %.4f s\n", setups.size() - 1, setups.back());
  };
  Jobs jobs;
  std::unique_ptr<runner::ThreadPool> pool;
  timed_setup(&jobs, &pool);
  // Rounds until the deadline: a set-up, a solo pass on the sweep pool, then
  // a pass split between two clients on a pool one thread smaller (the
  // clients' own threads run jobs too), each pass on a fresh cache.
  const double deadline = NowS() + seconds;
  runner::ThreadPool shared(pool->num_threads() - 1);
  std::vector<double> rates, jobs_per_s, job_ms, peak_ms;
  std::vector<std::string> first_rows;
  uint64_t first_checksum = 0;
  int64_t hits = 0, misses = 0;
  double round_s = 0.0;
  while (rates.empty() || NowS() + round_s < deadline) {
    const double round_start = NowS();
    {
      Jobs scratch_jobs;
      std::unique_ptr<runner::ThreadPool> scratch_pool;
      timed_setup(&scratch_jobs, &scratch_pool);
    }
    runner::PartitionCache cache;
    PassResult pass = RunJobs(jobs, 0, 1, pool.get(), &cache, cold,
                              std::string(kScratchDir) + "/sweep.hds", report);
    const uint64_t checksum = Checksum(pass.rows);
    rates.push_back(static_cast<double>(pass.experiments) / pass.wall_s);
    job_ms.insert(job_ms.end(), pass.job_ms.begin(), pass.job_ms.end());
    hits += pass.cache_hits;
    misses += pass.cache_misses;
    std::printf("solo pass %zu: %lld experiments in %.3f s = %.1f exp/s, rows checksum %016llx\n",
                rates.size(), static_cast<long long>(pass.experiments), pass.wall_s, rates.back(),
                static_cast<unsigned long long>(checksum));
    if (rates.size() == 1) {
      first_checksum = checksum;
      first_rows = std::move(pass.rows);
    }
    if (checksum != first_checksum) report->CheckFailed("rows differ between passes of one seed");

    // sweep shares one cache between the clients; sweep-cold empties a
    // cache before every job, so each client has its own.
    runner::PartitionCache client_cache[2];
    PassResult client[2];
    Report local[2];
    std::vector<std::thread> threads;
    const double peak_start = NowS();
    for (size_t c = 0; c < 2; ++c) {
      threads.emplace_back([&, c] {
        client[c] = RunJobs(jobs, c, 2, &shared, &client_cache[cold ? c : 0], cold,
                            std::string(kScratchDir) + "/sweep-client" + std::to_string(c) + ".hds",
                            &local[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    const double peak_wall = NowS() - peak_start;
    for (size_t c = 0; c < 2; ++c) {
      peak_ms.insert(peak_ms.end(), client[c].job_ms.begin(), client[c].job_ms.end());
      report->attempted += local[c].attempted;
      report->failed += local[c].failed;
      for (const std::string& f : local[c].check_failures) report->check_failures.push_back(f);
      // Job j's rows sit at j * kSweepJobSize of the first solo pass.
      for (size_t r = 0; r < client[c].rows.size(); ++r) {
        const size_t at = (c + 2 * (r / kSweepJobSize)) * kSweepJobSize + r % kSweepJobSize;
        if (at >= first_rows.size() || first_rows[at] != client[c].rows[r]) {
          report->CheckFailed("two-client row " + std::to_string(at) +
                              " differs from the solo pass");
        }
      }
    }
    jobs_per_s.push_back(static_cast<double>(jobs.size()) / peak_wall);
    std::printf("peak pass %zu: 2 clients, %zu jobs in %.3f s = %.2f jobs/s on %d pool threads\n",
                jobs_per_s.size(), jobs.size(), peak_wall, jobs_per_s.back(), shared.num_threads());
    round_s = NowS() - round_start;
  }

  report->Set("peak_rss_mb", PeakRssMb(), "MiB");
  PrintShares(jobs, hits, misses, cold);
  std::printf("samples: rounds=%zu jobs=%zu peak_jobs=%zu\n", rates.size(), job_ms.size(),
              peak_ms.size());
  report->Set("setup_s", Median(setups), "s");
  report->Set("exps_per_s", Median(rates), "1/s");
  // Job latency quantiles per pass (every pass runs each job once), median
  // over the passes.
  report->Set("p50_ms", WindowedQuantile(job_ms, 0.50, jobs.size()), "ms");
  report->Set("p99_ms", WindowedQuantile(job_ms, 0.99, jobs.size()), "ms");
  report->Set("p99_ms_peak", WindowedQuantile(peak_ms, 0.99, jobs.size()), "ms");
  report->Set("max_rps", Median(jobs_per_s), "1/s");
  return true;
}

bool RunSweepTraced(uint64_t seed, double seconds, bool cold, Tracer* tracer, Report* report) {
  Jobs jobs;
  std::unique_ptr<runner::ThreadPool> pool;
  SetUp(seed, &jobs, &pool);

  // The same jobs untraced through SweepRunner::Run, then traced.
  const size_t n = std::min(jobs.size(), std::max<size_t>(8, jobs.size() / 2));
  const Jobs part(jobs.begin(), jobs.begin() + static_cast<long>(n));
  runner::PartitionCache cache;
  const PassResult untraced = RunJobs(part, 0, 1, pool.get(), &cache, cold,
                                      std::string(kScratchDir) + "/sweep.hds", report);
  const TracedSweepResult traced = TracedSweep(
      part, pool.get(), cold, std::string(kScratchDir) + "/sweep-traced.hds", tracer, report);
  const double u = static_cast<double>(untraced.experiments) / untraced.wall_s;
  const double t = static_cast<double>(traced.experiments) / traced.wall_s;
  report->Set("trace.overhead_pct", (u / t - 1.0) * 100.0, "%");
  const int64_t lookups = std::max<int64_t>(1, traced.cache_hits + traced.cache_misses);
  report->Set("runner.cache_hit_ratio",
              static_cast<double>(traced.cache_hits) / static_cast<double>(lookups), "share");
  report->Set("runner.cache_evictions", static_cast<double>(traced.cache_evictions), "count");
  std::printf("trace overhead: %.1f exp/s untraced vs %.1f exp/s traced\n", u, t);
  std::remove((std::string(kScratchDir) + "/sweep-traced.hds").c_str());

  // The per-layer pass: this workload's experiments, plus companion hot and
  // cold requests for the serve, search and cache layers it reaches only
  // through experiments.
  const HotPool hot = MakeHotPool(seed, kHotKeys);
  LayerInputs inputs;
  inputs.hot = &hot;
  inputs.cold_requests = LayerPassColdRequests(seed, kCompanionColdRequests);
  for (const auto& job : jobs) {
    inputs.experiments.insert(inputs.experiments.end(), job.begin(), job.end());
  }
  pool.reset();
  RunLayerPass(inputs, seconds * 0.45, tracer, report);
  return CompanionServeStep(seed, std::max(0.5, seconds * 0.05), tracer, report);
}

}  // namespace perfbench
