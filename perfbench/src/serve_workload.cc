#include "serve_workload.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "checks.h"
#include "inputs.h"
#include "layers.h"
#include "partition/partitioner.h"
#include "runner/partition_cache.h"
#include "runner/thread_pool.h"
#include "serve/client.h"
#include "serve/server.h"

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// serve-cold warm-up requests come from an index range no step reaches.
constexpr int kColdWarmupBase = 1 << 28;
// serve-cold warm-up requests: two cycles of the twelve request shapes.
constexpr int kColdWarmup = 24;
// serve-cold burst payloads generated ahead, per second of burst (above the
// rate the server reaches; past it payloads are generated inline).
constexpr double kBurstColdPerSecond = 1500.0;

struct Sample {
  double due = 0.0;
  double send = 0.0;
  double done = 0.0;
  double late = 0.0;   // send - max(due, when the generator thread was ready)
  int server_us = 0;   // the service's own handling time (latency_us)
  bool ok = false;
  bool hit = false;    // answered from the partition cache (cache_hit)
};

struct StepResult {
  double rate = 0.0;
  int64_t sent = 0;
  int64_t failed = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double late_p99_ms = 0.0;
  int64_t backlog = 0;     // due by the step's end but not yet sent then
  int64_t hits = 0;        // responses answered from the partition cache
  double achieved = 0.0;   // completions per second
  bool valid = true;       // the generator kept its schedule
  bool pass = false;       // within the limit, no failures, bounded backlog
  std::vector<double> latency_ms;  // per request from its due time, in due order
  std::vector<double> wait_us;     // latency from due minus server time
};

// Latency quantiles are medians over consecutive windows of at least this
// many requests (about two serve-cold base steps): a slow spell of the host
// inflates one window instead of the whole measurement.
constexpr size_t kWindowRequests = 500;


// Load-generator threads, one connection each, and as many server executors:
// together they use half the cores. On a shared virtual machine the host
// takes processor time back when every core is busy, which made whole-core
// runs swing with the neighbours' load rather than with the program.
int Clients() { return std::max(1, static_cast<int>(std::thread::hardware_concurrency()) / 4); }

// Generator lateness (p99) beyond which a step is invalid: a tenth of the
// latency limit, small enough not to decide whether a step passes.
double LateLimitMs(const ServeSettings& s) { return s.limit_ms / 10.0; }

// How far a step is past what the limit allows: the larger of p99 over the
// limit and the end backlog over one limit's worth of arrivals (plus two);
// infinite when a request failed. A step passes at <= 1.
double Overload(const ServeSettings& s, const StepResult& r) {
  if (r.failed > 0) return kInf;
  const double allowed_backlog = r.rate * s.limit_ms / 1e3 + 2.0;
  return std::max(r.p99_ms / s.limit_ms, static_cast<double>(r.backlog) / allowed_backlog);
}

// Responses seen by one generator thread, merged into the rig after a step.
struct Seen {
  // serve-hot: (key, hash of the response before "cache_hit") -> one
  // representative response and how many responses it stands for.
  std::map<std::pair<int, uint64_t>, std::pair<std::string, int64_t>> hot;
  // serve-cold: every response, by request index.
  std::vector<std::pair<int, std::string>> cold;
};

void Absorb(bool hot, int key, const std::string& response, Sample* sample, Seen* seen) {
  size_t cut = response.find(",\"cache_hit\"");
  if (cut == std::string::npos) cut = response.size();
  sample->ok = response.find("\"ok\":true") < cut;
  sample->hit = response.compare(cut, 17, ",\"cache_hit\":true") == 0;
  const size_t at = response.find("\"latency_us\":");
  sample->server_us = at == std::string::npos ? 0 : std::atoi(response.c_str() + at + 13);
  if (hot) {
    const auto id = std::make_pair(key, Fnv1a(response.data(), cut));
    auto it = seen->hot.find(id);
    if (it == seen->hot.end()) {
      seen->hot.emplace(id, std::make_pair(response, 1));
    } else {
      ++it->second.second;
    }
  } else {
    seen->cold.emplace_back(key, response);
  }
}

class ServeRig {
 public:
  ServeRig(const ServeSettings& settings, uint64_t seed) : settings_(settings), seed_(seed) {}
  ~ServeRig() { Stop(); }
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  // Inputs, server, connections and warm-up.
  bool Setup(std::string* error) {
    if (settings_.hot) pool_ = MakeHotPool(seed_, kHotKeys);
    cache_.SetCapacity(settings_.cache_capacity);
    serve::PlanServerOptions options;
    options.threads = Clients() + 1;  // a pool of k threads has k - 1 executors
    server_ = std::make_unique<serve::PlanServer>(&cache_, options);
    if (!server_->Start(error)) return false;
    for (int c = 0; c < Clients(); ++c) {
      clients_.push_back(std::make_unique<serve::PlanClient>());
      if (!clients_.back()->Connect("127.0.0.1", server_->port(), error)) return false;
    }
    // serve-hot loads every key; serve-cold runs a few requests of its own
    // kind so first-touch costs stay out of the steps.
    const int warm = settings_.hot ? static_cast<int>(pool_.requests.size()) : kColdWarmup;
    Seen seen;
    std::string response;
    for (int k = 0; k < warm; ++k) {
      const int key = settings_.hot ? k : kColdWarmupBase + k;
      const std::string payload = settings_.hot ? pool_.payloads[static_cast<size_t>(k)]
                                                : PayloadOf(MakeColdRequest(seed_, key));
      Sample sample;
      ++attempted_;
      if (!clients_[0]->CallRaw(payload, &response, error)) return false;
      Absorb(settings_.hot, key, response, &sample, &seen);
    }
    Merge(&seen);
    return true;
  }

  // One open-loop step: Poisson arrivals at `rate` for `duration` seconds,
  // shared by every generator thread in due order.
  StepResult RunStep(double rate, double duration, Tracer* tracer) {
    Rng rng(seed_, 100 + static_cast<uint64_t>(step_serial_++));
    std::vector<double> due;
    std::vector<int> keys;
    std::vector<std::string> cold_payloads;
    for (double t = rng.Exponential(1.0 / rate); t < duration; t += rng.Exponential(1.0 / rate)) {
      due.push_back(t);
      if (settings_.hot) {
        keys.push_back(pool_.Draw(rng));
      } else {
        keys.push_back(next_cold_);
        cold_payloads.push_back(PayloadOf(MakeColdRequest(seed_, next_cold_++)));
      }
    }
    const int64_t n = static_cast<int64_t>(due.size());
    std::vector<Sample> samples(static_cast<size_t>(n));
    std::vector<Seen> seen(clients_.size());
    std::atomic<int64_t> next{0};
    const double start = NowS() + 0.002;
    // Spin for a quarter of a generator thread's mean gap, within [0.2, 1.5]
    // ms: below 0.2 ms sleeps overshoot, above 1.5 ms they rarely do.
    const double spin_s =
        std::clamp(0.25 * static_cast<double>(clients_.size()) / rate, 0.2e-3, 1.5e-3);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients_.size(); ++c) {
      threads.emplace_back([&, c] {
        std::string response, error;
        for (;;) {
          const int64_t i = next.fetch_add(1);
          if (i >= n) break;
          Sample& s = samples[static_cast<size_t>(i)];
          s.due = start + due[static_cast<size_t>(i)];
          const double ready = NowS();
          WaitUntil(s.due, spin_s);
          s.send = NowS();
          s.late = s.send - std::max(s.due, ready);
          const int key = keys[static_cast<size_t>(i)];
          const std::string& payload = settings_.hot
                                           ? pool_.payloads[static_cast<size_t>(key)]
                                           : cold_payloads[static_cast<size_t>(i)];
          const bool io_ok = Call(c, payload, &response, &error);
          s.done = NowS();
          if (tracer != nullptr) {
            tracer->Record("loadgen.queue", s.due, s.send, i);
            tracer->Record("serve.rpc", s.send, s.done, i);
          }
          if (io_ok) Absorb(settings_.hot, key, response, &s, &seen[c]);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (Seen& s : seen) Merge(&s);

    StepResult result;
    result.rate = rate;
    result.sent = n;
    std::vector<double> late_ms;
    const double end = start + duration;
    double last_done = start;
    for (const Sample& s : samples) {
      result.latency_ms.push_back(s.ok ? (s.done - s.due) * 1e3 : kInf);
      late_ms.push_back(s.late * 1e3);
      if (!s.ok) ++result.failed;
      if (s.hit) ++result.hits;
      if (s.due <= end && s.send > end) ++result.backlog;
      if (s.ok) result.wait_us.push_back((s.done - s.due) * 1e6 - s.server_us);
      last_done = std::max(last_done, s.done);
    }
    attempted_ += n;
    failed_ += result.failed;
    result.p50_ms = WindowedQuantile(result.latency_ms, 0.50, kWindowRequests);
    result.p99_ms = WindowedQuantile(result.latency_ms, 0.99, kWindowRequests);
    result.late_p99_ms = Quantile(late_ms, 0.99);
    result.achieved =
        static_cast<double>(n - result.failed) / std::max(duration, last_done - start);
    result.valid = result.late_p99_ms <= LateLimitMs(settings_);
    result.pass = Overload(settings_, result) <= 1.0;
    return result;
  }

  // Closed loop: every connection sends back to back for `duration`
  // seconds; returns completed requests per second. serve-cold payloads are
  // generated before the clock starts.
  double RunBurst(double duration) {
    std::vector<std::string> cold_payloads;
    if (!settings_.hot) {
      for (int i = 0; i < static_cast<int>(duration * kBurstColdPerSecond); ++i) {
        cold_payloads.push_back(PayloadOf(MakeColdRequest(seed_, next_cold_ + i)));
      }
    }
    std::vector<Seen> seen(clients_.size());
    std::vector<int64_t> done(clients_.size(), 0), attempted(clients_.size(), 0),
        failed(clients_.size(), 0);
    std::atomic<int> next_cold{next_cold_};
    const double start = NowS();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients_.size(); ++c) {
      threads.emplace_back([&, c] {
        Rng rng(seed_, 50 + c + 16 * static_cast<uint64_t>(step_serial_));
        std::string response, error;
        while (NowS() - start < duration) {
          const int key = settings_.hot ? pool_.Draw(rng) : next_cold.fetch_add(1);
          const size_t ahead = static_cast<size_t>(key - next_cold_);
          std::string payload;
          if (settings_.hot) {
            payload = pool_.payloads[static_cast<size_t>(key)];
          } else {
            payload = ahead < cold_payloads.size() ? cold_payloads[ahead]
                                                   : PayloadOf(MakeColdRequest(seed_, key));
          }
          Sample s;
          if (Call(c, payload, &response, &error)) {
            Absorb(settings_.hot, key, response, &s, &seen[c]);
          }
          ++attempted[c];
          ++(s.ok ? done[c] : failed[c]);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double elapsed = NowS() - start;
    ++step_serial_;
    next_cold_ = next_cold.load();
    for (Seen& s : seen) Merge(&s);
    int64_t total = 0;
    for (size_t c = 0; c < clients_.size(); ++c) {
      total += done[c];
      attempted_ += attempted[c];
      failed_ += failed[c];
    }
    return static_cast<double>(total) / elapsed;
  }

  void Stop() {
    clients_.clear();
    if (server_) {
      server_->RequestShutdown();
      server_->Join();
      server_.reset();
    }
  }

  // Verifies every response against a direct SolveScalable of its request.
  // Also tallies error codes and the resolved search tier of every request.
  void Check(Report* report, std::map<std::string, int64_t>* tiers,
             std::map<std::string, int64_t>* error_codes) {
    struct Item {
      int key;
      const std::string* response;
      int64_t weight;
      std::string verdict;
      std::string tier;
      std::string error_code;
    };
    std::vector<Item> items;
    for (const auto& [id, value] : hot_seen_) {
      items.push_back({id.first, &value.first, value.second, "", "", ""});
    }
    for (const auto& [key, response] : cold_seen_) {
      items.push_back({key, &response, 1, "", "", ""});
    }
    runner::ThreadPool pool(0);
    pool.ParallelFor(static_cast<int64_t>(items.size()), [&](int64_t i) {
      Item& item = items[static_cast<size_t>(i)];
      try {
        const serve::PlanRequest request = settings_.hot
                                               ? pool_.requests[static_cast<size_t>(item.key)]
                                               : MakeColdRequest(seed_, item.key);
        const std::unique_ptr<SolveContext> context = BuildContext(request);
        item.tier = partition::SearchStrategyName(partition::ResolveSearchStrategy(
            context->cluster, core::PickGpus(context->cluster, request.selector),
            OptionsFor(request)));
        item.verdict = CompareResponse(*item.response, ExpectedFields(request, *context),
                                       &item.error_code);
      } catch (const std::exception& e) {
        item.verdict = std::string("reference solve threw: ") + e.what();
      }
    });
    for (const Item& item : items) {
      (*tiers)[item.tier] += item.weight;
      if (!item.error_code.empty()) (*error_codes)[item.error_code] += item.weight;
      if (!item.verdict.empty()) {
        report->CheckFailed("request key " + std::to_string(item.key) + ": " + item.verdict);
      }
    }
    report->attempted += attempted_;
    report->failed += failed_;
  }

  runner::PartitionCache& cache() { return cache_; }
  const HotPool& pool() const { return pool_; }
  int distinct_keys() const {
    return settings_.hot ? static_cast<int>(pool_.requests.size()) : next_cold_;
  }

 private:
  bool Call(size_t c, const std::string& payload, std::string* response, std::string* error) {
    serve::PlanClient& client = *clients_[c];
    if (!client.connected() && !client.Connect("127.0.0.1", server_->port(), error)) return false;
    return client.CallRaw(payload, response, error);
  }

  void Merge(Seen* seen) {
    for (auto& [id, value] : seen->hot) {
      auto it = hot_seen_.find(id);
      if (it == hot_seen_.end()) {
        hot_seen_.emplace(id, std::move(value));
      } else {
        it->second.second += value.second;
      }
    }
    for (auto& entry : seen->cold) cold_seen_.push_back(std::move(entry));
  }

  ServeSettings settings_;
  uint64_t seed_;
  runner::PartitionCache cache_;
  std::unique_ptr<serve::PlanServer> server_;
  std::vector<std::unique_ptr<serve::PlanClient>> clients_;
  HotPool pool_;
  int next_cold_ = 0;
  int64_t step_serial_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::map<std::pair<int, uint64_t>, std::pair<std::string, int64_t>> hot_seen_;
  std::vector<std::pair<int, std::string>> cold_seen_;
};

void PrintStep(const char* phase, const StepResult& r) {
  std::printf(
      "step %-6s rate=%.0f/s sent=%lld failed=%lld p50=%.4fms p99=%.4fms late_p99=%.4fms "
      "backlog=%lld achieved=%.1f/s %s%s\n",
      phase, r.rate, static_cast<long long>(r.sent), static_cast<long long>(r.failed), r.p50_ms,
      r.p99_ms, r.late_p99_ms, static_cast<long long>(r.backlog), r.achieved,
      r.pass ? "pass" : "FAIL", r.valid ? "" : " INVALID(generator late)");
}

// Runs a step, repeating it up to twice when the generator fell behind;
// false when it fell behind every time.
bool ValidStep(ServeRig* rig, const ServeSettings& settings, const char* phase, double rate,
               double duration, Tracer* tracer, StepResult* out) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    *out = rig->RunStep(rate, duration, tracer);
    PrintStep(phase, *out);
    if (out->valid) return true;
  }
  std::printf("invalid run: the load generator fell behind at %.0f/s "
              "(late p99 %.3f ms > %.3f ms)\n",
              rate, out->late_p99_ms, LateLimitMs(settings));
  return false;
}

// The rate where the overload measure crosses 1, interpolated between a
// passing step and the failing step one ladder rate above it.
double Knee(const ServeSettings& s, const StepResult& pass, const StepResult& fail) {
  const double x_pass = Overload(s, pass);
  const double x_fail = Overload(s, fail);
  if (!std::isfinite(x_fail) || x_fail <= x_pass) return pass.rate;
  const double f = (1.0 - x_pass) / (x_fail - x_pass);
  return pass.rate + (fail.rate - pass.rate) * std::clamp(f, 0.0, 1.0);
}

// An up-down staircase on the ladder: each step moves one rate up after a
// pass and one down after a failure, so it settles around the knee. Every
// time the newest results at two adjacent rates are a pass below a failure,
// their interpolated knee is one estimate of max_rps.
class Staircase {
 public:
  Staircase(const ServeSettings& s, double start_rate) : s_(s), last_(s.ladder.size()) {
    while (at_ + 1 < s.ladder.size() && s.ladder[at_ + 1] <= start_rate) ++at_;
  }

  bool Step(ServeRig* rig) {
    StepResult r;
    if (!ValidStep(rig, s_, "ladder", s_.ladder[at_], s_.step_s, nullptr, &r)) return false;
    const bool pass = r.pass;
    last_[at_] = std::move(r);
    // The adjacent pair this step completes: with the rate above after a
    // pass, with the rate below after a failure.
    const bool has_pair = pass ? at_ + 1 < last_.size() : at_ > 0;
    const size_t lo = pass ? at_ : at_ - 1;
    if (has_pair && Pair(lo)) {
      knees_.push_back(Knee(s_, *last_[lo], *last_[lo + 1]));
      std::printf("knee estimate %.1f/s between %.0f/s and %.0f/s\n", knees_.back(),
                  s_.ladder[lo], s_.ladder[lo + 1]);
    }
    if (pass && at_ + 1 < last_.size()) ++at_;
    if (!pass && at_ > 0) --at_;
    return true;
  }

  // Median of the knee estimates; without any, the top rate when every
  // step there passed (censored) and 0 when every step at the bottom failed.
  double MaxRps() const {
    if (!knees_.empty()) return Median(knees_);
    const bool top = last_.back() && last_.back()->pass;
    std::printf("note: the staircase found no knee; max_rps is %s\n",
                top ? "censored at the top rate" : "0");
    return top ? s_.ladder.back() : 0.0;
  }

 private:
  bool Pair(size_t lo) const {
    return last_[lo] && last_[lo + 1] && last_[lo]->pass && !last_[lo + 1]->pass;
  }

  const ServeSettings& s_;
  std::vector<std::optional<StepResult>> last_;  // newest result per rate
  std::vector<double> knees_;
  size_t at_ = 0;
};

std::unique_ptr<ServeRig> SetUp(const ServeSettings& settings, uint64_t seed, double* seconds) {
  const double t0 = NowS();
  auto rig = std::make_unique<ServeRig>(settings, seed);
  std::string error;
  if (!rig->Setup(&error)) {
    std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
    return nullptr;
  }
  *seconds = NowS() - t0;
  return rig;
}

void PrintShares(const ServeRig& rig, const ServeSettings& settings,
                 const std::vector<StepResult>& steps, int64_t hits, int64_t misses,
                 int64_t evictions, const std::map<std::string, int64_t>& tiers) {
  int64_t sent = 0, hit_requests = 0;
  for (const StepResult& step : steps) {
    sent += step.sent;
    hit_requests += step.hits;
  }
  std::printf("shares: requests answered from the cache=%.4f (%lld of %lld in the timed steps)\n",
              static_cast<double>(hit_requests) / std::max<int64_t>(1, sent),
              static_cast<long long>(hit_requests), static_cast<long long>(sent));
  const double lookups = static_cast<double>(std::max<int64_t>(1, hits + misses));
  std::printf("shares: cache lookups hit=%.4f (hits=%lld misses=%lld evictions=%lld) "
              "distinct_keys=%d cache_capacity=%lld\n",
              hits / lookups, static_cast<long long>(hits), static_cast<long long>(misses),
              static_cast<long long>(evictions), rig.distinct_keys(),
              static_cast<long long>(settings.cache_capacity));
  int64_t total = 0;
  for (const auto& [tier, count] : tiers) total += count;
  std::printf("shares: tiers");
  for (const auto& [tier, count] : tiers) {
    std::printf(" %s=%.4f", tier.c_str(), static_cast<double>(count) / std::max<int64_t>(1, total));
  }
  std::printf(" (requests=%lld)\n", static_cast<long long>(total));
}

void ReportErrors(const std::map<std::string, int64_t>& error_codes, Report* report,
                  bool traced) {
  int64_t total = 0;
  for (const auto& [code, count] : error_codes) {
    std::printf("serve.errors %s=%lld\n", code.c_str(), static_cast<long long>(count));
    total += count;
  }
  if (traced) report->Set("serve.errors", static_cast<double>(total), "count");
}

}  // namespace

const ServeSettings* FindServeSettings(const std::string& workload) {
  static const ServeSettings kHot = {
      true, 10.0, 4000.0, 2.0, 8000.0, 1.5, 0.5,
      {8000, 10000, 12000, 14000, 16000, 17000, 18000, 19000, 20000, 21000, 22000,
       23000, 24000, 25000, 26000, 27000, 28000, 29000, 30000, 32000, 34000, 36000},
      0.75, 1024};
  static const ServeSettings kCold = {
      false, 150.0, 75.0, 4.0, 100.0, 3.0, 0.75,
      {100, 120, 140, 160, 180, 200, 215, 230, 245, 260, 275, 290, 310, 330, 360, 400, 450, 500},
      1.25, 256};
  if (workload == "serve-hot") return &kHot;
  if (workload == "serve-cold") return &kCold;
  return nullptr;
}

bool RunServeEndToEnd(const ServeSettings& settings, uint64_t seed, double seconds,
                      Report* report) {
  const double run_start = NowS();
  // Set-up is timed once before the rounds (that rig is used) and once more,
  // on a rig thrown away at once, at the start of every round, so that its
  // median spans the run like every other measurement.
  std::vector<double> setups;
  auto timed_setup = [&] {
    double t = 0.0;
    std::unique_ptr<ServeRig> rig = SetUp(settings, seed, &t);
    if (rig) {
      setups.push_back(t);
      std::printf("setup %zu: %.4f s\n", setups.size() - 1, t);
    }
    return rig;
  };
  std::unique_ptr<ServeRig> rig = timed_setup();
  if (!rig) return false;
  const double deadline = NowS() + seconds;
  const int64_t hits0 = rig->cache().hits(), misses0 = rig->cache().misses();

  // Short rounds until the deadline (at least two), each a set-up, a base
  // step, a peak step, a burst and two staircase steps, so that every measurement
  // is spread over the whole run and a slow spell of the host touches only
  // part of it. The staircase starts at the highest rate at most 80% of the
  // first burst's. A round starts while at least half of one still fits
  // before the deadline.
  std::vector<double> base_ms, peak_ms, bursts;
  std::vector<StepResult> steps;
  std::unique_ptr<Staircase> staircase;
  double late_p99_ms = 0.0;
  int64_t backlog = 0;
  double round_s = 0.0;
  for (int round = 0; round < 2 || NowS() + round_s / 2.0 < deadline; ++round) {
    const double t0 = NowS();
    if (!timed_setup()) return false;
    StepResult base, peak;
    if (!ValidStep(rig.get(), settings, "base", settings.base_rps, settings.base_s, nullptr,
                   &base) ||
        !ValidStep(rig.get(), settings, "peak", settings.peak_rps, settings.peak_s, nullptr,
                   &peak)) {
      return false;
    }
    base_ms.insert(base_ms.end(), base.latency_ms.begin(), base.latency_ms.end());
    peak_ms.insert(peak_ms.end(), peak.latency_ms.begin(), peak.latency_ms.end());
    late_p99_ms = std::max({late_p99_ms, base.late_p99_ms, peak.late_p99_ms});
    backlog = std::max({backlog, base.backlog, peak.backlog});
    steps.push_back(std::move(base));
    steps.push_back(std::move(peak));
    bursts.push_back(rig->RunBurst(settings.burst_s));
    std::printf("burst closed-loop: %.1f/s over %d connections\n", bursts.back(), Clients());
    if (!staircase) staircase = std::make_unique<Staircase>(settings, 0.8 * bursts.front());
    if (!staircase->Step(rig.get()) || !staircase->Step(rig.get())) return false;
    round_s = NowS() - t0;
  }
  const int64_t hits = rig->cache().hits() - hits0, misses = rig->cache().misses() - misses0;
  const int64_t evictions = rig->cache().evictions();
  rig->Stop();
  // Read before the checks, whose reference solves are the harness's memory.
  report->Set("peak_rss_mb", PeakRssMb(), "MiB");

  std::map<std::string, int64_t> tiers, error_codes;
  rig->Check(report, &tiers, &error_codes);
  PrintShares(*rig, settings, steps, hits, misses, evictions, tiers);
  ReportErrors(error_codes, report, false);
  std::printf("loadgen: base and peak steps late_p99<=%.4fms backlog<=%lld\n", late_p99_ms,
              static_cast<long long>(backlog));
  std::printf("samples: base=%zu peak=%zu bursts=%zu run_s=%.1f\n", base_ms.size(),
              peak_ms.size(), bursts.size(), NowS() - run_start);

  report->Set("setup_s", Median(setups), "s");
  report->Set("p50_ms", WindowedQuantile(base_ms, 0.50, kWindowRequests), "ms");
  report->Set("p99_ms", WindowedQuantile(base_ms, 0.99, kWindowRequests), "ms");
  report->Set("p99_ms_peak", WindowedQuantile(peak_ms, 0.99, kWindowRequests), "ms");
  report->Set("max_rps", staircase->MaxRps(), "1/s");
  double burst_sum = 0.0;
  for (double b : bursts) burst_sum += b;
  report->Set("exps_per_s", burst_sum / static_cast<double>(bursts.size()), "1/s");
  return true;
}

bool CompanionServeStep(uint64_t seed, double seconds, Tracer* tracer, Report* report) {
  ServeSettings settings = *FindServeSettings("serve-hot");
  settings.limit_ms = 1e9;
  double setup_s = 0.0;
  std::unique_ptr<ServeRig> rig = SetUp(settings, seed, &setup_s);
  if (!rig) return false;
  StepResult step;
  ValidStep(rig.get(), settings, "hot+t", kCompanionRps, seconds, tracer, &step);
  rig->Stop();
  std::map<std::string, int64_t> tiers, error_codes;
  rig->Check(report, &tiers, &error_codes);
  report->Set("serve.wait_us_p50", Quantile(step.wait_us, 0.50), "us");
  report->Set("serve.wait_us_p99", Quantile(step.wait_us, 0.99), "us");
  report->Set("loadgen.late_p99_ms", step.late_p99_ms, "ms");
  report->Set("loadgen.backlog", static_cast<double>(step.backlog), "count");
  ReportErrors(error_codes, report, true);
  return true;
}

bool RunServeTraced(const ServeSettings& settings, uint64_t seed, double seconds,
                    Tracer* tracer, Report* report) {
  double setup_s = 0.0;
  std::unique_ptr<ServeRig> rig = SetUp(settings, seed, &setup_s);
  if (!rig) return false;
  const int64_t hits0 = rig->cache().hits(), misses0 = rig->cache().misses();
  const int64_t evictions0 = rig->cache().evictions();

  // Untraced and traced passes of the same steps: the tracing overhead.
  const double share = std::max(0.5, seconds / 4.0);
  StepResult base_u, base_t, peak_t;
  if (!ValidStep(rig.get(), settings, "base", settings.base_rps, share, nullptr, &base_u) ||
      !ValidStep(rig.get(), settings, "base+t", settings.base_rps, share, tracer, &base_t) ||
      !ValidStep(rig.get(), settings, "peak+t", settings.peak_rps, share, tracer, &peak_t)) {
    return false;
  }
  const int64_t hits = rig->cache().hits() - hits0, misses = rig->cache().misses() - misses0;
  const int64_t evictions = rig->cache().evictions() - evictions0;
  rig->Stop();
  std::map<std::string, int64_t> tiers, error_codes;
  rig->Check(report, &tiers, &error_codes);
  PrintShares(*rig, settings, {base_u, base_t, peak_t}, hits, misses, evictions, tiers);

  std::vector<double> wait = base_t.wait_us;
  wait.insert(wait.end(), peak_t.wait_us.begin(), peak_t.wait_us.end());
  report->Set("serve.wait_us_p50", Quantile(wait, 0.50), "us");
  report->Set("serve.wait_us_p99", Quantile(wait, 0.99), "us");
  report->Set("loadgen.late_p99_ms", std::max(base_t.late_p99_ms, peak_t.late_p99_ms), "ms");
  report->Set("loadgen.backlog", static_cast<double>(std::max(base_t.backlog, peak_t.backlog)),
              "count");
  report->Set("runner.cache_hit_ratio",
              static_cast<double>(hits) / static_cast<double>(std::max<int64_t>(1, hits + misses)),
              "share");
  report->Set("runner.cache_evictions", static_cast<double>(evictions), "count");
  report->Set("trace.overhead_pct", (base_t.p50_ms / base_u.p50_ms - 1.0) * 100.0, "%");
  std::printf("trace overhead: base p50 %.4f ms untraced vs %.4f ms traced\n", base_u.p50_ms,
              base_t.p50_ms);

  // The per-layer pass over this workload's requests; the search path also
  // sees a companion sample of cold requests (serve-hot never reaches spec
  // parsing or the beam and hierarchical tiers), and every kind of
  // experiment runs from a companion sweep job.
  LayerInputs inputs;
  if (settings.hot) {
    // Companion requests first: the section may run out of time before the
    // end of the pool.
    inputs.hot = &rig->pool();
    inputs.cold_requests = LayerPassColdRequests(seed, kCompanionColdRequests);
    inputs.cold_requests.insert(inputs.cold_requests.end(), rig->pool().requests.begin(),
                                rig->pool().requests.end());
  } else {
    inputs.cold_requests = LayerPassColdRequests(seed, 400);
  }
  const std::vector<std::vector<core::Experiment>> jobs = MakeSweepJobs(seed, 2);
  for (const auto& job : jobs) {
    inputs.experiments.insert(inputs.experiments.end(), job.begin(), job.end());
  }
  RunLayerPass(inputs, seconds / 4.0, tracer, report);
  runner::ThreadPool pool(0);
  const std::string hds = std::string(kScratchDir) + "/layers.hds";
  TracedSweep(jobs, &pool, false, hds, tracer, report);
  std::remove(hds.c_str());
  ReportErrors(error_codes, report, true);
  return true;
}

}  // namespace perfbench
