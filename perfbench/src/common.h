// Shared helpers of the perfbench harness: a seeded RNG whose streams do not
// depend on the standard library's distributions, monotonic time, order
// statistics, and the metric report every workload fills.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace hetpipe::cluster {}
namespace hetpipe::core {}
namespace hetpipe::dp {}
namespace hetpipe::hw {}
namespace hetpipe::model {}
namespace hetpipe::partition {}
namespace hetpipe::runner {}
namespace hetpipe::serve {}
namespace hetpipe::store {}
namespace hetpipe::wsp {}

namespace perfbench {

// The library's modules, by their own names.
namespace cluster = hetpipe::cluster;
namespace core = hetpipe::core;
namespace dp = hetpipe::dp;
namespace hw = hetpipe::hw;
namespace model = hetpipe::model;
namespace partition = hetpipe::partition;
namespace runner = hetpipe::runner;
namespace serve = hetpipe::serve;
namespace store = hetpipe::store;
namespace wsp = hetpipe::wsp;

using Clock = std::chrono::steady_clock;

// Where runs leave their files (trace, .hds), relative to the checkout root.
constexpr const char* kScratchDir = ".bench_out";

// Seconds since a fixed process-wide origin (the first call).
inline double NowS() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

// Waits until NowS() >= t: sleeps until `spin_s` before it, then spins, so an
// open-loop schedule is kept to within a few microseconds even when a sleep
// overshoots. A spinning thread delays the server threads that share its
// processors, so callers keep the spin window a small share of the gap
// between their sends.
inline void WaitUntil(double t, double spin_s) {
  for (;;) {
    const double left = t - NowS();
    if (left <= 0.0) return;
    if (left > spin_s) {
      std::this_thread::sleep_for(std::chrono::duration<double>(left - spin_s));
    } else {
      std::this_thread::yield();
    }
  }
}

// SplitMix64: tiny, seedable, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  // Independent stream `stream` of seed `seed`.
  Rng(uint64_t seed, uint64_t stream)
      : state_(seed * 0x9E3779B97F4A7C15ull ^ (stream + 1) * 0xD1B54A32D192ED03ull) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Uniform integer in [lo, hi].
  int Int(int lo, int hi) {
    return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  // Exponential with the given mean.
  double Exponential(double mean) { return -mean * std::log(1.0 - Uniform()); }

 private:
  uint64_t state_;
};

// Linear-interpolated quantile of unsorted samples (q in [0, 1]); 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// Median over consecutive windows of at least `window` values of each
// window's q-quantile: a slow spell of the host inflates one window instead
// of the whole measurement.
inline double WindowedQuantile(const std::vector<double>& values, double q, size_t window) {
  const size_t n = values.size();
  const size_t windows = std::max<size_t>(1, n / window);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    per_window.push_back(Quantile(
        std::vector<double>(values.begin() + w * n / windows, values.begin() + (w + 1) * n / windows),
        q));
  }
  return Median(per_window);
}

// FNV-1a over bytes, for the printed row and response checksums.
inline uint64_t Fnv1a(const char* data, size_t size, uint64_t hash = 1469598103934665603ull) {
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ull;
  }
  return hash;
}
inline uint64_t Fnv1a(const std::string& bytes, uint64_t hash = 1469598103934665603ull) {
  return Fnv1a(bytes.data(), bytes.size(), hash);
}

// Peak resident set of this process, in MiB.
double PeakRssMb();

// What one run prints: named metrics with units, plus the operation counts
// and the correctness verdict of the result line.
struct Report {
  std::map<std::string, std::pair<double, std::string>> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> check_failures;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  // Records a failed output check (printed, and it fails the run).
  void CheckFailed(const std::string& what) {
    if (check_failures.size() < 20) check_failures.push_back(what);
    ++failed;
  }
};

}  // namespace perfbench
