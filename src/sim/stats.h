#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace hetpipe::sim {

// Streaming scalar accumulator (Welford's online algorithm for variance).
class Accumulator {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  // Sample variance / standard deviation; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;

 private:
  size_t count_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Tracks how long a simulated resource (a GPU, a link) was busy, so that
// utilization = busy / elapsed can be reported, as in Fig. 3 of the paper.
class BusyTracker {
 public:
  // Records a busy interval [start, end); empty intervals (end <= start) are
  // ignored. Intervals must arrive in time order without overlapping (a GPU
  // executes one task at a time): a start before the previous interval's end
  // throws std::invalid_argument and records nothing. That order is what
  // lets Utilization find a window by binary search.
  void AddBusy(SimTime start, SimTime end);

  SimTime busy_time() const { return busy_; }
  // Utilization in [0, 1] over the window [window_start, window_end); only
  // busy time that falls inside the window counts. O(log n + intervals that
  // meet the window); the sum adds the same terms in the same order as a
  // scan over every interval would, so the result is bit-identical to it.
  double Utilization(SimTime window_start, SimTime window_end) const;

 private:
  struct Interval {
    SimTime start;
    SimTime end;
  };
  SimTime busy_ = 0.0;
  std::vector<Interval> intervals_;
};

// Append-only (time, value) series, e.g. accuracy-vs-time curves.
class TimeSeries {
 public:
  void Add(double t, double v) { points_.emplace_back(t, v); }
  const std::vector<std::pair<double, double>>& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  size_t size() const { return points_.size(); }

  // Linear interpolation; clamps outside the recorded range.
  double ValueAt(double t) const;
  // First time the series reaches `v` (series assumed nondecreasing);
  // returns +inf if never reached.
  double FirstTimeAtLeast(double v) const;

 private:
  std::vector<std::pair<double, double>> points_;
};

}  // namespace hetpipe::sim
