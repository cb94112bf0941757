#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace hetpipe::sim {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(3.0, [&] { order.push_back(3); });
  q.Push(1.0, [&] { order.push_back(1); });
  q.Push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) {
    q.Pop().action();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, BreaksTiesByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    q.Pop().action();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, SizeTracksPushPop) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.Push(1.0, [] {});
  q.Push(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.Pop();
  EXPECT_EQ(q.size(), 1u);
}

TEST(SimulatorTest, StressFiresInTimeThenSeqOrderWithReentrantSchedules) {
  // 100k events on a coarse time grid, so many share a time; some of them
  // schedule further events while they run. Scheduling from inside an action
  // reuses the queue slot that action was popped from and, while the queue
  // still grows, grows the slot vector mid-dispatch. Events are numbered in
  // scheduling order, which is the queue's seq; the firing order must equal
  // the events sorted by (time, seq).
  constexpr int kInitial = 100000;
  Simulator sim;
  Rng rng(7);
  std::vector<std::pair<SimTime, uint64_t>> scheduled;  // (time, seq)
  std::vector<std::pair<SimTime, uint64_t>> fired;
  std::function<void(SimTime, int)> schedule = [&](SimTime time, int depth) {
    const uint64_t seq = scheduled.size();
    scheduled.emplace_back(time, seq);
    sim.ScheduleAt(time, [&, time, seq, depth] {
      fired.emplace_back(sim.now(), seq);
      if (depth < 3 && seq % 4 == 0) {
        for (uint64_t child = 0; child <= seq % 3; ++child) {
          schedule(time + static_cast<double>(rng.UniformInt(0, 8)), depth + 1);
        }
      }
    });
  };
  for (int i = 0; i < kInitial; ++i) {
    schedule(static_cast<double>(rng.UniformInt(0, 999)), 0);
  }
  sim.Run();
  EXPECT_GT(scheduled.size(), static_cast<size_t>(kInitial + kInitial / 4));
  EXPECT_EQ(sim.events_processed(), scheduled.size());
  std::vector<std::pair<SimTime, uint64_t>> reference = scheduled;
  std::sort(reference.begin(), reference.end());
  EXPECT_EQ(fired, reference);
}

TEST(SimulatorTest, AdvancesTimeToEventTimestamps) {
  Simulator sim;
  std::vector<double> seen;
  sim.Schedule(1.5, [&] { seen.push_back(sim.now()); });
  sim.Schedule(0.5, [&] { seen.push_back(sim.now()); });
  sim.Run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(seen[0], 0.5);
  EXPECT_DOUBLE_EQ(seen[1], 1.5);
}

TEST(SimulatorTest, NestedSchedulingWorks) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1.0, [&] {
    ++fired;
    sim.Schedule(1.0, [&] {
      ++fired;
      EXPECT_DOUBLE_EQ(sim.now(), 2.0);
    });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1.0, [&] { ++fired; });
  sim.Schedule(5.0, [&] { ++fired; });
  sim.RunUntil(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventAtExactDeadlineFires) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(2.0, [&] { ++fired; });
  sim.RunUntil(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenQueueDrainsEarly) {
  // Regression: the queue draining before the deadline used to leave now()
  // at the last event, so a later RunUntil with an earlier-than-last-deadline
  // window observed a non-monotone clock and relative Schedule() calls were
  // anchored at the stale time.
  Simulator sim;
  sim.Schedule(1.0, [] {});
  sim.RunUntil(5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);  // not 1.0: the interval to 5.0 elapsed

  // Back-to-back windows see a monotone clock even with nothing queued.
  sim.RunUntil(7.0);
  EXPECT_DOUBLE_EQ(sim.now(), 7.0);

  // Relative scheduling after a drained window anchors at the deadline.
  double fired_at = -1.0;
  sim.Schedule(1.0, [&] { fired_at = sim.now(); });
  sim.RunUntil(10.0);
  EXPECT_DOUBLE_EQ(fired_at, 8.0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);

  // Run() (infinite deadline) still leaves the clock at the last event.
  Simulator open_ended;
  open_ended.Schedule(3.0, [] {});
  open_ended.Run();
  EXPECT_DOUBLE_EQ(open_ended.now(), 3.0);

  // A Stop() inside the window leaves the clock at the stopping event.
  Simulator stopped;
  stopped.Schedule(1.0, [&] { stopped.Stop(); });
  stopped.RunUntil(9.0);
  EXPECT_DOUBLE_EQ(stopped.now(), 1.0);
}

TEST(SimulatorTest, StopHaltsDispatch) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1.0, [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(2.0, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  sim.Run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  double at = -1.0;
  sim.Schedule(1.0, [&] { sim.Schedule(-5.0, [&] { at = sim.now(); }); });
  sim.Run();
  EXPECT_DOUBLE_EQ(at, 1.0);
}

TEST(AccumulatorTest, BasicMoments) {
  Accumulator acc;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    acc.Add(v);
  }
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
}

TEST(AccumulatorTest, EmptyIsSafe) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(AccumulatorTest, SingleSampleHasZeroVariance) {
  Accumulator acc;
  acc.Add(7.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 7.0);
}

TEST(BusyTrackerTest, UtilizationWithinWindow) {
  BusyTracker tracker;
  tracker.AddBusy(0.0, 1.0);
  tracker.AddBusy(2.0, 3.0);
  EXPECT_DOUBLE_EQ(tracker.busy_time(), 2.0);
  EXPECT_DOUBLE_EQ(tracker.Utilization(0.0, 4.0), 0.5);
  // Partial overlap with the window.
  EXPECT_DOUBLE_EQ(tracker.Utilization(0.5, 2.5), 0.5);
}

TEST(BusyTrackerTest, IgnoresEmptyIntervalsAndEmptyWindows) {
  BusyTracker tracker;
  tracker.AddBusy(1.0, 1.0);
  tracker.AddBusy(2.0, 1.0);  // end < start: ignored
  EXPECT_DOUBLE_EQ(tracker.busy_time(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.Utilization(5.0, 5.0), 0.0);
}

// The linear scan BusyTracker::Utilization used before its binary search:
// the oracle the windowed query must match bit for bit.
double ScanUtilization(const std::vector<std::pair<SimTime, SimTime>>& intervals,
                       SimTime window_start, SimTime window_end) {
  const SimTime window = window_end - window_start;
  if (window <= 0.0) {
    return 0.0;
  }
  SimTime busy_in_window = 0.0;
  for (const auto& [start, end] : intervals) {
    const SimTime s = std::max(start, window_start);
    const SimTime e = std::min(end, window_end);
    if (e > s) {
      busy_in_window += e - s;
    }
  }
  return std::min(1.0, busy_in_window / window);
}

TEST(BusyTrackerTest, WindowedUtilizationMatchesLinearScanBitExactly) {
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    Rng rng(seed);
    BusyTracker tracker;
    std::vector<std::pair<SimTime, SimTime>> intervals;
    SimTime t = rng.Uniform(0.0, 2.0);
    const int64_t n = rng.UniformInt(0, 40);
    for (int64_t i = 0; i < n; ++i) {
      // Gaps are sometimes zero, so intervals also touch end to start.
      t += rng.UniformInt(0, 3) == 0 ? 0.0 : rng.Uniform(0.0, 1.5);
      const SimTime end = t + rng.Uniform(1e-3, 2.0);
      tracker.AddBusy(t, end);
      intervals.emplace_back(t, end);
      t = end;
    }
    const SimTime first = intervals.empty() ? 0.0 : intervals.front().first;
    const SimTime last = intervals.empty() ? 1.0 : intervals.back().second;
    std::vector<std::pair<SimTime, SimTime>> windows = {
        {first - 5.0, first - 1.0},  // before every interval
        {last + 1.0, last + 5.0},    // after every interval
        {first - 1.0, last + 1.0},   // across all of them
        {first, last},
        {last, first},               // inverted: empty
        {first, first},              // empty
    };
    for (const auto& [start, end] : intervals) {
      windows.emplace_back(start, end);                    // exactly one interval
      windows.emplace_back(start + (end - start) / 3.0,    // inside one interval
                           end - (end - start) / 3.0);
      windows.emplace_back(end, end);                      // empty, on a boundary
    }
    for (int w = 0; w < 40; ++w) {
      const SimTime a = rng.Uniform(first - 2.0, last + 2.0);
      const SimTime b = rng.Uniform(first - 2.0, last + 2.0);
      windows.emplace_back(std::min(a, b), std::max(a, b));  // across some intervals
    }
    for (const auto& [window_start, window_end] : windows) {
      EXPECT_EQ(tracker.Utilization(window_start, window_end),
                ScanUtilization(intervals, window_start, window_end))
          << "seed " << seed << " window [" << window_start << ", " << window_end << ")";
    }
  }
}

TEST(BusyTrackerTest, RejectsOutOfOrderAndOverlappingIntervals) {
  BusyTracker tracker;
  tracker.AddBusy(1.0, 2.0);
  tracker.AddBusy(2.0, 3.0);  // touching the previous end is fine
  EXPECT_THROW(tracker.AddBusy(0.0, 0.5), std::invalid_argument);  // out of order
  EXPECT_THROW(tracker.AddBusy(2.5, 4.0), std::invalid_argument);  // overlapping
  tracker.AddBusy(2.5, 2.5);  // empty: ignored, not rejected
  // A rejected interval records nothing.
  EXPECT_DOUBLE_EQ(tracker.busy_time(), 2.0);
  EXPECT_DOUBLE_EQ(tracker.Utilization(0.0, 4.0), 0.5);
}

TEST(TimeSeriesTest, InterpolatesLinearly) {
  TimeSeries series;
  series.Add(0.0, 0.0);
  series.Add(10.0, 1.0);
  EXPECT_DOUBLE_EQ(series.ValueAt(5.0), 0.5);
  EXPECT_DOUBLE_EQ(series.ValueAt(-1.0), 0.0);  // clamps
  EXPECT_DOUBLE_EQ(series.ValueAt(99.0), 1.0);  // clamps
}

TEST(TimeSeriesTest, FirstTimeAtLeastInterpolatesCrossing) {
  TimeSeries series;
  series.Add(0.0, 0.0);
  series.Add(2.0, 0.4);
  series.Add(4.0, 0.8);
  EXPECT_NEAR(series.FirstTimeAtLeast(0.6), 3.0, 1e-12);
  EXPECT_TRUE(std::isinf(series.FirstTimeAtLeast(0.9)));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.NextU64() == b.NextU64());
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(10);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) {
    acc.Add(rng.Normal());
  }
  EXPECT_NEAR(acc.mean(), 0.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.05);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(12);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  rng.Shuffle(v.data(), v.size());
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(SplitMixTest, KnownNonZeroStream) {
  SplitMix64 sm(0);
  uint64_t prev = sm.Next();
  for (int i = 0; i < 10; ++i) {
    const uint64_t next = sm.Next();
    EXPECT_NE(next, prev);
    prev = next;
  }
}

}  // namespace
}  // namespace hetpipe::sim
