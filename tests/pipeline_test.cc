#include <gtest/gtest.h>

#include "hw/cluster.h"
#include "model/profiler.h"
#include "model/resnet.h"
#include "model/vgg.h"
#include "partition/partitioner.h"
#include "pipeline/schedule.h"
#include "pipeline/task.h"
#include "pipeline/virtual_worker.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace hetpipe::pipeline {
namespace {

TEST(TaskTest, Names) {
  EXPECT_STREQ(TaskKindName(TaskKind::kForward), "FW");
  EXPECT_STREQ(TaskKindName(TaskKind::kBackward), "BW");
  Task t{TaskKind::kForward, 3, 1};
  EXPECT_EQ(ToString(t), "FW(M3,P2)");
}

TEST(StageQueueTest, ForwardOrderEnforced) {
  StageQueue q(0);
  // FW of minibatch 2 arrives first; it must not run before FW of 1.
  q.MakeAvailable({TaskKind::kForward, 2, 0});
  EXPECT_FALSE(q.PickNext().has_value());
  q.MakeAvailable({TaskKind::kForward, 1, 0});
  auto t = q.PickNext();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->minibatch, 1);
  t = q.PickNext();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->minibatch, 2);
}

TEST(StageQueueTest, BackwardOrderEnforcedIndependently) {
  StageQueue q(0);
  q.MakeAvailable({TaskKind::kBackward, 2, 0});
  q.MakeAvailable({TaskKind::kForward, 1, 0});
  // BW(2) blocked (BW(1) not done); FW(1) eligible.
  auto t = q.PickNext();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->kind, TaskKind::kForward);
  q.MakeAvailable({TaskKind::kBackward, 1, 0});
  t = q.PickNext();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->kind, TaskKind::kBackward);
  EXPECT_EQ(t->minibatch, 1);
}

TEST(StageQueueTest, FifoAmongEligible) {
  StageQueue q(0);
  q.MakeAvailable({TaskKind::kForward, 1, 0});
  q.MakeAvailable({TaskKind::kBackward, 1, 0});
  // Both eligible; FW(1) arrived first -> FIFO picks it.
  auto t = q.PickNext();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->kind, TaskKind::kForward);
}

TEST(StageQueueTest, FusedTaskAdvancesBothCounters) {
  StageQueue q(3);
  q.MakeAvailable({TaskKind::kForwardBackward, 1, 3});
  auto t = q.PickNext();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(q.next_forward(), 2);
  EXPECT_EQ(q.next_backward(), 2);
}

// Builds a small pipeline fixture over the paper cluster.
class VirtualWorkerTest : public ::testing::Test {
 protected:
  VirtualWorkerTest()
      : cluster_(hw::Cluster::Paper()),
        graph_(model::BuildResNet152()),
        profile_(graph_, 32),
        partitioner_(profile_, cluster_) {}

  partition::Partition MakePartition(const std::vector<int>& gpus, int nm) {
    partition::PartitionOptions options;
    options.nm = nm;
    partition::Partition p = partitioner_.Solve(gpus, options);
    EXPECT_TRUE(p.feasible);
    return p;
  }

  hw::Cluster cluster_;
  model::ModelGraph graph_;
  model::ModelProfile profile_;
  partition::Partitioner partitioner_;
};

TEST_F(VirtualWorkerTest, Nm1IsSequentialExecution) {
  const partition::Partition partition = MakePartition({0, 1, 2, 3}, 1);
  sim::Simulator simulator;
  OpenGate gate;
  VirtualWorkerOptions options;
  options.nm = 1;
  options.max_minibatches = 5;
  VirtualWorkerSim vw(0, simulator, partition, gate, options);
  vw.Start();
  simulator.Run();
  EXPECT_EQ(vw.minibatches_completed(), 5);
  // With Nm=1 each minibatch takes the full round trip: sum of stage times.
  const double expected = 5.0 * partition.sum_time;
  EXPECT_NEAR(vw.last_completion_time(), expected, expected * 0.01);
}

TEST_F(VirtualWorkerTest, ThroughputImprovesWithNm) {
  double prev_time = 1e30;
  for (int nm : {1, 2, 4}) {
    const partition::Partition partition = MakePartition({0, 1, 2, 3}, nm);
    sim::Simulator simulator;
    OpenGate gate;
    VirtualWorkerOptions options;
    options.nm = nm;
    options.max_minibatches = 24;
    VirtualWorkerSim vw(0, simulator, partition, gate, options);
    vw.Start();
    simulator.Run();
    EXPECT_EQ(vw.minibatches_completed(), 24);
    EXPECT_LT(vw.last_completion_time(), prev_time);
    prev_time = vw.last_completion_time();
  }
}

TEST_F(VirtualWorkerTest, CompletionsAreOrdered) {
  const partition::Partition partition = MakePartition({0, 1, 2, 3}, 4);
  sim::Simulator simulator;
  OpenGate gate;
  VirtualWorkerOptions options;
  options.nm = 4;
  options.max_minibatches = 20;
  VirtualWorkerSim vw(0, simulator, partition, gate, options);
  vw.Start();
  simulator.Run();
  const auto& times = vw.completion_times();
  ASSERT_EQ(times.size(), 20u);
  for (size_t i = 1; i < times.size(); ++i) {
    EXPECT_GE(times[i], times[i - 1]);
  }
}

TEST_F(VirtualWorkerTest, NeverExceedsNmInFlight) {
  // Completion of minibatch p must precede injection of p + Nm; with the
  // FIFO conditions this shows as: completion time of p < completion of p+Nm
  // minus at least the last stage's task time. Indirect check: with Nm=2 and
  // 12 minibatches, the makespan is at least ceil(12/2) * bottleneck.
  const int nm = 2;
  const partition::Partition partition = MakePartition({0, 1, 2, 3}, nm);
  sim::Simulator simulator;
  OpenGate gate;
  VirtualWorkerOptions options;
  options.nm = nm;
  options.max_minibatches = 12;
  VirtualWorkerSim vw(0, simulator, partition, gate, options);
  vw.Start();
  simulator.Run();
  const double lower_bound = 12.0 / nm * partition.bottleneck_time;
  EXPECT_GE(vw.last_completion_time(), lower_bound * 0.99);
}

TEST_F(VirtualWorkerTest, UtilizationRisesWithNm) {
  double util1 = 0.0;
  double util4 = 0.0;
  for (int nm : {1, 4}) {
    const partition::Partition partition = MakePartition({0, 1, 2, 3}, nm);
    sim::Simulator simulator;
    OpenGate gate;
    VirtualWorkerOptions options;
    options.nm = nm;
    options.max_minibatches = 40;
    VirtualWorkerSim vw(0, simulator, partition, gate, options);
    vw.Start();
    simulator.Run();
    const double u = vw.MaxStageUtilization(0.0, simulator.now());
    if (nm == 1) {
      util1 = u;
    } else {
      util4 = u;
    }
  }
  EXPECT_GT(util4, util1);
  EXPECT_LE(util4, 1.0);
}

TEST_F(VirtualWorkerTest, SingleGpuWorkerRuns) {
  const partition::Partition partition = MakePartition({4}, 1);  // one R GPU
  sim::Simulator simulator;
  OpenGate gate;
  VirtualWorkerOptions options;
  options.nm = 1;
  options.max_minibatches = 3;
  VirtualWorkerSim vw(0, simulator, partition, gate, options);
  vw.Start();
  simulator.Run();
  EXPECT_EQ(vw.minibatches_completed(), 3);
  EXPECT_EQ(vw.num_stages(), 1);
}

TEST_F(VirtualWorkerTest, WaveCallbacksFirePerWave) {
  struct CountingGate : public InjectionGate {
    bool RequestInjection(int, int64_t, std::function<void()>) override { return true; }
    void OnWaveComplete(int, int64_t wave) override {
      waves.push_back(wave);
    }
    std::vector<int64_t> waves;
  };
  const int nm = 3;
  const partition::Partition partition = MakePartition({0, 1, 2, 3}, nm);
  sim::Simulator simulator;
  CountingGate gate;
  VirtualWorkerOptions options;
  options.nm = nm;
  options.max_minibatches = 12;
  VirtualWorkerSim vw(0, simulator, partition, gate, options);
  vw.Start();
  simulator.Run();
  EXPECT_EQ(gate.waves, (std::vector<int64_t>{0, 1, 2, 3}));
}

TEST_F(VirtualWorkerTest, JitterKeepsCompletionCount) {
  const partition::Partition partition = MakePartition({0, 1, 2, 3}, 4);
  sim::Simulator simulator;
  OpenGate gate;
  VirtualWorkerOptions options;
  options.nm = 4;
  options.jitter_cv = 0.2;
  options.seed = 99;
  options.max_minibatches = 40;
  VirtualWorkerSim vw(0, simulator, partition, gate, options);
  vw.Start();
  simulator.Run();
  EXPECT_EQ(vw.minibatches_completed(), 40);
}

TEST_F(VirtualWorkerTest, DeterministicAcrossRuns) {
  const partition::Partition partition = MakePartition({0, 4, 8, 12}, 3);
  double first = -1.0;
  for (int run = 0; run < 2; ++run) {
    sim::Simulator simulator;
    OpenGate gate;
    VirtualWorkerOptions options;
    options.nm = 3;
    options.jitter_cv = 0.1;
    options.seed = 7;
    options.max_minibatches = 30;
    VirtualWorkerSim vw(0, simulator, partition, gate, options);
    vw.Start();
    simulator.Run();
    if (run == 0) {
      first = vw.last_completion_time();
    } else {
      EXPECT_DOUBLE_EQ(vw.last_completion_time(), first);
    }
  }
}

TEST_F(VirtualWorkerTest, TracerDoesNotChangeTheRun) {
  // Tracing happens in the task-completion handler, reading the stage's
  // running-task record; attaching a tracer must not move a single timestamp.
  const partition::Partition partition = MakePartition({0, 4, 8, 12}, 3);
  sim::Tracer tracer;
  std::vector<sim::SimTime> completions[2];
  double utilization[2] = {0.0, 0.0};
  for (int traced = 0; traced < 2; ++traced) {
    sim::Simulator simulator;
    OpenGate gate;
    VirtualWorkerOptions options;
    options.nm = 3;
    options.jitter_cv = 0.1;
    options.drift_cv = 0.05;
    options.seed = 11;
    options.max_minibatches = 24;
    options.tracer = traced == 1 ? &tracer : nullptr;
    VirtualWorkerSim vw(0, simulator, partition, gate, options);
    vw.Start();
    simulator.Run();
    completions[traced] = vw.completion_times();
    utilization[traced] = vw.MaxStageUtilization(0.0, simulator.now());
  }
  ASSERT_EQ(completions[0].size(), 24u);
  EXPECT_EQ(completions[0], completions[1]);
  EXPECT_EQ(utilization[0], utilization[1]);
  // Every task of every stage was traced: one compute interval per task
  // (24 minibatches x 4 stages, the last stage's FW+BW fused into one).
  int compute_events = 0;
  for (const sim::TraceEvent& event : tracer.events()) {
    compute_events += event.category != "comm" ? 1 : 0;
    EXPECT_LE(event.end, completions[1].back());
  }
  EXPECT_EQ(compute_events, 24 * (2 * 4 - 1));
}

}  // namespace
}  // namespace hetpipe::pipeline
