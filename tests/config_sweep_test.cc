// Parameterized sweep over the whole HetPipe configuration space
// (model x allocation x placement x D): every combination must produce a
// feasible run satisfying the report invariants.
#include <gtest/gtest.h>

#include <tuple>

#include "core/hetpipe.h"
#include "model/resnet.h"
#include "model/vgg.h"
#include "wsp/sync_policy.h"

namespace hetpipe::core {
namespace {

using SweepParam = std::tuple<bool /*vgg*/, cluster::AllocationPolicy, wsp::PlacementPolicy,
                              int /*d*/>;

class ConfigSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ConfigSweepTest, RunsAndSatisfiesInvariants) {
  const auto [vgg, allocation, placement, d] = GetParam();
  const SolveContext context(hw::Cluster::Paper(),
                             vgg ? model::BuildVgg19() : model::BuildResNet152(), 32);

  HetPipeConfig config;
  config.allocation = allocation;
  config.placement = placement;
  config.sync = wsp::SyncPolicy::Wsp(d);
  config.jitter_cv = 0.05;
  config.waves = 12;
  config.warmup_waves = 2;

  const HetPipeReport report = HetPipe(context, config).Run();
  ASSERT_TRUE(report.feasible) << report.infeasible_reason;
  EXPECT_GT(report.throughput_img_s, 0.0);
  EXPECT_GE(report.nm, 1);
  EXPECT_LE(report.nm, config.nm_cap);
  EXPECT_EQ(report.s_local, report.nm - 1);
  EXPECT_EQ(report.s_global, wsp::GlobalStaleness(report.nm, d));
  EXPECT_EQ(report.vws.size(), 4u);
  for (const VwReport& vw : report.vws) {
    EXPECT_TRUE(vw.partition.feasible);
    EXPECT_GT(vw.throughput_img_s, 0.0);
    EXPECT_GE(vw.max_stage_utilization, 0.0);
    EXPECT_LE(vw.max_stage_utilization, 1.0);
    EXPECT_GE(vw.max_nm, report.nm);
    // Every stage honors its memory cap.
    for (const auto& stage : vw.partition.stages) {
      EXPECT_LE(stage.memory_bytes, stage.memory_cap);
    }
  }
  EXPECT_GE(report.total_wait_s, 0.0);
  EXPECT_GE(report.avg_clock_distance, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConfigSweepTest,
    ::testing::Combine(
        ::testing::Values(false, true),
        ::testing::Values(cluster::AllocationPolicy::kNodePartition,
                          cluster::AllocationPolicy::kEqualDistribution,
                          cluster::AllocationPolicy::kHybridDistribution),
        ::testing::Values(wsp::PlacementPolicy::kRoundRobin, wsp::PlacementPolicy::kLocal),
        ::testing::Values(0, 4)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      std::string name = std::get<0>(info.param) ? "Vgg" : "ResNet";
      name += cluster::PolicyName(std::get<1>(info.param));
      name += std::get<2>(info.param) == wsp::PlacementPolicy::kLocal ? "Local" : "RR";
      name += "D" + std::to_string(std::get<3>(info.param));
      return name;
    });

}  // namespace
}  // namespace hetpipe::core
