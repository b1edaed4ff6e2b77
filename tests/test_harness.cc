/**
 * @file
 * Tests for the experiment harness and reporting helpers.
 */

#include <gtest/gtest.h>

#include "core/machine_config.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "policy/extra_steering.hh"
#include "policy/scheduling.hh"

namespace csim {
namespace {

TEST(MachineConfigs, PaperPartitionings)
{
    const MachineConfig m1 = MachineConfig::monolithic();
    EXPECT_EQ(m1.numClusters, 1u);
    EXPECT_EQ(m1.cluster.issueWidth, 8u);
    EXPECT_EQ(m1.cluster.fpPorts, 4u);
    EXPECT_EQ(m1.cluster.memPorts, 4u);
    EXPECT_EQ(m1.windowPerCluster, 128u);
    EXPECT_EQ(m1.name(), "1x8w");

    const MachineConfig m2 = MachineConfig::clustered(2);
    EXPECT_EQ(m2.cluster.issueWidth, 4u);
    EXPECT_EQ(m2.cluster.fpPorts, 2u);
    EXPECT_EQ(m2.windowPerCluster, 64u);
    EXPECT_EQ(m2.name(), "2x4w");

    const MachineConfig m4 = MachineConfig::clustered(4);
    EXPECT_EQ(m4.cluster.issueWidth, 2u);
    EXPECT_EQ(m4.cluster.intPorts, 2u);
    EXPECT_EQ(m4.cluster.fpPorts, 1u);
    EXPECT_EQ(m4.cluster.memPorts, 1u);
    EXPECT_EQ(m4.windowPerCluster, 32u);
    EXPECT_EQ(m4.name(), "4x2w");

    // Footnote 1: each 1-wide cluster still gets a memory port and a
    // floating point ALU.
    const MachineConfig m8 = MachineConfig::clustered(8);
    EXPECT_EQ(m8.cluster.issueWidth, 1u);
    EXPECT_EQ(m8.cluster.fpPorts, 1u);
    EXPECT_EQ(m8.cluster.memPorts, 1u);
    EXPECT_EQ(m8.windowPerCluster, 16u);
    EXPECT_EQ(m8.name(), "8x1w");
}

TEST(MachineConfigs, GenericGeometry)
{
    const MachineConfig g = MachineConfig::generic(16, 1);
    EXPECT_EQ(g.numClusters, 16u);
    EXPECT_EQ(g.cluster.issueWidth, 1u);
    EXPECT_EQ(g.windowPerCluster, 8u);
    EXPECT_EQ(g.name(), "16x1w");
    EXPECT_EQ(g.totalWidth(), 16u);
}

TEST(Harness, PolicyNamesExist)
{
    for (PolicyKind k :
         {PolicyKind::ModN, PolicyKind::LoadBal, PolicyKind::Dep,
          PolicyKind::Focused, PolicyKind::FocusedLoc,
          PolicyKind::FocusedLocStall,
          PolicyKind::FocusedLocStallProactive,
          PolicyKind::ActiveClusters}) {
        EXPECT_NE(policyName(k), nullptr);
    }
}

TEST(Harness, ActiveClustersIsAdaptiveClusterSteeringUnwarmed)
{
    // The cluster sweep's third row: the bare steering policy with age
    // scheduling and no predictor warmup, so the harness run must
    // match a plain TimingSim run cycle for cycle.
    WorkloadConfig wcfg;
    wcfg.targetInstructions = 6000;
    wcfg.seed = 1;
    const Trace trace = buildAnnotatedTrace("mcf", wcfg);
    for (unsigned n : {2u, 16u}) {
        const MachineConfig mc = MachineConfig::generic(n, 1);
        AdaptiveClusterSteering steer;
        AgeScheduling age;
        const SimResult bare = TimingSim(mc, trace, steer, age).run();
        const PolicyRun run = runPolicy(
            trace, mc, PolicyKind::ActiveClusters, ExperimentConfig{});
        EXPECT_EQ(run.sim.cycles, bare.cycles) << mc.name();
        EXPECT_EQ(run.sim.instructions, bare.instructions);
    }
}

TEST(Harness, AggregateAccumulatesSeeds)
{
    ExperimentConfig cfg;
    cfg.instructions = 3000;
    cfg.seeds = {1, 2, 3};
    cfg.warmupRuns = 0;
    AggregateResult res = runAggregate(
        "vpr", MachineConfig::clustered(2), PolicyKind::Dep, cfg);
    EXPECT_EQ(res.instructions, 9000u);
    EXPECT_GT(res.cycles, 0u);
    EXPECT_GT(res.cpi(), 0.1);
    EXPECT_LT(res.cpi(), 10.0);

    // Breakdown covers the full runtime of every seed: category sum
    // is close to total cycles (one commit cycle per seed is
    // definitionally outside the walk).
    std::uint64_t cats = 0;
    for (std::size_t c = 0; c < numCpCategories; ++c)
        cats += res.categoryCycles[c];
    EXPECT_GE(cats + 3 * 2, res.cycles);
    EXPECT_LE(cats, res.cycles);
}

TEST(Harness, IdealAggregateRuns)
{
    ExperimentConfig cfg;
    cfg.instructions = 3000;
    cfg.seeds = {1};
    AggregateResult ideal = runIdealAggregate(
        "gzip", MachineConfig::clustered(4), cfg);
    EXPECT_EQ(ideal.instructions, 3000u);
    EXPECT_GT(ideal.cycles, 0u);
}

TEST(Harness, WarmupImprovesOrMatchesFocused)
{
    // With warmed predictors the focused policy should rarely be
    // (much) worse than with cold predictors.
    WorkloadConfig wcfg;
    wcfg.targetInstructions = 12000;
    wcfg.seed = 1;
    Trace trace = buildAnnotatedTrace("gzip", wcfg);

    ExperimentConfig cold;
    cold.warmupRuns = 0;
    ExperimentConfig warm;
    warm.warmupRuns = 1;
    const MachineConfig mc = MachineConfig::clustered(4);
    PolicyRun rc = runPolicy(trace, mc, PolicyKind::FocusedLoc, cold);
    PolicyRun rw = runPolicy(trace, mc, PolicyKind::FocusedLoc, warm);
    EXPECT_LE(rw.sim.cycles,
              rc.sim.cycles + rc.sim.cycles / 10);
}

TEST(MachineConfigsDeath, InvalidClusterCountPanics)
{
    EXPECT_DEATH(MachineConfig::clustered(3), "");
    EXPECT_DEATH(MachineConfig::clustered(0), "");
    EXPECT_DEATH(MachineConfig::clustered(16), "");
}

TEST(Harness, AblationKnobsArePlumbedThrough)
{
    // Different LoC stratifications and stall thresholds must produce
    // valid (and generally different) runs.
    WorkloadConfig wcfg;
    wcfg.targetInstructions = 8000;
    wcfg.seed = 1;
    Trace trace = buildAnnotatedTrace("gzip", wcfg);
    const MachineConfig mc = MachineConfig::clustered(8);

    ExperimentConfig coarse;
    coarse.locLevels = 2;
    ExperimentConfig fine;
    fine.locLevels = 16;
    PolicyRun a = runPolicy(trace, mc, PolicyKind::FocusedLoc, coarse);
    PolicyRun b = runPolicy(trace, mc, PolicyKind::FocusedLoc, fine);
    EXPECT_GT(a.sim.cycles, 0u);
    EXPECT_GT(b.sim.cycles, 0u);

    ExperimentConfig lenient;
    lenient.stallThreshold = 0.05;
    ExperimentConfig strict;
    strict.stallThreshold = 0.95;
    PolicyRun c = runPolicy(trace, mc, PolicyKind::FocusedLocStall,
                            lenient);
    PolicyRun d = runPolicy(trace, mc, PolicyKind::FocusedLocStall,
                            strict);
    // A near-zero threshold stalls far more often.
    EXPECT_GT(c.sim.steerStallCycles, d.sim.steerStallCycles);
}

TEST(FigureGrid, AveragesAndFormats)
{
    FigureGrid grid("title", {"a", "b"});
    grid.set("w1", "a", 1.0);
    grid.set("w2", "a", 3.0);
    grid.set("w1", "b", 2.0);
    EXPECT_DOUBLE_EQ(grid.columnAverage("a"), 2.0);
    EXPECT_DOUBLE_EQ(grid.columnAverage("b"), 2.0);
    const std::string s = grid.str();
    EXPECT_NE(s.find("title"), std::string::npos);
    EXPECT_NE(s.find("AVE"), std::string::npos);
    EXPECT_NE(s.find("1.000"), std::string::npos);
    // Missing cells render as '-'.
    EXPECT_NE(s.find("-"), std::string::npos);
}

TEST(ReportMath, Mean)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

} // anonymous namespace
} // namespace csim
