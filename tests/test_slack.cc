/**
 * @file
 * Unit tests for the local slack analysis (Sec. 4 support).
 */

#include <gtest/gtest.h>

#include "core/timing_sim.hh"
#include "critpath/slack.hh"
#include "emu/emulator.hh"
#include "frontend/branch_annotator.hh"
#include "mem/latency_annotator.hh"
#include "policy/scheduling.hh"
#include "policy/steering.hh"
#include "workloads/registry.hh"

namespace csim {
namespace {

const auto r = Program::r;

Trace
prepare(const Program &p)
{
    Emulator emu(p);
    Trace t = emu.run(100000);
    t.linkProducers();
    annotateBranches(t);
    annotateMemory(t);
    return t;
}

SimResult
run(const Trace &t)
{
    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    AgeScheduling age;
    return TimingSim(MachineConfig::monolithic(), t, steer, age)
        .run();
}

TEST(Slack, SerialChainHasNoSlack)
{
    Program p;
    for (int i = 0; i < 100; ++i)
        p.addi(r(1), r(1), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    SimResult res = run(t);
    SlackAnalysis sa =
        analyzeSlack(t, res, MachineConfig::monolithic());

    // Interior chain links are consumed the cycle they arrive.
    std::uint64_t zero = 0;
    for (std::size_t i = 10; i + 10 < t.size(); ++i)
        if (sa.localSlack[i] == 0)
            ++zero;
    EXPECT_GT(zero, 70u);
}

TEST(Slack, UnusedValueGetsCommitSlack)
{
    Program p;
    p.lui(r(1), 7);                  // never consumed
    for (int i = 0; i < 40; ++i)
        p.addi(r(2), r(2), 1);       // a chain delaying commit
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    SimResult res = run(t);
    SlackAnalysis sa =
        analyzeSlack(t, res, MachineConfig::monolithic());
    // The lui completes immediately but commits in order behind the
    // pipeline fill: positive slack.
    EXPECT_GT(sa.localSlack[0], 0u);
}

TEST(Slack, MispredictedBranchHasZeroSlack)
{
    Program p;
    Label loop = p.newLabel();
    p.lui(r(1), 100);
    p.bind(loop);
    p.addi(r(1), r(1), -1);
    p.bne(r(1), loop);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    for (std::size_t i = 0; i < t.size(); ++i)
        if (t[i].isCondBranch)
            t.setMispredicted(i, true);
    SimResult res = run(t);
    SlackAnalysis sa =
        analyzeSlack(t, res, MachineConfig::monolithic());
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].isCondBranch) {
            EXPECT_EQ(sa.localSlack[i], 0u) << i;
        }
    }
}

TEST(Slack, CapRespected)
{
    WorkloadConfig wcfg;
    wcfg.targetInstructions = 5000;
    wcfg.seed = 1;
    Trace t = buildAnnotatedTrace("vortex", wcfg);
    SimResult res = run(t);
    SlackAnalysis sa =
        analyzeSlack(t, res, MachineConfig::monolithic(), 64);
    for (Cycle s : sa.localSlack)
        ASSERT_LE(s, 64u);
    EXPECT_GE(sa.highVarianceFraction, 0.0);
    EXPECT_LE(sa.highVarianceFraction, 1.0);
    EXPECT_FALSE(sa.perStatic.empty());
    // perStatic sorted by dynamic count.
    for (std::size_t i = 1; i < sa.perStatic.size(); ++i) {
        ASSERT_GE(sa.perStatic[i - 1].instances,
                  sa.perStatic[i].instances);
    }
}

TEST(Slack, StaticStatsConsistent)
{
    WorkloadConfig wcfg;
    wcfg.targetInstructions = 5000;
    wcfg.seed = 2;
    Trace t = buildAnnotatedTrace("twolf", wcfg);
    SimResult res = run(t);
    SlackAnalysis sa =
        analyzeSlack(t, res, MachineConfig::monolithic());
    std::uint64_t total = 0;
    for (const StaticSlack &s : sa.perStatic) {
        EXPECT_LE(s.minSlack, s.meanSlack);
        EXPECT_LE(s.meanSlack, s.maxSlack);
        EXPECT_GE(s.stddev, 0.0);
        total += s.instances;
    }
    EXPECT_EQ(total, t.size());
}

} // anonymous namespace
} // namespace csim
