/**
 * @file
 * Tests for the critical-path machinery: attribution exactness,
 * category semantics, the online trainer and the consumer analysis.
 */

#include <gtest/gtest.h>

#include "core/timing_sim.hh"
#include "critpath/attribution.hh"
#include "critpath/consumer_analysis.hh"
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
run(const Trace &t, const MachineConfig &mc)
{
    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    AgeScheduling age;
    return TimingSim(mc, t, steer, age).run();
}

TEST(CritPath, AttributionSumsToRuntime)
{
    for (const char *wl : {"vpr", "gzip", "mcf"}) {
        SCOPED_TRACE(wl);
        WorkloadConfig wcfg;
        wcfg.targetInstructions = 10000;
        wcfg.seed = 2;
        Trace t = buildAnnotatedTrace(wl, wcfg);
        for (unsigned n : {1u, 2u, 4u, 8u}) {
            SCOPED_TRACE(n);
            MachineConfig mc = n == 1 ? MachineConfig::monolithic()
                                      : MachineConfig::clustered(n);
            SimResult res = run(t, mc);
            CpBreakdown bd = analyzeFullRun(t, res, mc);
            EXPECT_EQ(bd.total(), res.timing.back().commit);
        }
    }
}

TEST(CritPath, SerialChainIsExecuteCritical)
{
    Program p;
    for (int i = 0; i < 400; ++i)
        p.addi(r(1), r(1), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    MachineConfig mc = MachineConfig::monolithic();
    SimResult res = run(t, mc);
    CpBreakdown bd = analyzeFullRun(t, res, mc);

    // The chain dominates: execute cycles ~ instruction count.
    EXPECT_GT(bd[CpCategory::Execute],
              static_cast<std::uint64_t>(0.8 * 400));
    EXPECT_EQ(bd[CpCategory::FwdDelay], 0u);
}

TEST(CritPath, IndependentWorkIsFetchBound)
{
    Program p;
    for (int i = 0; i < 50; ++i)
        for (int j = 1; j <= 8; ++j)
            p.addi(r(j), r(j), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    MachineConfig mc = MachineConfig::monolithic();
    SimResult res = run(t, mc);
    CpBreakdown bd = analyzeFullRun(t, res, mc);

    // 400 independent-chain instructions at 8 wide: the front end is
    // the constraint.
    EXPECT_GT(bd[CpCategory::Fetch], bd[CpCategory::Execute]);
}

TEST(CritPath, MissLatencyAttributedToMemory)
{
    // Serial pointer chase over a large region: misses dominate.
    Program p;
    Label loop = p.newLabel();
    p.lui(r(1), 0x100000);
    p.lui(r(2), 600);
    p.bind(loop);
    p.ld(r(1), r(1), 0);
    p.addi(r(2), r(2), -1);
    p.bne(r(2), loop);
    p.halt();
    p.finalize();

    Emulator emu(p);
    // Pointer cycle with a large stride to defeat the 32KB L1.
    const Addr base = 0x100000;
    const std::uint64_t nodes = 4096;
    for (std::uint64_t i = 0; i < nodes; ++i) {
        emu.poke(base + i * 8,
                 static_cast<std::int64_t>(
                     base + ((i + 577) % nodes) * 8));
    }
    Trace t = emu.run(100000);
    t.linkProducers();
    annotateBranches(t);
    annotateMemory(t);

    MachineConfig mc = MachineConfig::monolithic();
    SimResult res = run(t, mc);
    CpBreakdown bd = analyzeFullRun(t, res, mc);
    EXPECT_GT(bd[CpCategory::MemLatency], bd.total() / 2);
}

TEST(CritPath, MispredictsAttributedToBranches)
{
    // A loop whose only long-latency events are forced mispredicts.
    Program p;
    Label loop = p.newLabel();
    p.lui(r(1), 300);
    p.bind(loop);
    p.addi(r(1), r(1), -1);
    p.bne(r(1), loop);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    for (std::size_t i = 0; i < t.size(); ++i)
        if (t[i].isCondBranch)
            t.setMispredicted(i, true);

    MachineConfig mc = MachineConfig::monolithic();
    SimResult res = run(t, mc);
    CpBreakdown bd = analyzeFullRun(t, res, mc);
    // Each iteration pays a redirect: the dominant category.
    EXPECT_GT(bd[CpCategory::BrMispredict], bd.total() / 2);
}

TEST(CritPath, ForwardingAttributedWhenChainsSplit)
{
    Program p;
    for (int i = 0; i < 200; ++i)
        p.addi(r(1), r(1), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);

    // Mod-N steering alternates the chain across clusters: every link
    // pays the bypass.
    ModNSteering modn;
    AgeScheduling age;
    MachineConfig mc = MachineConfig::clustered(2);
    SimResult res = TimingSim(mc, t, modn, age).run();
    CpBreakdown bd = analyzeFullRun(t, res, mc);
    EXPECT_GT(bd[CpCategory::FwdDelay],
              static_cast<std::uint64_t>(150 * mc.fwdLatency));
}

TEST(CritPath, ChunkedGroundTruthCoversTrace)
{
    WorkloadConfig wcfg;
    wcfg.targetInstructions = 9000;
    wcfg.seed = 3;
    Trace t = buildAnnotatedTrace("vpr", wcfg);
    MachineConfig mc = MachineConfig::clustered(4);
    SimResult res = run(t, mc);

    std::vector<bool> crit = criticalityGroundTruth(t, res, mc, 2048);
    ASSERT_EQ(crit.size(), t.size());
    std::uint64_t critical = 0;
    for (bool b : crit)
        if (b)
            ++critical;
    // Some instructions are critical, but not all.
    EXPECT_GT(critical, t.size() / 100);
    EXPECT_LT(critical, t.size());
}

TEST(CritPath, TrainerSeesEveryInstruction)
{
    WorkloadConfig wcfg;
    wcfg.targetInstructions = 7000;
    wcfg.seed = 1;
    Trace t = buildAnnotatedTrace("gcc", wcfg);

    CriticalityPredictor crit;
    LocPredictor loc;
    OnlineCriticalityTrainer trainer(t, &crit, &loc, 1024);
    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    AgeScheduling age;
    TimingSim sim(MachineConfig::clustered(4), t, steer, age,
                  &trainer);
    (void)sim.run();

    EXPECT_EQ(trainer.trainedTotal(), t.size());
    EXPECT_GT(trainer.trainedCritical(), 0u);
    EXPECT_LT(trainer.trainedCritical(), t.size());
    EXPECT_EQ(trainer.chunksAnalyzed(),
              (t.size() + 1023) / 1024);
}

TEST(CritPath, CategoryNamesComplete)
{
    for (std::size_t c = 0; c < numCpCategories; ++c) {
        EXPECT_NE(cpCategoryName(static_cast<CpCategory>(c)),
                  nullptr);
    }
}

TEST(ConsumerAnalysis, SyntheticSelfRecurrence)
{
    // Fig. 12/13 shape: a loop-carried counter whose most critical
    // consumer is the next instance of itself (the last consumer in
    // fetch order), plus a throwaway first consumer.
    Program p;
    Label loop = p.newLabel();
    p.lui(r(1), 2000);
    p.bind(loop);
    p.addi(r(2), r(1), 5);          // dead-end consumer
    p.addi(r(1), r(1), -1);         // the recurrence (2-deep per
    p.addi(r(1), r(1), 0);          //  iteration: execute-critical)
    p.bne(r(1), loop);
    p.halt();
    p.finalize();
    Trace t = prepare(p);

    MachineConfig mc = MachineConfig::monolithic();
    SimResult res = run(t, mc);
    ConsumerAnalysis ca = analyzeConsumers(t, res, mc);

    EXPECT_GT(ca.valuesAnalyzed, 1000u);
    EXPECT_GT(ca.multiConsumerValues, 1000u);
    // The critical consumer (the decrement) is not first in fetch
    // order for essentially every value.
    EXPECT_GT(ca.mostCriticalNotFirstFraction, 0.9);
    // And it is statically unique.
    EXPECT_GT(ca.staticallyUniqueFraction, 0.9);
}

TEST(ConsumerAnalysis, RunsOnRealWorkload)
{
    WorkloadConfig wcfg;
    wcfg.targetInstructions = 8000;
    wcfg.seed = 2;
    Trace t = buildAnnotatedTrace("parser", wcfg);
    MachineConfig mc = MachineConfig::monolithic();
    SimResult res = run(t, mc);
    ConsumerAnalysis ca = analyzeConsumers(t, res, mc);
    EXPECT_GT(ca.valuesAnalyzed, 0u);
    EXPECT_GE(ca.staticallyUniqueFraction, 0.0);
    EXPECT_LE(ca.staticallyUniqueFraction, 1.0);
    EXPECT_GT(ca.tendency.total(), 0u);
}

} // anonymous namespace
} // namespace csim
