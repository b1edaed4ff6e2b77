/**
 * @file
 * Paper-shape regression tests: small-scale versions of the headline
 * results that must keep holding as the code evolves. These are the
 * repository's contract with the paper:
 *  - idealized clustering penalties are small (Fig. 2),
 *  - real-policy penalties grow with cluster count (Fig. 4),
 *  - LoC scheduling cuts critical contention (Sec. 4 / Fig. 14 'l'),
 *  - stall-over-steer rescues execute-critical programs (Sec. 5),
 *  - the LoC distribution has a dominant never-critical spike
 *    (Fig. 8),
 *  - achieved ILP saturates below the width near the machine width
 *    (Fig. 15).
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "harness/experiment.hh"

namespace csim {
namespace {

ExperimentConfig
quickConfig()
{
    ExperimentConfig cfg;
    cfg.instructions = 30000;
    cfg.seeds = {1};
    return cfg;
}

TEST(PaperShapes, IdealClusteringPenaltyIsSmall)
{
    ExperimentConfig cfg = quickConfig();
    double worst = 0.0;
    for (const char *wl : {"gcc", "gzip", "perl", "vortex"}) {
        AggregateResult base = runIdealAggregate(
            wl, MachineConfig::monolithic(), cfg);
        AggregateResult quad = runIdealAggregate(
            wl, MachineConfig::clustered(4), cfg);
        worst = std::max(worst, quad.cpi() / base.cpi());
    }
    // Fig. 2: idealized 4x2w within a few percent of monolithic.
    EXPECT_LT(worst, 1.05);
}

TEST(PaperShapes, FocusedPenaltyGrowsWithClusterCount)
{
    ExperimentConfig cfg = quickConfig();
    double avg[3] = {0.0, 0.0, 0.0};
    const char *wls[] = {"gzip", "vpr", "crafty", "mcf"};
    for (const char *wl : wls) {
        AggregateResult base = runAggregate(
            wl, MachineConfig::monolithic(), PolicyKind::Focused,
            cfg);
        int k = 0;
        for (unsigned n : {2u, 4u, 8u}) {
            AggregateResult clus = runAggregate(
                wl, MachineConfig::clustered(n), PolicyKind::Focused,
                cfg);
            avg[k++] += clus.cpi() / base.cpi();
        }
    }
    EXPECT_LT(avg[0], avg[1]);   // 2 clusters better than 4
    EXPECT_LT(avg[1], avg[2]);   // 4 better than 8
    EXPECT_GT(avg[2] / 4.0, 1.03);  // and 8x1w penalties are real
}

TEST(PaperShapes, IdealBeatsFocusedByALot)
{
    // The central claim: the gap between Fig. 2 and Fig. 4.
    ExperimentConfig cfg = quickConfig();
    double ideal_sum = 0.0, focused_sum = 0.0;
    for (const char *wl : {"gzip", "parser", "bzip2"}) {
        AggregateResult ib = runIdealAggregate(
            wl, MachineConfig::monolithic(), cfg);
        AggregateResult ic = runIdealAggregate(
            wl, MachineConfig::clustered(8), cfg);
        ideal_sum += ic.cpi() / ib.cpi();
        AggregateResult fb = runAggregate(
            wl, MachineConfig::monolithic(), PolicyKind::Focused,
            cfg);
        AggregateResult fc = runAggregate(
            wl, MachineConfig::clustered(8), PolicyKind::Focused,
            cfg);
        focused_sum += fc.cpi() / fb.cpi();
    }
    EXPECT_LT(ideal_sum / 3.0 - 1.0,
              (focused_sum / 3.0 - 1.0) / 2.5);
}

TEST(PaperShapes, LocSchedulingCutsCriticalContention)
{
    // Sec. 4 / Fig. 14: LoC-based scheduling halves contention-stall
    // time relative to binary criticality. Check the direction with a
    // generous margin on the aggregate.
    ExperimentConfig cfg = quickConfig();
    std::uint64_t binary_cont = 0, loc_cont = 0;
    for (const char *wl : {"gzip", "mcf", "parser", "gcc"}) {
        AggregateResult bin = runAggregate(
            wl, MachineConfig::clustered(4), PolicyKind::Focused,
            cfg);
        AggregateResult loc = runAggregate(
            wl, MachineConfig::clustered(4), PolicyKind::FocusedLoc,
            cfg);
        binary_cont += bin.categoryCycles[static_cast<std::size_t>(
            CpCategory::Contention)];
        loc_cont += loc.categoryCycles[static_cast<std::size_t>(
            CpCategory::Contention)];
    }
    EXPECT_LT(loc_cont, binary_cont);
}

TEST(PaperShapes, StallOverSteerRescuesGzip)
{
    // Sec. 7: stall-over-steer buys ~20% on gzip's 8-cluster machine.
    ExperimentConfig cfg = quickConfig();
    AggregateResult without = runAggregate(
        "gzip", MachineConfig::clustered(8), PolicyKind::FocusedLoc,
        cfg);
    AggregateResult with_stall = runAggregate(
        "gzip", MachineConfig::clustered(8),
        PolicyKind::FocusedLocStall, cfg);
    EXPECT_LT(with_stall.cpi(), without.cpi());
}

TEST(PaperShapes, PoliciesReduceEightClusterPenalty)
{
    // Fig. 14 headline: the full stack cuts the focused penalty.
    ExperimentConfig cfg = quickConfig();
    double focused = 0.0, full = 0.0;
    const char *wls[] = {"gzip", "mcf", "parser", "gap"};
    for (const char *wl : wls) {
        AggregateResult base = runAggregate(
            wl, MachineConfig::monolithic(), PolicyKind::FocusedLoc,
            cfg);
        focused += runAggregate(wl, MachineConfig::clustered(8),
                                PolicyKind::Focused, cfg).cpi() /
            base.cpi();
        full += runAggregate(wl, MachineConfig::clustered(8),
                             PolicyKind::FocusedLocStallProactive,
                             cfg).cpi() /
            base.cpi();
    }
    EXPECT_LT(full, focused);
    // At least a third of the penalty disappears on this sample.
    EXPECT_LT(full - 4.0, (focused - 4.0) * 0.67);
}

TEST(PaperShapes, LocDistributionHasNeverCriticalSpike)
{
    // Fig. 8: the 0% bucket dominates.
    ExperimentConfig cfg = quickConfig();
    WorkloadConfig wcfg;
    wcfg.targetInstructions = cfg.instructions;
    wcfg.seed = 1;

    std::uint64_t never = 0, total = 0;
    for (const char *wl : {"vpr", "gcc", "vortex"}) {
        Trace trace = buildAnnotatedTrace(wl, wcfg);
        PolicyRun run = runPolicy(trace, MachineConfig::monolithic(),
                                  PolicyKind::Focused, cfg);
        std::vector<bool> crit = criticalityGroundTruth(
            trace, run.sim, MachineConfig::monolithic());
        std::unordered_map<Addr,
                           std::pair<std::uint64_t,
                                     std::uint64_t>> per_pc;
        for (std::uint64_t i = 0; i < trace.size(); ++i) {
            auto &e = per_pc[trace[i].pc];
            ++e.second;
            if (crit[i])
                ++e.first;
        }
        for (const auto &[pc, e] : per_pc) {
            (void)pc;
            total += e.second;
            if (e.first * 20 < e.second)   // LoC below 5%
                never += e.second;
        }
    }
    EXPECT_GT(static_cast<double>(never) /
                  static_cast<double>(total),
              0.35);
}

TEST(PaperShapes, AchievedIlpSaturatesNearMachineWidth)
{
    // Fig. 15 on the 8x1w machine.
    const ExperimentConfig cfg = quickConfig();

    std::vector<double> issued(ilpMaxAvailable + 1, 0.0),
        cycles(ilpMaxAvailable + 1, 0.0);
    for (const char *wl : {"vortex", "gcc", "eon"}) {
        WorkloadConfig wcfg;
        wcfg.targetInstructions = cfg.instructions;
        wcfg.seed = 1;
        Trace trace = buildAnnotatedTrace(wl, wcfg);
        PolicyRun run = runPolicy(
            trace, MachineConfig::clustered(8),
            PolicyKind::FocusedLocStallProactive, cfg);
        for (std::size_t a = 0; a < run.sim.ilpCycles.size(); ++a) {
            issued[a] += static_cast<double>(run.sim.ilpIssuedSum[a]);
            cycles[a] += static_cast<double>(run.sim.ilpCycles[a]);
        }
    }

    auto achieved = [&](std::size_t a) {
        return cycles[a] > 0 ? issued[a] / cycles[a] : 0.0;
    };
    // Tracks available at low ILP...
    ASSERT_GT(cycles[1], 0.0);
    EXPECT_GT(achieved(1), 0.9);
    // ...but saturates below the full width near the machine width.
    if (cycles[8] > 100.0) {
        EXPECT_LT(achieved(8), 7.0);
    }
}

} // anonymous namespace
} // namespace csim
