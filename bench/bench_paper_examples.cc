/**
 * @file
 * The paper's illustrative code examples, run quantitatively:
 *
 *  - Fig. 9: a single dependent-add chain. Dependence steering
 *    load-balances it across every cluster (one forwarding delay per
 *    window fill); stall-over-steer keeps it home.
 *  - Fig. 3: convergent dataflow. On 1-wide clusters the convergence
 *    fundamentally costs either forwarding or contention; wider
 *    clusters absorb it — shown with the idealized scheduler, where
 *    policy artifacts cannot interfere.
 *  - Fig. 12/13: the early-exit loop whose most critical consumer is
 *    last in fetch order; proactive load-balancing recovers it.
 *  - Available-ILP == machine-width stress (Sec. 7 / Fig. 15).
 *
 * The micro traces live outside the workload registry and keep one
 * fixed shape (30000 instructions, seed 1) at every --instructions /
 * --seeds setting, so this bench runs its few short simulations in a
 * plain loop. Its timing runs go through runPolicyCell, so `--check`
 * arms the live checker, the post-run audit and the CPI oracles.
 */

#include <cstdio>
#include <vector>

#include "harness/experiment.hh"
#include "harness/json_report.hh"
#include "workloads/micro.hh"

using namespace csim;

namespace {

Trace
annotate(Trace t)
{
    t.linkProducers();
    annotateBranches(t);
    annotateMemory(t);
    return t;
}

std::uint64_t
fwdCycles(const AggregateResult &res)
{
    return res.categoryCycles[static_cast<std::size_t>(
        CpCategory::FwdDelay)];
}

} // namespace

int
main(int argc, char **argv)
{
    BenchContext ctx("bench_paper_examples", argc, argv);
    ExperimentConfig cfg;
    ctx.apply(cfg);
    WorkloadConfig wcfg;
    wcfg.targetInstructions = 30000;
    wcfg.seed = 1;

    const Trace chain_t = annotate(buildMicroSerialChain(wcfg));
    const Trace conv_t = annotate(buildMicroConvergent(wcfg));
    const Trace exit_t = annotate(buildMicroEarlyExit(wcfg));
    const unsigned chainCounts[] = {2u, 4u, 8u, 16u};
    std::vector<Trace> wide_t;
    for (unsigned chains : chainCounts)
        wide_t.push_back(annotate(buildMicroWideIlp(wcfg, chains)));

    const auto run = [&](const Trace &t, const MachineConfig &mc,
                         PolicyKind kind) {
        return runPolicyCell(t, mc, kind, cfg);
    };
    const MachineConfig mono = MachineConfig::monolithic();
    const MachineConfig c8 = MachineConfig::clustered(8);

    const AggregateResult chain_dep = run(chain_t, c8, PolicyKind::Dep);
    const AggregateResult chain_stall =
        run(chain_t, c8, PolicyKind::FocusedLocStall);
    double conv_norm[3] = {};
    {
        const double mono_cpi = runIdealCell(conv_t, mono, cfg).cpi();
        int idx = 0;
        for (unsigned n : {2u, 4u, 8u})
            conv_norm[idx++] =
                runIdealCell(conv_t, MachineConfig::clustered(n), cfg)
                    .cpi() /
                mono_cpi;
    }
    const AggregateResult exit_mono =
        run(exit_t, mono, PolicyKind::FocusedLoc);
    const AggregateResult exit_dep = run(exit_t, c8, PolicyKind::Dep);
    const AggregateResult exit_full =
        run(exit_t, c8, PolicyKind::FocusedLocStallProactive);
    std::vector<AggregateResult> wide_mono, wide_clus;
    for (const Trace &t : wide_t) {
        wide_mono.push_back(run(t, mono, PolicyKind::FocusedLoc));
        wide_clus.push_back(
            run(t, c8, PolicyKind::FocusedLocStallProactive));
    }

    // ---------------------------------------------------------- //
    std::printf("=== Fig. 9: a single dependence chain on 8x1w "
                "===\n\n");
    std::printf("dependence steering:  CPI %.3f, critical fwd "
                "cycles %llu\n",
                chain_dep.cpi(),
                static_cast<unsigned long long>(fwdCycles(chain_dep)));
    std::printf("+ stall-over-steer:   CPI %.3f, critical fwd "
                "cycles %llu\n\n",
                chain_stall.cpi(),
                static_cast<unsigned long long>(
                    fwdCycles(chain_stall)));
    ctx.addScalar("fig9.depCpi", chain_dep.cpi());
    ctx.addScalar("fig9.stallCpi", chain_stall.cpi());
    ctx.addRunStats("serialChain/8x1w/dependence",
                    chain_dep.stats);
    ctx.addRunStats("serialChain/8x1w/focused+loc+stall",
                    chain_stall.stats);
    std::printf("Paper: load-balancing injects one forwarding "
                "delay per window fill; stalling removes them "
                "all (CPI -> the chain's 1.0 bound).\n\n");

    // ---------------------------------------------------------- //
    std::printf("=== Fig. 3: convergent dataflow across cluster "
                "widths (idealized scheduler) ===\n\n");
    std::printf("%10s  %10s\n", "config", "norm. CPI");
    {
        int idx = 0;
        for (unsigned n : {2u, 4u, 8u})
            std::printf("%10s  %10.3f\n",
                        MachineConfig::clustered(n).name().c_str(),
                        conv_norm[idx++]);
    }
    std::printf("\nPaper: with 1-wide clusters the convergence "
                "imposes a small fundamental penalty (forwarding "
                "or contention); 2- and 4-wide clusters absorb "
                "it.\n\n");

    // ---------------------------------------------------------- //
    std::printf("=== Fig. 12/13: early-exit loop on 8x1w ===\n\n");
    std::printf("monolithic:           CPI %.3f\n",
                exit_mono.cpi());
    std::printf("dependence steering:  CPI %.3f (%.1f%% "
                "penalty)\n",
                exit_dep.cpi(),
                100.0 * (exit_dep.cpi() / exit_mono.cpi() -
                         1.0));
    std::printf("full policy stack:    CPI %.3f (%.1f%% "
                "penalty)\n\n",
                exit_full.cpi(),
                100.0 * (exit_full.cpi() / exit_mono.cpi() -
                         1.0));
    ctx.addScalar("fig12.monoCpi", exit_mono.cpi());
    ctx.addScalar("fig12.depCpi", exit_dep.cpi());
    ctx.addScalar("fig12.fullCpi", exit_full.cpi());
    ctx.addRunStats("earlyExit/8x1w/full", exit_full.stats);
    std::printf("Paper: collocating only the first consumer "
                "spreads the recurrence (Fig. 13a); keeping the "
                "most critical consumer preserves the spine "
                "(Fig. 13b).\n\n");

    // ---------------------------------------------------------- //
    std::printf("=== Available ILP == machine width on 8x1w "
                "===\n\n");
    std::printf("%8s  %10s  %12s\n", "chains", "mono CPI",
                "8x1w CPI");
    for (std::size_t c = 0; c < 4; ++c) {
        std::printf("%8u  %10.3f  %12.3f\n", chainCounts[c],
                    wide_mono[c].cpi(), wide_clus[c].cpi());
        ctx.addScalar("wideIlp.chains" +
                          std::to_string(chainCounts[c]) + ".clusCpi",
                      wide_clus[c].cpi());
    }
    std::printf("\nPaper (Fig. 15 / Sec. 7): the clustered "
                "machine suffers when the ready-instruction "
                "distribution matters — here at intermediate "
                "chain counts, where steering must place one "
                "chain per cluster without global knowledge. "
                "With chains == clusters the assignment is "
                "trivial and with abundant chains every cluster "
                "stays busy; in between the gap opens, the "
                "distribution problem of Sec. 7.\n");
    return ctx.finish();
}
