/**
 * @file
 * Section 4's list-scheduler study: how much of the oracle's quality
 * survives when exact dataflow-height priorities are replaced by (a)
 * the LoC spectrum (average past criticality) and (b) binary
 * criticality. The paper: LoC costs almost nothing (1% -> 1.5%, 2% ->
 * 2.7% on 4/8 clusters), binary criticality costs a lot (5% and 9.8%).
 *
 * The oracle variant's cells are Figure 2 (idealized list
 * scheduling), whose per-benchmark grid prints before the Sec. 4
 * table: each clustered configuration list-schedules the 1x8w
 * machine's retired trace with a global view, oracle dataflow-height
 * priorities and locality-aware placement, normalized to the same
 * scheduler on the monolithic configuration. The paper's claim: all
 * configurations stay within ~2% on average (bzip2/crafty/vpr are the
 * convergent-dataflow outliers).
 */

#include <cstdio>
#include <vector>

#include "harness/json_report.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"

using namespace csim;

int
main(int argc, char **argv)
{
    BenchContext ctx("bench_sec4_loc_ideal", argc, argv);

    const struct
    {
        ListSchedOptions::Priority prio;
        const char *name;
    } variants[] = {
        {ListSchedOptions::Priority::DataflowHeight, "oracle"},
        {ListSchedOptions::Priority::Loc, "LoC"},
        {ListSchedOptions::Priority::BinaryCritical, "binary"},
    };

    // One oracle baseline per workload plus a (config, variant) cell
    // per workload; the old bench re-ran the identical baseline for
    // every variant, which the cache-backed sweep makes unnecessary.
    SweepSpec spec;
    ctx.apply(spec.cfg);
    const std::vector<std::string> workloads = workloadNames();
    std::vector<std::size_t> baseCells;
    for (const std::string &wl : workloads)
        baseCells.push_back(
            spec.addIdeal(wl, MachineConfig::monolithic(),
                          ListSchedOptions::Priority::DataflowHeight));
    // cellAt[n-index][variant][workload]
    std::vector<std::vector<std::vector<std::size_t>>> cellAt;
    for (unsigned n : {2u, 4u, 8u}) {
        std::vector<std::vector<std::size_t>> per_variant;
        for (const auto &v : variants) {
            std::vector<std::size_t> per_wl;
            for (const std::string &wl : workloads)
                per_wl.push_back(spec.addIdeal(
                    wl, MachineConfig::clustered(n), v.prio));
            per_variant.push_back(std::move(per_wl));
        }
        cellAt.push_back(std::move(per_variant));
    }

    SweepOutcome outcome = ctx.runner().run(spec);
    ctx.addSweepRuns(outcome);
    const unsigned ns[] = {2u, 4u, 8u};

    // ---- Figure 2: the oracle variant, per benchmark ----
    FigureGrid grid("=== Figure 2: idealized list scheduling "
                    "(CPI normalized to 1x8w list schedule) ===",
                    {"2x4w", "4x2w", "8x1w"});
    for (std::size_t w = 0; w < workloads.size(); ++w)
        for (std::size_t ni = 0; ni < 3; ++ni)
            grid.set(workloads[w], MachineConfig::clustered(ns[ni]).name(),
                     outcome.at(cellAt[ni][0][w]).cpi() /
                         outcome.at(baseCells[w]).cpi());
    std::printf("%s\n", grid.str().c_str());
    std::printf("Paper: averages ~1.01/1.01/1.02; worst cases in "
                "bzip2, crafty, vpr (convergent dataflow), 8x1w never "
                "worse than ~4%%.\n");
    ctx.addGrid(grid);

    // ---- Sec. 4: average over benchmarks, per variant ----
    std::printf("=== Sec. 4: idealized list scheduling with degraded "
                "priority knowledge ===\n");
    std::printf("(average CPI normalized to the oracle list schedule "
                "on 1x8w)\n\n");

    std::printf("%8s  %8s  %8s  %8s\n", "config", "oracle", "LoC",
                "binary");
    for (std::size_t ni = 0; ni < 3; ++ni) {
        const unsigned n = ns[ni];
        std::printf("%8s", MachineConfig::clustered(n).name().c_str());
        for (std::size_t vi = 0; vi < 3; ++vi) {
            std::vector<double> ratios;
            for (std::size_t w = 0; w < workloads.size(); ++w)
                ratios.push_back(outcome.at(cellAt[ni][vi][w]).cpi() /
                                 outcome.at(baseCells[w]).cpi());
            std::printf("  %8.3f", mean(ratios));
            ctx.addScalar("normCpi." +
                              MachineConfig::clustered(n).name() + "." +
                              variants[vi].name,
                          mean(ratios));
        }
        std::printf("\n");
    }

    std::printf("\nPaper: LoC priorities lose only ~0.5-0.7%% vs the "
                "oracle; binary criticality loses 5%% (4x2w) and "
                "9.8%% (8x1w) — the case for a criticality "
                "*spectrum*.\n");
    return ctx.finish();
}
