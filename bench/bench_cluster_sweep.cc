/**
 * @file
 * Cluster-count sweep with 1-wide clusters: 2, 4, 8 and 16 clusters.
 *
 * Reproduces the observation (Balasubramonian et al., discussed in the
 * paper's Sec. 5) that low-ILP programs do better on FEWER 1-wide
 * clusters — more clusters lower the odds that load-balance steering
 * lands critical dependences together — and shows how stall-over-steer
 * removes that sensitivity. The third row is their remedy, adaptive
 * active-cluster steering with age scheduling.
 */

#include <cstdio>
#include <vector>

#include "common/stats.hh"
#include "harness/json_report.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"

using namespace csim;

int
main(int argc, char **argv)
{
    BenchContext ctx("bench_cluster_sweep", argc, argv);

    // Focus on the low-ILP programs the observation concerns.
    const std::vector<std::string> lows = {"gzip", "mcf", "parser",
                                           "gap"};
    const unsigned ns[] = {2u, 4u, 8u, 16u};

    const PolicyKind modes[] = {PolicyKind::Focused,
                                PolicyKind::FocusedLocStall,
                                PolicyKind::ActiveClusters};
    SweepSpec spec;
    ctx.apply(spec.cfg);
    std::vector<std::size_t> baseCells;
    // policyCells[wl][mode][n-index]
    std::vector<std::vector<std::vector<std::size_t>>> policyCells;
    for (const std::string &wl : lows) {
        baseCells.push_back(spec.addTiming(
            wl, MachineConfig::monolithic(), PolicyKind::FocusedLoc));
        std::vector<std::vector<std::size_t>> cells(3);
        for (int mode = 0; mode < 3; ++mode)
            for (unsigned n : ns)
                cells[mode].push_back(spec.addTiming(
                    wl, MachineConfig::generic(n, 1), modes[mode]));
        policyCells.push_back(std::move(cells));
    }

    SweepOutcome outcome = ctx.runner().run(spec);
    ctx.addSweepRuns(outcome);

    std::printf("=== Cluster sweep, 1-wide clusters (CPI normalized "
                "to 1x8w, focused policy baseline) ===\n\n");
    TextTable t({"benchmark", "policy", "2x1w", "4x1w", "8x1w",
                 "16x1w"});

    for (std::size_t w = 0; w < lows.size(); ++w) {
        const std::string &wl = lows[w];
        const double base_cpi = outcome.at(baseCells[w]).cpi();
        for (int mode = 0; mode < 3; ++mode) {
            const char *label = mode == 0 ? "focused"
                : mode == 1 ? "+loc+stall" : "adaptive[2]";
            std::vector<std::string> row{wl, label};
            for (std::size_t ni = 0; ni < 4; ++ni) {
                const double cpi =
                    outcome.at(policyCells[w][mode][ni]).cpi();
                row.push_back(formatDouble(cpi / base_cpi, 3));
                ctx.addScalar("normCpi." + wl + "." + label + "." +
                                  std::to_string(ns[ni]) + "x1w",
                              cpi / base_cpi);
            }
            t.addRow(std::move(row));
        }
    }

    std::printf("%s\n", t.str().c_str());
    std::printf("Note: aggregate width shrinks with fewer 1-wide "
                "clusters, so 2x1w/4x1w trade peak throughput for "
                "locality; the Balasubramonian effect is the gap "
                "between 4x1w and 16x1w on serial code under plain "
                "focused steering.\n");
    return ctx.finish();
}
