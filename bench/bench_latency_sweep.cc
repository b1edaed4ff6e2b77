/**
 * @file
 * Section 2.2, footnote 3: stability of the idealized result across
 * inter-cluster forwarding latencies of 1-4 cycles. The paper: with a
 * 4-cycle penalty the 2x4w/4x2w averages stay under 2% and 8x1w
 * degrades to a little over 4%. Also sweeps the full policy stack for
 * comparison.
 */

#include <array>
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
    BenchContext ctx("bench_latency_sweep", argc, argv);

    SweepSpec spec;
    ctx.apply(spec.cfg);
    const std::vector<std::string> workloads = workloadNames();
    // baseAt[mode][w]: the 1x8w baseline, declared once per mode: one
    // cluster never forwards, so its run does not depend on fwdLatency
    // (test_sweep pins this). cellAt[latency-1][mode][w]: the 2x4w,
    // 4x2w and 8x1w cells. Cell labels repeat across latencies (the
    // machine name does not encode fwdLatency), so the per-run stats
    // are not exported; the scalars carry the figure.
    std::vector<std::size_t> baseAt[2];
    std::vector<std::array<std::size_t, 3>> cellAt[4][2];
    for (const std::string &wl : workloads) {
        baseAt[0].push_back(spec.addIdeal(wl, MachineConfig::monolithic()));
        baseAt[1].push_back(spec.addTiming(
            wl, MachineConfig::monolithic(), PolicyKind::FocusedLoc));
    }
    for (unsigned lat : {1u, 2u, 3u, 4u}) {
        for (int mode = 0; mode < 2; ++mode) {
            for (const std::string &wl : workloads) {
                std::array<std::size_t, 3> cells;
                int idx = 0;
                for (unsigned n : {2u, 4u, 8u}) {
                    MachineConfig mc = MachineConfig::clustered(n);
                    mc.fwdLatency = lat;
                    cells[idx++] = mode == 0
                        ? spec.addIdeal(wl, mc)
                        : spec.addTiming(
                              wl, mc,
                              n == 8
                                  ? PolicyKind::
                                        FocusedLocStallProactive
                                  : PolicyKind::FocusedLocStall);
                }
                cellAt[lat - 1][mode].push_back(cells);
            }
        }
    }

    SweepOutcome outcome = ctx.runner().run(spec);

    std::printf("=== Footnote 3: forwarding-latency sweep (average "
                "CPI normalized to 1x8w) ===\n\n");
    TextTable t({"fwd latency", "mode", "2x4w", "4x2w", "8x1w"});

    for (unsigned lat : {1u, 2u, 3u, 4u}) {
        for (int mode = 0; mode < 2; ++mode) {
            double avg[3] = {0.0, 0.0, 0.0};
            for (std::size_t w = 0; w < workloads.size(); ++w) {
                const double base = outcome.at(baseAt[mode][w]).cpi();
                for (int idx = 0; idx < 3; ++idx)
                    avg[idx] +=
                        outcome.at(cellAt[lat - 1][mode][w][idx]).cpi() /
                        base;
            }
            const double k = static_cast<double>(workloads.size());
            t.addRow({std::to_string(lat),
                      mode == 0 ? "ideal" : "policies",
                      formatDouble(avg[0] / k, 3),
                      formatDouble(avg[1] / k, 3),
                      formatDouble(avg[2] / k, 3)});
            const std::string pfx = "normCpi.lat" +
                std::to_string(lat) +
                (mode == 0 ? ".ideal." : ".policies.");
            ctx.addScalar(pfx + "2x4w", avg[0] / k);
            ctx.addScalar(pfx + "4x2w", avg[1] / k);
            ctx.addScalar(pfx + "8x1w", avg[2] / k);
        }
    }

    std::printf("%s\n", t.str().c_str());
    std::printf("Paper: the idealized averages stay below ~2%% (8x1w "
                "~4%%) even at a 4-cycle forwarding latency; trends, "
                "not absolutes, are the claim.\n");
    return ctx.finish();
}
