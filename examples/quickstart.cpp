/**
 * @file
 * Quickstart: build a workload trace, run it on the monolithic machine
 * and on the three clustered partitionings of the paper, and print CPI
 * plus the critical-path breakdown.
 *
 * Usage: quickstart [workload] [instructions]
 * A malformed instruction count is fatal.
 */

#include <cstdio>
#include <string>

#include "common/stats.hh"
#include "core/timing_sim.hh"
#include "critpath/attribution.hh"
#include "harness/sweep.hh"
#include "policy/scheduling.hh"
#include "policy/steering.hh"
#include "workloads/registry.hh"

using namespace csim;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "vpr";
    const std::uint64_t count = argc > 2
        ? parseDecimal(argv[2], "instructions", 1, UINT64_MAX)
        : 50000;

    WorkloadConfig wcfg;
    wcfg.targetInstructions = count;
    wcfg.seed = 1;
    Trace trace = buildAnnotatedTrace(name, wcfg);
    TraceStats ts = trace.stats();

    std::printf("workload %s: %llu instructions, "
                "%.1f%% branches (%.1f%% mispredicted), "
                "%.1f%% loads (%.1f%% L1 misses)\n\n",
                name.c_str(),
                static_cast<unsigned long long>(ts.instructions),
                100.0 * ts.branches / ts.instructions,
                100.0 * ts.mispredictRate(),
                100.0 * ts.loads / ts.instructions,
                100.0 * ts.l1MissRate());

    TextTable table({"config", "cycles", "CPI", "rel. CPI",
                     "glob/inst", "fwd", "contention", "fetch",
                     "window", "br.mispr", "mem"});

    double base_cpi = 0.0;
    for (unsigned n : {1u, 2u, 4u, 8u}) {
        MachineConfig cfg = n == 1 ? MachineConfig::monolithic()
                                   : MachineConfig::clustered(n);
        UnifiedSteering steering(UnifiedSteeringOptions{}, nullptr,
                                 nullptr);
        AgeScheduling age;
        SimResult res = TimingSim(cfg, trace, steering, age).run();
        CpBreakdown bd = analyzeFullRun(trace, res, cfg);
        const double total = static_cast<double>(bd.total());

        if (n == 1)
            base_cpi = res.cpi();
        auto pct = [&](CpCategory c) {
            return formatPercent(bd[c] / total, 1);
        };
        table.addRow({cfg.name(),
                      std::to_string(res.cycles),
                      formatDouble(res.cpi(), 3),
                      formatDouble(res.cpi() / base_cpi, 3),
                      formatDouble(res.globalValuesPerInst(), 3),
                      pct(CpCategory::FwdDelay),
                      pct(CpCategory::Contention),
                      pct(CpCategory::Fetch),
                      pct(CpCategory::Window),
                      pct(CpCategory::BrMispredict),
                      pct(CpCategory::MemLatency)});
    }

    std::printf("%s\n", table.str().c_str());
    std::printf("(dependence-based steering, age scheduling; "
                "breakdown columns are shares of the critical path)\n");
    return 0;
}
