/**
 * @file
 * Steering-policy shoot-out: run one workload across every cluster
 * configuration and every policy stack, from naive round-robin to the
 * paper's full focused+LoC+stall+proactive pipeline, and print the
 * normalized CPI matrix plus bypass traffic. A compact way to see the
 * paper's whole story on one screen.
 *
 * Usage: steering_comparison [workload] [instructions]
 * A malformed instruction count is fatal.
 */

#include <cstdio>
#include <string>

#include "common/stats.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"

using namespace csim;

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "gzip";
    const std::uint64_t count = argc > 2
        ? parseDecimal(argv[2], "instructions", 1, UINT64_MAX)
        : 60000;

    ExperimentConfig cfg;
    cfg.instructions = count;
    cfg.seeds = {1};

    const PolicyKind policies[] = {
        PolicyKind::ModN,
        PolicyKind::LoadBal,
        PolicyKind::Dep,
        PolicyKind::Focused,
        PolicyKind::FocusedLoc,
        PolicyKind::FocusedLocStall,
        PolicyKind::FocusedLocStallProactive,
    };

    // Baseline: the monolithic machine under dependence steering.
    AggregateResult mono = runAggregate(
        workload, MachineConfig::monolithic(), PolicyKind::Dep, cfg);
    const double base = mono.cpi();

    std::printf("%s, %llu instructions; CPI normalized to 1x8w "
                "(CPI %.3f)\n\n",
                workload.c_str(),
                static_cast<unsigned long long>(count), base);

    TextTable t({"policy", "2x4w", "4x2w", "8x1w", "glob/inst(8x1w)"});
    for (PolicyKind kind : policies) {
        std::vector<std::string> row{policyName(kind)};
        double traffic8 = 0.0;
        for (unsigned n : {2u, 4u, 8u}) {
            AggregateResult res = runAggregate(
                workload, MachineConfig::clustered(n), kind, cfg);
            row.push_back(formatDouble(res.cpi() / base, 3));
            if (n == 8)
                traffic8 = res.globalValuesPerInst();
        }
        row.push_back(formatDouble(traffic8, 3));
        t.addRow(std::move(row));
    }

    // The idealized bound for context.
    std::vector<std::string> ideal_row{"(ideal list sched)"};
    AggregateResult ideal_mono = runIdealAggregate(
        workload, MachineConfig::monolithic(), cfg);
    double traffic8 = 0.0;
    for (unsigned n : {2u, 4u, 8u}) {
        AggregateResult res = runIdealAggregate(
            workload, MachineConfig::clustered(n), cfg);
        ideal_row.push_back(
            formatDouble(res.cpi() / ideal_mono.cpi(), 3));
        if (n == 8)
            traffic8 = res.globalValuesPerInst();
    }
    ideal_row.push_back(formatDouble(traffic8, 3));
    t.addRow(std::move(ideal_row));

    std::printf("%s\n", t.str().c_str());
    return 0;
}
