/**
 * @file
 * Critical-path explorer: run one workload on one machine/policy and
 * dump per-static-instruction statistics — dynamic count, ground-truth
 * likelihood of criticality, the LoC the predictor would report,
 * steering placement outcomes, and how often the instruction's
 * operands crossed clusters. Invaluable for understanding *why* a
 * policy behaves the way it does on a given dataflow shape.
 *
 * Usage: critpath_explorer [workload] [clusters] [policy] [instrs]
 *   clusters: 1 | 2 | 4 | 8
 *   policy: dep | focused | loc | stall | proactive
 * Anything else in those slots, or a malformed instruction count, is
 * an error.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "trace/trace_soa.hh"

using namespace csim;

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: critpath_explorer [workload] [1|2|4|8] "
                 "[dep|focused|loc|stall|proactive] [instructions]\n");
    std::exit(1);
}

PolicyKind
parsePolicy(const std::string &s)
{
    if (s == "dep")
        return PolicyKind::Dep;
    if (s == "focused")
        return PolicyKind::Focused;
    if (s == "loc")
        return PolicyKind::FocusedLoc;
    if (s == "stall")
        return PolicyKind::FocusedLocStall;
    if (s == "proactive")
        return PolicyKind::FocusedLocStallProactive;
    usage();
}

struct PcStats
{
    std::uint64_t execs = 0;
    std::uint64_t critical = 0;
    std::uint64_t collocated = 0;
    std::uint64_t loadBalanced = 0;
    std::uint64_t proactive = 0;
    std::uint64_t noProducer = 0;
    std::uint64_t crossOperands = 0;
    std::uint64_t contentionCycles = 0;
    Opcode op = Opcode::Nop;
};

} // namespace

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "vpr";
    const unsigned clusters = argc > 2
        ? static_cast<unsigned>(parseDecimal(argv[2], "clusters", 1, 8))
        : 8;
    // MachineConfig::clustered() splits the 8-wide machine evenly.
    if (8 % clusters != 0)
        usage();
    const PolicyKind kind =
        parsePolicy(argc > 3 ? argv[3] : "proactive");
    const std::uint64_t instrs = argc > 4
        ? parseDecimal(argv[4], "instructions", 1, UINT64_MAX)
        : 60000;

    WorkloadConfig wcfg;
    wcfg.targetInstructions = instrs;
    wcfg.seed = 1;
    Trace trace = buildAnnotatedTrace(workload, wcfg);

    const MachineConfig machine = clusters == 1
        ? MachineConfig::monolithic()
        : MachineConfig::clustered(clusters);
    ExperimentConfig cfg;
    PolicyRun run = runPolicy(trace, machine, kind, cfg);

    std::vector<bool> crit =
        criticalityGroundTruth(trace, run.sim, machine);

    std::map<Addr, PcStats> stats;
    const TraceSoA view = trace.soa();
    for (std::uint64_t i = 0; i < view.size(); ++i) {
        PcStats &s = stats[view.pc()[i]];
        s.op = view.op()[i];
        ++s.execs;
        if (crit[i])
            ++s.critical;
        const InstTiming &t = run.sim.timing[i];
        switch (t.reason) {
          case SteerReason::Collocated:
            ++s.collocated;
            break;
          case SteerReason::LoadBalanced:
            ++s.loadBalanced;
            break;
          case SteerReason::ProactiveLB:
            ++s.proactive;
            break;
          default:
            ++s.noProducer;
            break;
        }
        for (int b = 0; b < numSrcSlots; ++b)
            if ((t.crossMask >> b) & 1)
                ++s.crossOperands;
        s.contentionCycles += t.issue - t.ready;
    }

    std::printf("%s on %s with %s: CPI %.3f, global values/inst "
                "%.3f\n\n",
                workload.c_str(), machine.name().c_str(),
                policyName(kind), run.sim.cpi(),
                run.sim.globalValuesPerInst());

    std::vector<std::pair<Addr, PcStats>> rows(stats.begin(),
                                               stats.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  return a.second.critical > b.second.critical;
              });

    TextTable t({"pc", "op", "execs", "LoC", "colloc", "loadbal",
                 "proact", "cross", "cont.cyc"});
    int shown = 0;
    for (const auto &[pc, s] : rows) {
        if (++shown > 25)
            break;
        t.addRow({std::to_string(pc),
                  std::string(opName(s.op)),
                  std::to_string(s.execs),
                  formatPercent(static_cast<double>(s.critical) /
                                    static_cast<double>(s.execs), 0),
                  std::to_string(s.collocated),
                  std::to_string(s.loadBalanced),
                  std::to_string(s.proactive),
                  std::to_string(s.crossOperands),
                  std::to_string(s.contentionCycles)});
    }
    std::printf("%s\n(top 25 static instructions by ground-truth "
                "criticality)\n", t.str().c_str());
    return 0;
}
