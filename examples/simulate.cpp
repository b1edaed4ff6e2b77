/**
 * @file
 * General-purpose CLI driver: run any (workload, machine, policy)
 * combination and print CPI, the critical-path breakdown, bypass
 * traffic and steering statistics. The knobs cover everything the
 * paper varies: cluster count and width, forwarding latency,
 * instruction count, seeds, and the policy stack.
 *
 * Usage:
 *   simulate [options]
 *     --workload NAME    one of the 12 proxies, or 'all'   [vpr]
 *     --clusters N       1..16                             [4]
 *     --width W          issue width per cluster, 1..64    [8/N]
 *     --fwd L            inter-cluster latency, 0..64      [2]
 *     --policy P         modn|loadbal|dep|focused|loc|stall|
 *                        proactive|block|adaptive          [focused]
 *     --instructions N   dynamic instructions per seed     [60000]
 *     --seeds a,b,c      distinct comma-separated seeds    [1,2,3]
 *     --save PATH        also write the (last) trace to PATH as a
 *                        columnar .trc2 store
 *
 * A malformed number, a repeated seed, or more than 8 clusters
 * without --width is fatal.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "policy/extra_steering.hh"
#include "policy/scheduling.hh"
#include "trace/trace_store.hh"

using namespace csim;

namespace {

struct Options
{
    std::string workload = "vpr";
    unsigned clusters = 4;
    unsigned width = 0;           // 0: derive as 8/clusters
    unsigned fwd = 2;
    std::string policy = "focused";
    std::uint64_t instructions = 60000;
    std::vector<std::uint64_t> seeds = {1, 2, 3};
    std::string savePath;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: simulate [--workload W|all] [--clusters N] "
                 "[--width W] [--fwd L]\n"
                 "       [--policy modn|loadbal|dep|focused|loc|stall|"
                 "proactive|block|adaptive]\n"
                 "       [--instructions N] [--seeds a,b,c] "
                 "[--save PATH]\n");
    std::exit(1);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage();
            return argv[i];
        };
        auto number = [&](std::uint64_t lo, std::uint64_t hi) {
            return static_cast<unsigned>(
                parseDecimal(next(), a.c_str(), lo, hi));
        };
        if (a == "--workload") {
            o.workload = next();
        } else if (a == "--clusters") {
            o.clusters = number(1, maxClusters);
        } else if (a == "--width") {
            o.width = number(1, 64);
        } else if (a == "--fwd") {
            o.fwd = number(0, 64);
        } else if (a == "--policy") {
            o.policy = next();
        } else if (a == "--instructions") {
            o.instructions = parseDecimal(next(), "--instructions", 1,
                                          UINT64_MAX);
        } else if (a == "--seeds") {
            o.seeds = parseSeedList(next());
        } else if (a == "--save") {
            o.savePath = next();
        } else {
            usage();
        }
    }
    // 8/N is the derived width; past 8 clusters it rounds to 0.
    if (o.width == 0 && o.clusters > 8)
        CSIM_FATAL_F("bad --clusters '%u': more than 8 clusters need "
                     "--width", o.clusters);
    return o;
}

/** Run one workload under the requested setup; returns normalized
 *  CPI data for the report. */
void
runOne(const Options &o, const std::string &wl,
       const MachineConfig &mc, TextTable &table)
{
    ExperimentConfig cfg;
    cfg.instructions = o.instructions;
    cfg.seeds = o.seeds;

    AggregateResult agg;
    // Block steering has no PolicyKind; it runs directly (no
    // predictors needed).
    if (o.policy == "block") {
        for (std::uint64_t seed : o.seeds) {
            WorkloadConfig wcfg;
            wcfg.targetInstructions = o.instructions;
            wcfg.seed = seed;
            Trace trace = buildAnnotatedTrace(wl, wcfg);
            AgeScheduling age;
            BlockSteering steer;
            const SimResult res = TimingSim(mc, trace, steer, age).run();
            CpBreakdown bd = analyzeFullRun(trace, res, mc);
            agg.instructions += res.instructions;
            agg.cycles += res.cycles;
            agg.globalValues += res.globalValues;
            for (std::size_t c = 0; c < numCpCategories; ++c)
                agg.categoryCycles[c] += bd.cycles[c];
            if (!o.savePath.empty())
                saveTraceStore(trace, o.savePath);
        }
    } else {
        PolicyKind kind = PolicyKind::Focused;
        if (o.policy == "modn")
            kind = PolicyKind::ModN;
        else if (o.policy == "loadbal")
            kind = PolicyKind::LoadBal;
        else if (o.policy == "dep")
            kind = PolicyKind::Dep;
        else if (o.policy == "focused")
            kind = PolicyKind::Focused;
        else if (o.policy == "loc")
            kind = PolicyKind::FocusedLoc;
        else if (o.policy == "stall")
            kind = PolicyKind::FocusedLocStall;
        else if (o.policy == "proactive")
            kind = PolicyKind::FocusedLocStallProactive;
        else if (o.policy == "adaptive")
            kind = PolicyKind::ActiveClusters;
        else
            usage();
        agg = runAggregate(wl, mc, kind, cfg);
        if (!o.savePath.empty()) {
            WorkloadConfig wcfg;
            wcfg.targetInstructions = o.instructions;
            wcfg.seed = o.seeds.back();
            Trace trace = buildAnnotatedTrace(wl, wcfg);
            saveTraceStore(trace, o.savePath);
        }
    }

    auto cat = [&](CpCategory c) {
        return formatDouble(agg.categoryCpi(c), 3);
    };
    table.addRow({wl, formatDouble(agg.cpi(), 3),
                  formatDouble(agg.globalValuesPerInst(), 3),
                  cat(CpCategory::FwdDelay),
                  cat(CpCategory::Contention),
                  cat(CpCategory::Fetch),
                  cat(CpCategory::MemLatency),
                  cat(CpCategory::BrMispredict)});
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);

    MachineConfig mc = o.clusters == 1 && (o.width == 0 || o.width == 8)
        ? MachineConfig::monolithic()
        : (o.width == 0 && 8 % o.clusters == 0
               ? MachineConfig::clustered(o.clusters)
               : MachineConfig::generic(o.clusters,
                                        o.width ? o.width
                                                : 8 / o.clusters));
    mc.fwdLatency = o.fwd;

    std::printf("machine %s, fwd latency %u, policy %s, %llu "
                "instructions x %zu seeds\n\n",
                mc.name().c_str(), mc.fwdLatency, o.policy.c_str(),
                static_cast<unsigned long long>(o.instructions),
                o.seeds.size());

    TextTable table({"workload", "CPI", "glob/inst", "fwd",
                     "contention", "fetch", "mem", "br.mispr"});
    if (o.workload == "all") {
        for (const std::string &wl : workloadNames())
            runOne(o, wl, mc, table);
    } else {
        runOne(o, o.workload, mc, table);
    }
    std::printf("%s\n(breakdown columns in CPI units)\n",
                table.str().c_str());
    return 0;
}
