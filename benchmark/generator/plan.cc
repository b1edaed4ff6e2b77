#include "plan.hh"

#include <algorithm>

#include "common/fnv.hh"
#include "common/logging.hh"
#include "obs/run_ledger.hh"
#include "workloads/registry.hh"

namespace bench {

using namespace csim;

namespace {

/** Smoke mode: two proxies that stress different layers (gcc is
 *  dense dataflow, mcf is memory-bound pointer chasing). */
const std::vector<std::string> smokeProxies = {"gcc", "mcf"};

const std::vector<std::string> &
proxies(bool smoke)
{
    return smoke ? smokeProxies : csim::workloadNames();
}

std::vector<std::uint64_t>
seedsFrom(std::uint64_t seed, bool smoke)
{
    if (smoke)
        return {seed};
    return {seed, seed + 1, seed + 2};
}

void
collectTraces(Plan &plan)
{
    for (std::size_t c = 0; c < plan.spec.cells.size(); ++c)
        for (std::uint64_t seed : plan.spec.cellConfig(c).seeds) {
            std::pair<std::string, std::uint64_t> key{
                plan.spec.cells[c].workload, seed};
            if (std::find(plan.traces.begin(), plan.traces.end(), key) ==
                plan.traces.end())
                plan.traces.push_back(key);
        }
}

/** The figure-regeneration grid: Fig. 14 timing cells plus Fig. 2
 *  ideal cells on every proxy. */
void
paperGrid(Plan &plan)
{
    plan.spec.cfg.instructions = plan.smoke ? 4000 : 20000;
    plan.spec.cfg.seeds = seedsFrom(plan.seed, plan.smoke);
    for (const std::string &wl : proxies(plan.smoke)) {
        plan.spec.addTiming(wl, MachineConfig::monolithic(),
                            PolicyKind::FocusedLoc);
        for (unsigned n : {2u, 4u, 8u})
            for (PolicyKind kind :
                 {PolicyKind::Focused, PolicyKind::FocusedLoc,
                  PolicyKind::FocusedLocStall})
                plan.spec.addTiming(wl, MachineConfig::clustered(n), kind);
        plan.spec.addTiming(wl, MachineConfig::clustered(8),
                            PolicyKind::FocusedLocStallProactive);
        for (unsigned n : {2u, 4u, 8u})
            plan.spec.addIdeal(wl, MachineConfig::clustered(n));
    }
}

/** The same core with the live checker and interval profiler on. */
void
observed(Plan &plan)
{
    plan.spec.cfg.instructions = plan.smoke ? 4000 : 20000;
    plan.spec.cfg.seeds = seedsFrom(plan.seed, plan.smoke);
    plan.spec.cfg.verify.checker = true;
    plan.spec.cfg.verify.oracle = false;
    plan.spec.cfg.profile.enabled = true;
    plan.spec.crossTiming(proxies(plan.smoke),
                          {MachineConfig::clustered(4),
                           MachineConfig::clustered(8)},
                          {PolicyKind::FocusedLocStall});
}

/** Full-trace simulation of two large traces through the cache. */
void
longTrace(Plan &plan)
{
    plan.spec.cfg.instructions = plan.smoke ? 4000 : 2'000'000;
    plan.spec.cfg.seeds = {plan.seed};
    plan.spec.crossTiming({"gcc", "mcf"}, {MachineConfig::clustered(4)},
                          {PolicyKind::FocusedLocStall});
}

/** A stream-built store, mmap-ed back and region-sampled. */
void
storeStream(Plan &plan)
{
    StorePlan &s = plan.store;
    s.proxy = "gcc";
    s.instructions = plan.smoke ? 1'000'000 : 10'000'000;
    s.machine = MachineConfig::clustered(4);
    s.policy = PolicyKind::FocusedLocStall;
    s.cfg.instructions = s.instructions;
    s.cfg.seeds = {plan.seed};
    s.cfg.regions = plan.smoke ? 4 : 16;
    s.cfg.regionWarmup = plan.smoke ? 1000 : 10000;
    s.cfg.regionLen = plan.smoke ? 4000 : 50000;
    s.label = s.proxy + "/" + s.machine.name() + "/" +
        policyName(s.policy) + "/regions" + std::to_string(s.cfg.regions);
    plan.isStore = true;
}

} // anonymous namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_grid", "observed", "store_stream", "long_trace"};
    return names;
}

bool
isWorkload(const std::string &name)
{
    const std::vector<std::string> &names = workloadNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

Plan
makePlan(const std::string &name, std::uint64_t seed, bool smoke)
{
    Plan plan;
    plan.name = name;
    plan.seed = seed;
    plan.smoke = smoke;
    if (name == "paper_grid")
        paperGrid(plan);
    else if (name == "observed")
        observed(plan);
    else if (name == "long_trace")
        longTrace(plan);
    else if (name == "store_stream")
        storeStream(plan);
    else
        CSIM_FATAL_F("unknown benchmark workload '%s'", name.c_str());
    collectTraces(plan);
    return plan;
}

std::vector<std::string>
Plan::labels() const
{
    if (isStore)
        return {store.label};
    std::vector<std::string> out;
    for (const SweepCell &cell : spec.cells)
        out.push_back(cell.label());
    return out;
}

std::string
cellDigest(const AggregateResult &result)
{
    const std::string text = statsDigest(result.stats) + "|" +
        std::to_string(result.instructions) + "|" +
        std::to_string(result.cycles);
    return fnvHex(fnv1a64(text));
}

} // namespace bench
