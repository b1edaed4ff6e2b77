/**
 * @file
 * The benchmark's four workloads, declared as data: which cells run,
 * on which traces, at what scale. Both the end-to-end path and the
 * traced path execute the same Plan, so their per-cell digests must
 * agree.
 */

#ifndef CSIM_BENCHMARK_PLAN_HH
#define CSIM_BENCHMARK_PLAN_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep.hh"

namespace bench {

/** Workload names, in the order the runner executes them. */
const std::vector<std::string> &workloadNames();

/** Region-sampled simulation of one stream-built trace store. */
struct StorePlan
{
    std::string proxy;
    std::uint64_t instructions = 0;
    csim::MachineConfig machine;
    csim::PolicyKind policy = csim::PolicyKind::FocusedLocStall;
    /** regions / regionLen / regionWarmup are set. */
    csim::ExperimentConfig cfg;
    std::string label;
};

struct Plan
{
    std::string name;
    std::uint64_t seed = 1;
    bool smoke = false;

    /** True for store_stream (store); false for the TraceCache sweeps. */
    bool isStore = false;
    StorePlan store;

    /** TraceCache workloads: the declared sweep... */
    csim::SweepSpec spec;
    /** ...and its distinct (proxy, seed) input traces, in first-use
     *  order. */
    std::vector<std::pair<std::string, std::uint64_t>> traces;

    /** Cell labels in result order. */
    std::vector<std::string> labels() const;
};

/** False for a name outside workloadNames(). */
bool isWorkload(const std::string &name);

/** The plan for a known workload at data seed `seed` (>= 1). */
Plan makePlan(const std::string &name, std::uint64_t seed, bool smoke);

/**
 * Digest of one cell's outcome: FNV-1a over the stats digest, the
 * measured instructions and the cycles.
 */
std::string cellDigest(const csim::AggregateResult &result);

} // namespace bench

#endif // CSIM_BENCHMARK_PLAN_HH
