/**
 * @file
 * Differential fuzzer for the clustered timing simulator.
 *
 * Each case derives, from one 64-bit seed, a random-but-valid machine
 * geometry, a random well-formed synthetic trace and a policy stack,
 * then runs the timing simulator under the full pipeline invariant
 * checker (live hooks + post-run audit) and the differential CPI
 * oracles:
 *
 *   - the structural floor (CPI >= 1 / narrowest stage width),
 *   - for clustered geometries, the monolithic envelope: the same
 *     policy on one cluster owning the summed resources with free
 *     bypass can never lose to the clustered machine, and
 *   - the stepping differential: the checked, profiled run on the
 *     event-driven skip-ahead core must match the same case stepped
 *     densely in every observable — cycle count, every timing record,
 *     every registered stat and the interval series.
 *
 * (The ideal list-scheduler bound is NOT applied here: its reference
 * schedule assumes the paper's Table-1 front end, which random
 * geometries deliberately violate. The harness `--check` path applies
 * it on the paper machines, where it is sound.)
 *
 * On the first failing case the fuzzer prints the seed, the derived
 * geometry and policy, the first violation, and the exact command
 * that replays just that case, then exits nonzero. CI runs a bounded
 * batch of seeds per push.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/rng.hh"
#include "harness/experiment.hh"
#include "policy/scheduling.hh"
#include "policy/steering.hh"
#include "trace/trace_soa.hh"
#include "trace/trace_store.hh"
#include "verify/oracle.hh"
#include "verify/random_trace.hh"

namespace {

using namespace csim;

struct FuzzArgs
{
    std::uint64_t startSeed = 1;
    std::uint64_t numSeeds = 64;
    std::uint64_t instructions = 1000;
    double relTol = 0.05;
    bool verbose = false;
};

[[noreturn]] void
usage(const char *bad)
{
    std::fprintf(stderr,
                 "usage: fuzz_sim [--start S] [--seeds N] "
                 "[--instructions N] [--tol F] [--verbose]\n");
    std::exit(bad ? 2 : 0);
}

std::uint64_t
parseU64(const char *flag, const char *v)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v, &end, 10);
    if (*v == '\0' || *end != '\0') {
        std::fprintf(stderr, "fuzz_sim: bad %s '%s'\n", flag, v);
        std::exit(2);
    }
    return n;
}

FuzzArgs
parseArgs(int argc, char **argv)
{
    FuzzArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[i]);
            return argv[++i];
        };
        if (arg == "--start")
            args.startSeed = parseU64("--start", next());
        else if (arg == "--seeds")
            args.numSeeds = parseU64("--seeds", next());
        else if (arg == "--instructions")
            args.instructions =
                parseU64("--instructions", next());
        else if (arg == "--tol")
            args.relTol = std::atof(next());
        else if (arg == "--verbose")
            args.verbose = true;
        else if (arg == "--help" || arg == "-h")
            usage(nullptr);
        else
            usage(arg.c_str());
    }
    return args;
}

const PolicyKind fuzzPolicies[] = {
    PolicyKind::ModN,
    PolicyKind::LoadBal,
    PolicyKind::Dep,
    PolicyKind::Focused,
    PolicyKind::FocusedLoc,
    PolicyKind::FocusedLocStall,
    PolicyKind::FocusedLocStallProactive,
    PolicyKind::ActiveClusters,
};

void
describeCase(const MachineConfig &config, PolicyKind kind,
             std::uint64_t instructions)
{
    std::fprintf(
        stderr,
        "  machine %s: clusters=%u width=%u int=%u fp=%u mem=%u "
        "window=%u rob=%u fetch=%u dispatch=%u commit=%u depth=%u "
        "fwd=%u stopAtTaken=%d\n  policy %s, trace %llu insts\n",
        config.name().c_str(), config.numClusters,
        config.cluster.issueWidth, config.cluster.intPorts,
        config.cluster.fpPorts, config.cluster.memPorts,
        config.windowPerCluster, config.robEntries,
        config.fetchWidth, config.dispatchWidth, config.commitWidth,
        config.frontendDepth, config.fwdLatency,
        config.fetchStopAtTaken ? 1 : 0, policyName(kind),
        static_cast<unsigned long long>(instructions));
}

/** Cycles the checked runs' skip-ahead jumped over, summed over the
 *  whole batch. Random traces always contain idle spans somewhere, so
 *  a batch in which the skip path never engaged means it is broken
 *  (or silently disabled), the checker never saw a skipped span and
 *  the differential below proved nothing. */
std::uint64_t batchSkipCycles = 0;

/** Compare one InstTiming field across the two stepping modes. */
template <typename T>
bool
timingFieldDiffers(const char *name, T skip, T dense, InstId id,
                   std::string &detail)
{
    if (skip == dense)
        return false;
    detail = "skip-vs-dense: inst " + std::to_string(id) + " " +
        name + " " + std::to_string(static_cast<long long>(skip)) +
        " != " + std::to_string(static_cast<long long>(dense));
    return true;
}

/** "" when two snapshots agree bit for bit, else the first mismatch. */
std::string
compareStats(const char *what, const StatsSnapshot &a,
             const StatsSnapshot &b)
{
    const auto &ae = a.entries();
    const auto &be = b.entries();
    if (ae.size() != be.size())
        return std::string(what) + ": stat counts differ";
    for (std::size_t i = 0; i < ae.size(); ++i) {
        if (ae[i].first != be[i].first)
            return std::string(what) + ": stat order differs at '" +
                ae[i].first + "'";
        const StatValue &av = ae[i].second;
        const StatValue &bv = be[i].second;
        if (av.value != bv.value || av.buckets != bv.buckets)
            return std::string(what) + ": stat '" + ae[i].first +
                "' differs: " + std::to_string(av.value) + " != " +
                std::to_string(bv.value);
    }
    return "";
}

/**
 * Returns "" when the case's checked, profiled skip-ahead run and the
 * same configuration stepped densely (legacyStep) agree on every
 * observable — timing records, every stat (verify.* and profiler.*
 * included) and the interval series — else the first mismatch.
 */
std::string
checkSteppingDifferential(const Trace &trace,
                          const MachineConfig &config, PolicyKind kind,
                          ExperimentConfig cfg, const PolicyRun &skip)
{
    cfg.simOptions.legacyStep = true;
    const PolicyRun dense = runPolicy(trace, config, kind, cfg);

    if (dense.skipCycles != 0 || dense.skipSpans != 0)
        return "skip-vs-dense: legacyStep run reported skipped cycles";
    if (dense.checkerViolations)
        return "skip-vs-dense: dense run: " + dense.checkerDetail;

    if (skip.sim.cycles != dense.sim.cycles)
        return "skip-vs-dense: cycles " +
            std::to_string(skip.sim.cycles) + " != " +
            std::to_string(dense.sim.cycles);
    if (skip.sim.instructions != dense.sim.instructions)
        return "skip-vs-dense: instructions " +
            std::to_string(skip.sim.instructions) + " != " +
            std::to_string(dense.sim.instructions);

    if (skip.sim.timing.size() != dense.sim.timing.size())
        return "skip-vs-dense: timing record counts differ";
    for (InstId id = 0; id < skip.sim.timing.size(); ++id) {
        const InstTiming &s = skip.sim.timing[id];
        const InstTiming &d = dense.sim.timing[id];
        std::string detail;
        if (timingFieldDiffers<Cycle>("fetch", s.fetch, d.fetch, id,
                                      detail) ||
            timingFieldDiffers<Cycle>("dispatch", s.dispatch, d.dispatch,
                                      id, detail) ||
            timingFieldDiffers<Cycle>("ready", s.ready, d.ready, id,
                                      detail) ||
            timingFieldDiffers<Cycle>("issue", s.issue, d.issue, id,
                                      detail) ||
            timingFieldDiffers<Cycle>("complete", s.complete, d.complete,
                                      id, detail) ||
            timingFieldDiffers<Cycle>("commit", s.commit, d.commit, id,
                                      detail) ||
            timingFieldDiffers("cluster", s.cluster, d.cluster, id,
                               detail) ||
            timingFieldDiffers("desired", s.desired, d.desired, id,
                               detail) ||
            timingFieldDiffers("reason",
                               static_cast<unsigned>(s.reason),
                               static_cast<unsigned>(d.reason), id,
                               detail) ||
            timingFieldDiffers("predictedCritical",
                               s.predictedCritical,
                               d.predictedCritical, id, detail) ||
            timingFieldDiffers("locLevel", s.locLevel, d.locLevel, id,
                               detail) ||
            timingFieldDiffers("dyadicSplit", s.dyadicSplit,
                               d.dyadicSplit, id, detail) ||
            timingFieldDiffers("crossMask", s.crossMask, d.crossMask,
                               id, detail))
            return detail;
    }

    if (skip.intervals.records != dense.intervals.records)
        return "skip-vs-dense: interval series differ";
    return compareStats("skip-vs-dense", skip.sim.stats,
                        dense.sim.stats);
}

/**
 * Round-trip the case's trace through the columnar store (save →
 * mmap-load → simulate) and check the loaded copy reproduces the
 * original run byte for byte, both through a trace copied back out of
 * the store and straight off the mmap-ed column view.
 */
std::string
checkStoreRoundTrip(const Trace &trace, const MachineConfig &config,
                    PolicyKind kind, ExperimentConfig cfg,
                    const PolicyRun &reference, std::uint64_t seed)
{
    const std::string path = "/tmp/csim_fuzz_" +
        std::to_string(::getpid()) + "_" + std::to_string(seed) +
        ".trc2";
    if (!saveTraceStore(trace, path))
        return "store: save failed";
    TraceSoA soa;
    const TraceIoStatus st = loadTraceStore(soa, path);
    std::remove(path.c_str());
    if (st != TraceIoStatus::Ok)
        return std::string("store: load failed: ") +
            traceIoStatusName(st);
    if (soa.size() != trace.size())
        return "store: instruction count changed in round trip";

    // Copied-back path: identical inputs through the identical
    // harness must give identical outputs.
    const Trace rebuilt = extractRegion(soa, 0, soa.size());
    const PolicyRun replay = runPolicy(rebuilt, config, kind, cfg);
    if (replay.sim.cycles != reference.sim.cycles)
        return "store: replay cycles " +
            std::to_string(replay.sim.cycles) + " != " +
            std::to_string(reference.sim.cycles);
    if (replay.sim.instructions != reference.sim.instructions)
        return "store: replay instruction counts differ";
    std::string diff = compareStats("store-replay", replay.sim.stats,
                                    reference.sim.stats);
    if (!diff.empty())
        return diff;

    // Column-view path: the sim reading records straight out of the
    // mapping must agree with the same bare run on the original trace.
    {
        ModNSteering steer_trace, steer_map;
        AgeScheduling sched_trace, sched_map;
        const SimResult orig =
            TimingSim(config, trace, steer_trace, sched_trace).run();
        const SimResult cols =
            TimingSim(config, soa, steer_map, sched_map).run();
        if (orig.cycles != cols.cycles)
            return "store: column-view cycles " +
                std::to_string(cols.cycles) + " != " +
                std::to_string(orig.cycles);
        diff = compareStats("store-column-view", cols.stats, orig.stats);
        if (!diff.empty())
            return diff;
    }
    return "";
}

/**
 * Adaptive-manager leg: rerun the case with the closed-loop manager
 * retuning the policy knobs on a short interval (reaction latency and
 * dwell forced to 1 so transitions actually fire at fuzz trace sizes),
 * under the live checker. Mid-run knob changes must not break any
 * pipeline invariant, and the skip-ahead run must agree bit for bit
 * with the same run stepped densely — the manager's decisions are a
 * pure function of the interval records, which skipped spans must
 * reproduce exactly. Exercises the retune surface on every policy
 * stack, including those with no knobs to turn (ModN, LoadBal).
 */
std::string
checkAdaptiveCase(const Trace &trace, const MachineConfig &config,
                  PolicyKind kind, ExperimentConfig cfg)
{
    cfg.verify.checker = true;
    cfg.verify.panicOnViolation = false;
    cfg.adaptive.enabled = true;
    cfg.adaptive.intervalCycles = 256;
    cfg.adaptive.reactionIntervals = 1;
    cfg.adaptive.minDwellIntervals = 1;
    const PolicyRun a = runPolicy(trace, config, kind, cfg);
    if (a.checkerViolations)
        return "adaptive: " + a.checkerDetail;
    if (!a.adaptive.present())
        return "adaptive: manager attached but exported no summary";
    cfg.simOptions.legacyStep = true;
    const PolicyRun b = runPolicy(trace, config, kind, cfg);
    if (a.sim.cycles != b.sim.cycles)
        return "adaptive: dense cycles " +
            std::to_string(b.sim.cycles) + " != " +
            std::to_string(a.sim.cycles);
    return compareStats("adaptive-skip-vs-dense", a.sim.stats,
                        b.sim.stats);
}

/** Returns "" on a clean case, else the first failure description. */
std::string
runCase(std::uint64_t seed, const FuzzArgs &args)
{
    Rng rng(seed);
    const MachineConfig config = randomMachineConfig(rng);
    const Trace trace = randomTrace(rng, args.instructions);
    const PolicyKind kind =
        fuzzPolicies[rng.below(std::size(fuzzPolicies))];

    ExperimentConfig cfg;
    cfg.instructions = args.instructions;
    cfg.seeds = {seed};
    cfg.verify.checker = true;
    cfg.verify.panicOnViolation = false;
    // Short intervals so interval closes land inside skipped spans.
    cfg.profile.enabled = true;
    cfg.profile.intervalCycles = 256;

    if (args.verbose) {
        std::fprintf(stderr, "seed %llu:\n",
                     static_cast<unsigned long long>(seed));
        describeCase(config, kind, trace.size());
    }

    const PolicyRun run = runPolicy(trace, config, kind, cfg);
    if (run.checkerViolations) {
        describeCase(config, kind, trace.size());
        return run.checkerDetail;
    }
    batchSkipCycles += run.skipCycles;

    const double cpi = run.sim.instructions ?
        static_cast<double>(run.sim.cycles) /
        static_cast<double>(run.sim.instructions) : 0.0;

    OracleCheck floor = checkCpiFloor(cpi, config);
    if (!floor.ok) {
        describeCase(config, kind, trace.size());
        return floor.detail;
    }

    if (config.numClusters > 1) {
        ExperimentConfig bare = cfg;
        bare.verify = VerifyConfig{};
        bare.profile = ProfileConfig{};
        const PolicyRun env =
            runPolicy(trace, monolithicEnvelope(config), kind, bare);
        const double env_cpi = env.sim.instructions ?
            static_cast<double>(env.sim.cycles) /
            static_cast<double>(env.sim.instructions) : 0.0;
        OracleCheck vs_env = checkCpiLowerBound(
            cpi, env_cpi, args.relTol, "monolithic-envelope");
        if (!vs_env.ok) {
            describeCase(config, kind, trace.size());
            return vs_env.detail;
        }
    }

    const std::string step_diff =
        checkSteppingDifferential(trace, config, kind, cfg, run);
    if (!step_diff.empty()) {
        describeCase(config, kind, trace.size());
        return step_diff;
    }

    const std::string store_diff =
        checkStoreRoundTrip(trace, config, kind, cfg, run, seed);
    if (!store_diff.empty()) {
        describeCase(config, kind, trace.size());
        return store_diff;
    }

    const std::string adaptive_diff =
        checkAdaptiveCase(trace, config, kind, cfg);
    if (!adaptive_diff.empty()) {
        describeCase(config, kind, trace.size());
        return adaptive_diff;
    }
    return "";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const FuzzArgs args = parseArgs(argc, argv);

    for (std::uint64_t i = 0; i < args.numSeeds; ++i) {
        const std::uint64_t seed = args.startSeed + i;
        const std::string failure = runCase(seed, args);
        if (!failure.empty()) {
            std::fprintf(
                stderr,
                "fuzz_sim: FAIL seed=%llu\n  %s\n"
                "reproduce: fuzz_sim --start %llu --seeds 1 "
                "--instructions %llu --tol %g --verbose\n",
                static_cast<unsigned long long>(seed),
                failure.c_str(),
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(args.instructions),
                args.relTol);
            return 1;
        }
    }
    if (args.numSeeds > 1 && batchSkipCycles == 0) {
        std::fprintf(stderr,
                     "fuzz_sim: FAIL skip-ahead never engaged across "
                     "the whole batch -- the stepping differential "
                     "compared dense against dense\n");
        return 1;
    }
    std::fprintf(stderr,
                 "fuzz_sim: %llu seeds clean (start %llu, %llu insts "
                 "each, %llu cycles skipped ahead)\n",
                 static_cast<unsigned long long>(args.numSeeds),
                 static_cast<unsigned long long>(args.startSeed),
                 static_cast<unsigned long long>(args.instructions),
                 static_cast<unsigned long long>(batchSkipCycles));
    return 0;
}
