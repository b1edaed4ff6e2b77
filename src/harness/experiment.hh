/**
 * @file
 * Experiment harness: wires predictors, trainer, steering and
 * scheduling together for each policy the paper evaluates, runs
 * benchmark x machine x policy sweeps with seed averaging, and returns
 * aggregate CPI + critical-path statistics. All bench binaries build
 * on these entry points.
 */

#ifndef CSIM_HARNESS_EXPERIMENT_HH
#define CSIM_HARNESS_EXPERIMENT_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/machine_config.hh"
#include "core/timing_sim.hh"
#include "critpath/attribution.hh"
#include "listsched/list_scheduler.hh"
#include "obs/interval_profiler.hh"
#include "workloads/registry.hh"

namespace csim {

class TraceCache;

/** The steering/scheduling policy stacks evaluated in the paper. */
enum class PolicyKind
{
    ModN,            ///< round-robin baseline
    LoadBal,         ///< least-loaded baseline
    Dep,             ///< dependence-based steering, age scheduling
    Focused,         ///< Fields et al. focused steering & scheduling
    FocusedLoc,      ///< + LoC-based scheduling          (Fig. 14 'l')
    FocusedLocStall, ///< + stall-over-steer              (Fig. 14 's')
    FocusedLocStallProactive, ///< + proactive load-bal.  (Fig. 14 'p')
    /** Adaptive active-cluster count (Balasubramonian et al.), age
     *  scheduling: the Sec. 5 cluster sweep's third row. */
    ActiveClusters,
};

const char *policyName(PolicyKind kind);

/**
 * Verification knobs (src/verify). Both default off, so production
 * sweeps pay nothing. The checker (live hooks plus the post-run audit)
 * makes a policy cell about 1.3-1.4x as costly, and the oracle, which
 * reruns the cell on two bounding models, brings checker + oracle to
 * about 2.8-3.3x (12 proxies x {4x2w, 8x1w} focused+loc+stall cells at
 * 20k instructions; EXPERIMENTS.md). Bench binaries enable both with
 * `--check`; the fuzzer drives them directly.
 */
struct VerifyConfig
{
    /** Attach a live PipelineChecker to every measured run. */
    bool checker = false;
    /** Differential CPI bounds after every policy cell. */
    bool oracle = false;
    /**
     * Slack for the oracle bounds: the bounding models are different
     * discrete schedules, so an equal-performance machine can land a
     * hair under the bound without a bug.
     */
    double oracleRelTol = 0.02;
    /** Die on the first violation (CI); false: count into verify.*. */
    bool panicOnViolation = true;
};

/**
 * Interval-profiling knobs (src/obs). Off by default: the profiler
 * adds per-event bookkeeping to every cycle and the ground-truth
 * scoring pass re-walks the depgraph after the run. Bench binaries
 * enable it with `--profile` / `--profile-interval`.
 */
struct ProfileConfig
{
    /** Attach an IntervalProfiler to every measured run. */
    bool enabled = false;
    /** Interval length in cycles. */
    std::uint64_t intervalCycles = 10000;
    /**
     * Score the steer-time criticality predictions against the chunked
     * depgraph ground truth after each measured run (profiler.crit.*).
     */
    bool scoreCriticality = true;
};

struct ExperimentConfig
{
    std::uint64_t instructions = 60000;
    std::vector<std::uint64_t> seeds = {1, 2, 3};
    /** Full-trace runs used to warm the predictors before measuring
     *  (the paper warms predictors/caches before its samples). */
    unsigned warmupRuns = 1;
    /** Commit-chunk length for online criticality training. */
    std::uint64_t trainChunk = 8192;
    /** Stall-over-steer LoC threshold (paper: 30%). */
    double stallThreshold = 0.30;
    /** LoC predictor strata (paper: 16 levels in 4 bits). */
    unsigned locLevels = 16;
    SimOptions simOptions = {};
    VerifyConfig verify = {};
    ProfileConfig profile = {};

    /**
     * A constant, not a knob, kept for its one reader:
     * benchmark/generator/traced.cc refuses `cfg.adaptive.enabled`
     * cells. ROADMAP item 4's benchmark change drops that read and
     * deletes this stub.
     */
    struct NoAdaptive
    {
        static constexpr bool enabled = false;
    };
    [[no_unique_address]] NoAdaptive adaptive;

    /**
     * SimPoint-style region sampling: instead of simulating the whole
     * trace, simulate `regions` evenly spaced regions of `regionLen`
     * committed instructions each, every region preceded by a
     * `regionWarmup`-instruction warmup phase whose stats are
     * discarded. 0 = off (full-trace simulation, the historical
     * behavior). Regions are merged in region order — the same
     * deterministic fold the seed loop uses — so results are
     * byte-identical at any sweep thread count. With sampling on (or
     * with simOptions.phases set) the legacy full-pass warmupRuns are
     * skipped: the per-region warmup phase replaces them.
     */
    unsigned regions = 0;
    /** Measured instructions per sampled region. */
    std::uint64_t regionLen = 0;
    /** Warmup instructions run (and discarded) before each region. */
    std::uint64_t regionWarmup = 0;
};

/**
 * FNV-1a digest (16 hex digits) of an ExperimentConfig's canonical
 * rendering: every deterministic knob — instructions, seeds, warmup,
 * training, thresholds, verify/profile/region settings, sim options
 * and phase specs — in a fixed order. Ledger jobBegin events
 * carry this so a replayed run can prove it executed the same declared
 * experiment. Pointer-valued observer hooks are excluded (they do not
 * describe the experiment, only its instrumentation).
 */
std::string configDigest(const ExperimentConfig &cfg);

/** Seed-aggregated outcome of a (workload, machine, policy) cell. */
struct AggregateResult
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    /** Critical-path cycles per category, summed over seeds. */
    std::array<std::uint64_t, numCpCategories> categoryCycles = {};
    std::uint64_t contentionEventsCritical = 0;
    std::uint64_t contentionEventsOther = 0;
    std::uint64_t fwdEventsLoadBal = 0;
    std::uint64_t fwdEventsDyadic = 0;
    std::uint64_t fwdEventsOther = 0;
    std::uint64_t globalValues = 0;
    /** Merged registry snapshots from all seeds' measured runs
     *  (counters summed, formulas seed-averaged). */
    StatsSnapshot stats;
    /** Interval time series, merged index-wise across seeds (empty
     *  unless cfg.profile.enabled). */
    IntervalSeries intervals;
    /**
     * Phase outcomes when phases (or region sampling) were configured.
     * Like-named phase lists merge elementwise across seeds/regions,
     * so "warmup" and "measure" stay two entries with summed spans.
     */
    std::vector<PhaseResult> phases;

    double
    cpi() const
    {
        return instructions ? static_cast<double>(cycles) /
            static_cast<double>(instructions) : 0.0;
    }

    /** Per-category contribution expressed in CPI units. */
    double
    categoryCpi(CpCategory cat) const
    {
        return instructions ?
            static_cast<double>(
                categoryCycles[static_cast<std::size_t>(cat)]) /
            static_cast<double>(instructions) : 0.0;
    }

    double
    globalValuesPerInst() const
    {
        return instructions ? static_cast<double>(globalValues) /
            static_cast<double>(instructions) : 0.0;
    }

    /**
     * Fold another result in (the seed-accumulation step): integer
     * fields sum, registry snapshots merge. Merging per-seed results
     * in seed order is exactly the sequential aggregation loop, which
     * is what lets the sweep runner compute cells in parallel and
     * still produce bit-identical aggregates.
     */
    void merge(const AggregateResult &other);
};

/** One policy run over one already-built trace (no seed averaging). */
struct PolicyRun
{
    SimResult sim;
    CpBreakdown breakdown;
    /**
     * Live-checker + post-run-audit violations (cfg.verify.checker
     * with panicOnViolation off; always 0 otherwise — with panic on,
     * a violation aborts before the run returns).
     */
    std::uint64_t checkerViolations = 0;
    /** First violation's description (the fuzzer's reproducer line). */
    std::string checkerDetail;
    /** The measured run's interval series (cfg.profile.enabled). */
    IntervalSeries intervals;
    /** Idle spans the measured run's skip-ahead jumped over (always 0
     *  under simOptions.legacyStep). */
    std::uint64_t skipSpans = 0;
    /** Cycles those spans covered. */
    std::uint64_t skipCycles = 0;
};

/**
 * Run a policy stack on a trace. Predictors are created fresh, warmed
 * with cfg.warmupRuns full passes, then the measured run is performed
 * (training continues during measurement, as in real hardware).
 */
PolicyRun runPolicy(const Trace &trace, const MachineConfig &machine,
                    PolicyKind kind, const ExperimentConfig &cfg);

/**
 * One (workload, machine, policy, seed) cell measured on an
 * already-built trace: a runPolicy pass folded into AggregateResult
 * form. This is the unit of work the sweep runner parallelizes.
 * `inspect`, when set, sees the full-trace run before its
 * per-instruction timing is dropped; region-sampled cells
 * (cfg.regions) never call it.
 */
AggregateResult runPolicyCell(
    const Trace &trace, const MachineConfig &machine, PolicyKind kind,
    const ExperimentConfig &cfg,
    const std::function<void(const PolicyRun &)> &inspect = {});

/**
 * Region-sampled cell evaluation straight off a column view (e.g. an
 * mmap-ed trace store or a cached simulation-only trace; cfg.regions
 * must be set). Regions are copied out into simulation-only traces one
 * at a time, and extractRegion drops a mapped store's pages after each
 * copy, so the trace-side resident set is one region span (36 B/inst
 * for the copy, plus its pages of the mapping while it is copied)
 * however many regions are sampled; only the sampled pages of a store
 * mapped from disk are ever read. Region results merge in region
 * order, so the outcome is thread-count invariant.
 */
AggregateResult runRegionSampledCell(const TraceSoA &soa,
                                     const MachineConfig &machine,
                                     PolicyKind kind,
                                     const ExperimentConfig &cfg);

/**
 * One idealized list-scheduling cell on an already-built trace
 * (Sec. 2.2): a reference 1x8w run supplies dispatch constraints, the
 * non-oracle priorities train their predictors with a focused run,
 * then the trace is list-scheduled onto the target machine.
 */
AggregateResult runIdealCell(const Trace &trace,
                             const MachineConfig &machine,
                             const ExperimentConfig &cfg,
                             ListSchedOptions::Priority priority =
                                 ListSchedOptions::Priority::
                                     DataflowHeight);

/**
 * Seed-averaged policy evaluation for one workload. With a cache the
 * per-seed traces are fetched from (and retained by) it; without one
 * they are built fresh, exactly as before the cache existed.
 */
AggregateResult runAggregate(const std::string &workload,
                             const MachineConfig &machine,
                             PolicyKind kind,
                             const ExperimentConfig &cfg,
                             TraceCache *cache = nullptr);

/**
 * Seed-averaged idealized list scheduling (Sec. 2.2) — the seed loop
 * over runIdealCell.
 */
AggregateResult runIdealAggregate(const std::string &workload,
                                  const MachineConfig &machine,
                                  const ExperimentConfig &cfg,
                                  ListSchedOptions::Priority priority =
                                      ListSchedOptions::Priority::
                                          DataflowHeight,
                                  TraceCache *cache = nullptr);

} // namespace csim

#endif // CSIM_HARNESS_EXPERIMENT_HH
