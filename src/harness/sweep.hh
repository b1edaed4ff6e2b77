/**
 * @file
 * Declarative experiment sweeps with a parallel cell executor.
 *
 * Every figure in the paper is a sweep over (workload x machine x
 * policy x seed) cells. A SweepSpec declares the cells (a cell
 * declared twice is one cell); SweepRunner expands them into
 * independent (cell, seed) jobs, executes the jobs on a std::thread
 * worker pool, fetches each job's annotated trace from a shared
 * TraceCache (built once per (workload, seed, ...) key), and folds
 * each job's result into its cell's AggregateResult as soon as the
 * cell's earlier seeds have folded, so every cell merges its seeds in
 * declaration order and only the cells' aggregates (plus the few
 * results that landed early) are held. Because each job is
 * deterministic and the merge order is fixed, a run with N worker
 * threads is bit-identical to the 1-thread (and the old hand-rolled
 * sequential) path.
 *
 * Thread count: explicit argument > CSIM_THREADS environment variable
 * > std::thread::hardware_concurrency(). A malformed CSIM_THREADS
 * value (zero, negative, garbage) is a fatal error, never a silent
 * fallback.
 */

#ifndef CSIM_HARNESS_SWEEP_HH
#define CSIM_HARNESS_SWEEP_HH

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/trace_cache.hh"

namespace csim {

class RunLedger;

/**
 * Parse a number from a flag or environment variable: decimal digits
 * only, in [lo, hi]. Anything else — empty, signed, blank-padded,
 * trailing garbage, out of range, past 2^64 — is fatal, quoting
 * `source` (e.g. "--threads", "CSIM_THREADS") and the offending value.
 */
std::uint64_t parseDecimal(const std::string &value, const char *source,
                           std::uint64_t lo, std::uint64_t hi);

/** A worker-thread count: parseDecimal over [1, 65536]. */
unsigned parseThreadCount(const std::string &value, const char *source);

/** A `--seeds` list: comma-separated parseDecimal values, each listed
 *  once (a repeated seed is fatal). */
std::vector<std::uint64_t> parseSeedList(const std::string &value);

/** Whether a cell runs the timing simulator or the idealized
 *  list scheduler (Sec. 2.2). */
enum class CellMode
{
    Timing,
    Ideal,
};

/** One declared (workload, machine, policy-or-ideal) cell; the seed
 *  axis comes from the cell's ExperimentConfig. */
struct SweepCell
{
    std::string workload;
    MachineConfig machine;
    CellMode mode = CellMode::Timing;
    /** Timing cells only. */
    PolicyKind policy = PolicyKind::Focused;
    /** Ideal cells only. */
    ListSchedOptions::Priority priority =
        ListSchedOptions::Priority::DataflowHeight;
    /** Per-cell config override (ablation axes); unset inherits the
     *  spec-wide config. */
    std::optional<ExperimentConfig> cfg;

    /** "gcc/4x2w/focused", "gzip/8x1w/ideal", "vpr/2x4w/ideal-loc". */
    std::string label() const;
};

/** A declared experiment grid: shared config + cells. */
struct SweepSpec
{
    ExperimentConfig cfg;
    std::vector<SweepCell> cells;

    /**
     * Append a cell and return its index into the results, or return
     * an earlier equal cell's index: the same workload, machine (every
     * field), mode, policy (timing) or priority (ideal) and effective
     * config. A cell several figures declare thus runs once. A cell
     * without an override compares as `cfg` stands at this call.
     */
    std::size_t add(SweepCell cell);

    std::size_t addTiming(std::string workload, MachineConfig machine,
                          PolicyKind policy);

    std::size_t addIdeal(std::string workload, MachineConfig machine,
                         ListSchedOptions::Priority priority =
                             ListSchedOptions::Priority::
                                 DataflowHeight);

    /** Cross product of timing cells, workload-major. */
    void crossTiming(const std::vector<std::string> &workloads,
                     const std::vector<MachineConfig> &machines,
                     const std::vector<PolicyKind> &policies);

    /** The effective config of cell i (override or spec-wide). */
    const ExperimentConfig &cellConfig(std::size_t i) const;
};

/** One (cell, seed) job of a sweep. */
struct SweepJob
{
    std::size_t cell = 0;
    /** Position of `seed` in the cell's seed list. */
    std::size_t seedIndex = 0;
    std::uint64_t seed = 0;
};

/**
 * Sees one timing job's measured run on the worker thread, before its
 * per-instruction timing is dropped: the home of analyses that read
 * that timing (Fig. 8's LoC spectrum, Sec. 6's consumers, the slack
 * table, Fig. 15's ILP capture). Called once per full-trace timing
 * job; never for ideal or region-sampled jobs. Jobs run concurrently,
 * so a hook writes only state owned by its (cell, seedIndex), and the
 * caller folds those slots in declaration order after run() returns,
 * which keeps the result thread-count invariant.
 */
using RunHook = std::function<void(const SweepJob &job,
                                   const Trace &trace,
                                   const PolicyRun &run)>;

/** Per-cell results, keyed by declaration index. */
struct SweepOutcome
{
    std::vector<SweepCell> cells;
    std::vector<AggregateResult> results;
    unsigned threads = 1;
    double wallSeconds = 0.0;

    const AggregateResult &
    at(std::size_t i) const
    {
        return results.at(i);
    }
};

class SweepRunner
{
  public:
    /**
     * @param threads Worker threads; 0 resolves via defaultThreads().
     * @param cache Shared trace cache; null uses a runner-owned one.
     */
    explicit SweepRunner(unsigned threads = 0,
                         TraceCache *cache = nullptr);

    /** CSIM_THREADS when set and valid, else hardware_concurrency. */
    static unsigned defaultThreads();

    unsigned threads() const { return threads_; }
    TraceCache &cache() { return cache_ ? *cache_ : ownCache_; }

    /**
     * Attach a run ledger (may be null to detach). Every subsequent
     * run() emits sweepBegin / jobBegin / jobEnd / cellEnd / sweepEnd
     * events into it and keeps its progress counters live for the
     * heartbeat sampler. Workers also publish a "cell=... seed=..."
     * context line to the crash flight recorder. The ledger must
     * outlive the runner's run() calls.
     */
    void setLedger(RunLedger *ledger) { ledger_ = ledger; }

    /** Execute every (cell, seed) job and merge deterministically;
     *  `onRun`, when set, sees each timing job's measured run. */
    SweepOutcome run(const SweepSpec &spec, const RunHook &onRun = {});

  private:
    unsigned threads_;
    TraceCache *cache_;
    TraceCache ownCache_;
    RunLedger *ledger_ = nullptr;
};

} // namespace csim

#endif // CSIM_HARNESS_SWEEP_HH
