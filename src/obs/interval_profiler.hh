/**
 * @file
 * Live interval profiler: time-resolved CPI-stack loss accounting.
 *
 * The post-hoc critical-path pass in src/critpath attributes a whole
 * run's cycles to the paper's loss categories (Figs. 5-6); this
 * profiler does the same accounting *live*, one interval at a time, so
 * policy behaviour can be watched unfold over a run instead of being
 * summarized by a single end-of-run CPI. Attached through
 * SimOptions::observers, it classifies every simulated cycle into
 * exactly one CPI-stack component — so components sum to interval
 * cycles by construction — and every N cycles (default 10k) closes an
 * IntervalRecord carrying the stack, per-cluster occupancy/issue
 * lanes, and predictor telemetry (LoC spectrum, predicted-critical
 * steers). The series feeds three sinks: the bench JSON report
 * (schema v3), the Chrome trace-event exporter (src/obs/chrome_trace)
 * and `profiler.*` stats in the run's StatsRegistry.
 *
 * Per-cycle classification (first match wins):
 *   contention     a ready *predicted-critical* instruction was denied
 *                  issue by its cluster's ports — the paper's Fig. 6(a)
 *                  loss: contention among predicted-critical ops;
 *   loadImbalance  a ready instruction was denied while another
 *                  cluster had spare issue capacity and nothing denied
 *                  — work exists but steering mal-distributed it;
 *   base           at least one instruction issued (issue-width/
 *                  productive cycles, incl. saturated-width denials);
 *   steerStall     zero issue; steering stalled by policy choice
 *                  (stall-over-steer, Fig. 14 's');
 *   window         zero issue; steering blocked on a full ROB or full
 *                  scheduling windows;
 *   memory/bypass/execute/frontend
 *                  zero issue, nothing denied: attributed by examining
 *                  the oldest uncommitted instruction — waiting on an
 *                  L1-missing producer (memory), on a cross-cluster
 *                  forward in flight (bypass), on execution latency
 *                  (execute), or not yet out of the front end
 *                  (frontend: fill, fetch bandwidth, mispredict
 *                  recovery).
 */

#ifndef CSIM_OBS_INTERVAL_PROFILER_HH
#define CSIM_OBS_INTERVAL_PROFILER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/machine_config.hh"
#include "core/sim_observer.hh"
#include "core/timing.hh"
#include "obs/stats_registry.hh"
#include "trace/trace.hh"
#include "trace/trace_soa.hh"

namespace csim {

/** CPI-stack components of the live per-cycle attribution. */
enum class CpiComponent : std::uint8_t
{
    Base,           ///< >= 1 instruction issued (issue-width bound)
    Window,         ///< ROB / scheduling windows full
    SteerStall,     ///< steering policy stalled (stall-over-steer)
    Bypass,         ///< waiting on an inter-cluster forward in flight
    Contention,     ///< predicted-critical op denied issue
    LoadImbalance,  ///< denial with spare capacity on another cluster
    Execute,        ///< waiting on functional-unit latency
    Memory,         ///< waiting on an L1-missing load
    Frontend,       ///< fetch fill/bandwidth/mispredict recovery
    NumComponents
};

inline constexpr std::size_t numCpiComponents =
    static_cast<std::size_t>(CpiComponent::NumComponents);

/** Dotted-stat segment / JSON key of a component ("base", ...). */
const char *cpiComponentName(CpiComponent c);

/** One cluster's activity within one interval. */
struct IntervalClusterLane
{
    std::uint64_t steered = 0;
    std::uint64_t issued = 0;
    /** Per-cycle window occupancy summed over the interval's cycles
     *  (divide by cycles for the average). */
    std::uint64_t occupancySum = 0;

    bool operator==(const IntervalClusterLane &) const = default;
};

/** One closed profiling interval. */
struct IntervalRecord
{
    /** First cycle of the interval. */
    Cycle startCycle = 0;
    /** Cycles covered (== configured length except the last). */
    std::uint64_t cycles = 0;
    /** CPI stack; invariant: sums exactly to `cycles`. */
    std::array<std::uint64_t, numCpiComponents> components = {};

    std::uint64_t commits = 0;
    std::uint64_t steers = 0;
    std::uint64_t issued = 0;
    /** Steers whose criticality snapshot predicted critical. */
    std::uint64_t predictedCriticalSteers = 0;
    /** Sum of steer-time LoC levels (divide by steers for average). */
    std::uint64_t locLevelSum = 0;
    std::uint64_t deniedIssue = 0;
    std::uint64_t deniedCritical = 0;
    std::uint64_t fetchStallCycles = 0;

    std::vector<IntervalClusterLane> clusters;

    std::uint64_t
    componentSum() const
    {
        std::uint64_t s = 0;
        for (std::uint64_t c : components)
            s += c;
        return s;
    }

    /** Element-wise accumulation (seed/sweep aggregation). */
    void merge(const IntervalRecord &other);

    bool operator==(const IntervalRecord &) const = default;
};

/**
 * A run's (or a seed-merged aggregate's) interval time series.
 * Merging sums records index-wise — each index is the same nominal
 * [i*N, (i+1)*N) cycle window across seeds — adopting the longer
 * tail, so aggregates stay deterministic under the sweep runner's
 * fixed merge order.
 */
struct IntervalSeries
{
    /** Configured interval length in cycles (0 when empty). */
    std::uint64_t intervalCycles = 0;
    /** Machine geometry snapshot for utilization denominators. */
    unsigned clusterIssueWidth = 0;
    unsigned windowPerCluster = 0;
    /**
     * Runs merged into this series. Merged records carry *summed*
     * cycles — up to mergeCount * intervalCycles per nominal window —
     * so timeline renderers divide by this to recover the per-run
     * mean (slices must fit their [i*N, (i+1)*N) window).
     */
    std::uint64_t mergeCount = 1;
    std::vector<IntervalRecord> records;

    bool empty() const { return records.empty(); }

    /** Total cycles across all records. */
    std::uint64_t totalCycles() const;

    void merge(const IntervalSeries &other);
};

struct IntervalProfilerOptions
{
    /** Interval length in cycles. */
    std::uint64_t intervalCycles = 10000;
};

/**
 * The live profiler. Construct with the machine geometry and trace of
 * the run it will watch and attach through SimOptions::observers (it
 * composes with the pipeline checker). Live state and the series reset
 * at onRunStart, so the series always describes the most recent run;
 * attach only to the measured run, not warmup passes.
 */
class IntervalProfiler : public SimObserver
{
  public:
    IntervalProfiler(const MachineConfig &config, const Trace &trace,
                     IntervalProfilerOptions options =
                         IntervalProfilerOptions{});

    // SimObserver interface.
    void onRunStart(const CoreView &view) override;
    void onSteer(const CoreView &view, InstId id) override;
    void onIssue(const CoreView &view, InstId id) override;
    void onIssueDenied(const CoreView &view, InstId id) override;
    void onCommit(const CoreView &view, InstId id) override;
    void onSteerStall(const CoreView &view,
                      SteerStallCause cause) override;
    void onFetchStall(const CoreView &view) override;
    void onCycleEnd(const CoreView &view) override;
    void onRunEnd(const CoreView &view) override;
    void registerStats(StatsRegistry &registry) override;

    const IntervalSeries &series() const { return series_; }
    /** Move the series out (the profiler keeps an empty one). */
    IntervalSeries takeSeries();

  private:
    /** Attribute the cycle that just ended to one component. */
    CpiComponent classifyCycle(const CoreView &view) const;

    /** Push the current interval and start the next one. */
    void closeInterval(Cycle next_start);

    void resetCycleState();

    /** Stamp geometry on a fresh series (run or no run). */
    void initSeriesGeometry();

    const MachineConfig config_;
    /** The trace's column view (the trace must outlive the profiler). */
    const TraceSoA trace_;
    IntervalProfilerOptions options_;

    IntervalSeries series_;
    IntervalRecord cur_;

    /** Oldest uncommitted instruction (head of the ROB). */
    InstId nextCommit_ = 0;

    // Per-cycle scratch, folded into cur_ and reset at every cycle end.
    std::uint64_t cycIssued_ = 0;
    std::uint64_t cycDenied_ = 0;
    std::uint64_t cycDeniedCritical_ = 0;
    bool cycSteerStalled_ = false;
    SteerStallCause cycSteerStallCause_ = SteerStallCause::RobFull;
    std::vector<std::uint32_t> cycClusterIssued_;
    std::vector<std::uint32_t> cycClusterDenied_;

    // Optional registry bindings (null until registerStats).
    Counter *statIntervals_ = nullptr;
    std::array<Counter *, numCpiComponents> statComponents_ = {};
    Counter *statPredCritSteers_ = nullptr;
    Counter *statDenied_ = nullptr;
    Counter *statDeniedCritical_ = nullptr;
    Histogram *statLocSpectrum_ = nullptr;
};

} // namespace csim

#endif // CSIM_OBS_INTERVAL_PROFILER_HH
