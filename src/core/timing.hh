/**
 * @file
 * Per-instruction timing records and simulation results produced by the
 * clustered timing simulator. These are consumed by the critical-path
 * analysis, the experiment harness, and the tests.
 */

#ifndef CSIM_CORE_TIMING_HH
#define CSIM_CORE_TIMING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "obs/stats_registry.hh"

namespace csim {

/** Why the steering logic placed an instruction where it did. */
enum class SteerReason : std::uint8_t
{
    Monolithic,     ///< single-cluster machine; no choice to make
    NoProducer,     ///< no in-flight producer; least-loaded cluster
    Collocated,     ///< placed with an in-flight producer
    LoadBalanced,   ///< desired producer cluster full; least-loaded
    ProactiveLB,    ///< pushed away by proactive load-balancing
};

/**
 * A cycle held in 32 bits that reads and writes as a Cycle. The all-ones
 * pattern stands for invalidCycle in both directions, so the largest
 * storable cycle is 2^32 - 2. Writing any other cycle past that panics
 * rather than truncating. A stamp converts only to Cycle: a cast to any
 * other type, or a conditional whose other arm is an int, does not
 * compile, so no read narrows a stamp silently. Only a printf-style
 * argument escapes that (and -Wformat flags it): pass Cycle{stamp}.
 */
class CycleStamp
{
  public:
    /** Largest cycle a stamp can hold. */
    static constexpr Cycle maxCycle = UINT32_MAX - 1;

    CycleStamp() = default;
    explicit CycleStamp(Cycle c) { *this = c; }

    operator Cycle() const { return v_ == none ? invalidCycle : v_; }
    template <class T> operator T() const = delete;

    CycleStamp &
    operator=(Cycle c)
    {
        if (c > maxCycle) [[unlikely]] {
            if (c != invalidCycle)
                CSIM_PANIC_F("CycleStamp: cycle %llu is past the 32-bit "
                             "stamp limit %llu",
                             static_cast<unsigned long long>(c),
                             static_cast<unsigned long long>(maxCycle));
            v_ = none;
        } else {
            v_ = static_cast<std::uint32_t>(c);
        }
        return *this;
    }

    friend bool
    operator==(CycleStamp a, CycleStamp b)
    {
        return a.v_ == b.v_;
    }

  private:
    static constexpr std::uint32_t none = UINT32_MAX;
    std::uint32_t v_ = none;
};

/**
 * Lifecycle timestamps and steering metadata of a dynamic instruction:
 * six 32-bit cycle stamps and seven bytes of steering metadata, 32 B in
 * all, so two records share a cache line. A full-trace run keeps one
 * per instruction (SimResult::timing).
 */
struct InstTiming
{
    CycleStamp fetch;
    /** Cycle the instruction was steered into a cluster window. */
    CycleStamp dispatch;
    /** Cycle all operands were available at this cluster. */
    CycleStamp ready;
    CycleStamp issue;
    /** Cycle execution finished (result locally visible). */
    CycleStamp complete;
    CycleStamp commit;

    ClusterId cluster = invalidCluster;
    /** Cluster the steering policy wanted (producer's cluster). */
    ClusterId desired = invalidCluster;
    SteerReason reason = SteerReason::Monolithic;

    /** Criticality-prediction snapshot taken at steer time. */
    bool predictedCritical = false;
    /** LoC predictor level snapshot (0..15) at steer time. */
    std::uint8_t locLevel = 0;
    /** In-flight producers lived in >= 2 different clusters. */
    bool dyadicSplit = false;
    /** Bit per SrcSlot: operand arrived via the global bypass. */
    std::uint8_t crossMask = 0;
};

static_assert(sizeof(InstTiming) == 32,
              "InstTiming is six 32-bit stamps plus seven metadata bytes");

/**
 * One named simulation phase (ChampSim-style warmup/measure split).
 * Phases partition a run by committed-instruction count: when a
 * phase's quota commits, the run's measured counters are snapshotted
 * and reset while every microarchitectural structure — predictors,
 * caches, windows, in-flight instructions — keeps its state. A
 * warmup phase's events are excluded from the run's merged totals.
 */
struct PhaseSpec
{
    std::string name;
    /** Committed instructions in this phase; 0 = run to trace end
     *  (valid only for the final phase). */
    std::uint64_t instructions = 0;
    bool isWarmup = false;

    bool operator==(const PhaseSpec &) const = default;
};

/** Closed-phase outcome: the phase's own cycle/instruction span plus
 *  a phase-local stats snapshot. */
struct PhaseResult
{
    std::string name;
    bool isWarmup = false;
    std::uint64_t instructions = 0;
    Cycle cycles = 0;
    StatsSnapshot stats;
};

/** Largest available-ILP bucket of SimResult's Fig. 15 capture;
 *  cycles with more ready instructions count in this bucket. */
inline constexpr unsigned ilpMaxAvailable = 64;

/** Outcome of one timing-simulation run. */
struct SimResult
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    std::vector<InstTiming> timing;

    /** Distinct (value, remote cluster) deliveries over the bypass. */
    std::uint64_t globalValues = 0;
    /** Cycles the steering stage spent stalled by policy choice. */
    std::uint64_t steerStallCycles = 0;

    /**
     * Frozen stats-registry view of the run: every counter,
     * distribution and formula registered by the core, the policies
     * and the predictors. globalValues/steerStallCycles above are
     * convenience copies of "sim.globalValues"/"steer.stallCycles".
     */
    StatsSnapshot stats;

    /**
     * ILP capture (Fig. 15): index a = available ILP that cycle;
     * ilpCycles[a] counts cycles, ilpIssuedSum[a] sums instructions
     * issued on those cycles, for a in 0..ilpMaxAvailable (whole
     * run, not phase-split).
     */
    std::vector<std::uint64_t> ilpCycles;
    std::vector<std::uint64_t> ilpIssuedSum;

    /**
     * Per-phase outcomes when SimOptions::phases was configured
     * (empty otherwise). With phases, the top-level cycles /
     * instructions / stats above cover only the *measured* (non-
     * warmup) phases, merged in phase order; `timing` still spans the
     * whole trace.
     */
    std::vector<PhaseResult> phases;

    double
    cpi() const
    {
        return instructions ? static_cast<double>(cycles) /
            static_cast<double>(instructions) : 0.0;
    }

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
            static_cast<double>(cycles) : 0.0;
    }

    double
    globalValuesPerInst() const
    {
        return instructions ? static_cast<double>(globalValues) /
            static_cast<double>(instructions) : 0.0;
    }
};

} // namespace csim

#endif // CSIM_CORE_TIMING_HH
