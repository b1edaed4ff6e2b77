/**
 * @file
 * Steering (cluster assignment) policies.
 *
 * ModNSteering and LoadBalanceSteering are simple baselines. The main
 * policy is UnifiedSteering: dependence-based steering [Kemp & Franklin]
 * optionally focused by the binary criticality predictor [Fields et al.]
 * and extended with the paper's three proposals — LoC snapshots for the
 * scheduler, stall-over-steer for execute-critical instructions, and
 * proactive load-balancing of not-most-critical consumers.
 */

#ifndef CSIM_POLICY_STEERING_HH
#define CSIM_POLICY_STEERING_HH

#include <vector>

#include "common/logging.hh"
#include "common/sat_counter.hh"
#include "core/policy.hh"
#include "obs/stats_registry.hh"
#include "predict/criticality_predictor.hh"
#include "predict/loc_predictor.hh"

namespace csim {

/** Round-robin steering (baseline). */
class ModNSteering : public SteeringPolicy
{
  public:
    void reset(const CoreView &view, std::size_t trace_size) override;
    SteerDecision steer(const CoreView &view,
                        const SteerRequest &req) override;
    const char *name() const override { return "modn"; }

  private:
    ClusterId next_ = 0;
};

/** Always pick the least-occupied cluster (baseline). */
class LoadBalanceSteering : public SteeringPolicy
{
  public:
    SteerDecision steer(const CoreView &view,
                        const SteerRequest &req) override;
    const char *name() const override { return "loadbal"; }
};

/** Configuration of the dependence-based / focused / paper policies. */
struct UnifiedSteeringOptions
{
    /**
     * Prefer the cluster of a predicted-critical producer (focused
     * steering). Requires critPred.
     */
    bool focusOnCritical = false;
    /** Stall steering instead of load-balancing when an instruction
     *  with LoC >= stallThreshold cannot join its producer. */
    bool stallOverSteer = false;
    double stallThreshold = 0.30;
    /** Push not-most-critical consumers away from their producers. */
    bool proactiveLB = false;
    /** Proactive-LB override: keep a consumer with LoC above this... */
    double overrideMinLoc = 0.05;
    /** ...and at least this fraction of its producer's LoC. */
    double overrideProducerFraction = 0.5;
    /** A consumer this likely to be critical is always kept with its
     *  producer, whatever the producer's own LoC. */
    double keepAbsoluteLoc = 0.30;
    /**
     * Proactive pushing engages only when the producer cluster's
     * window occupancy reaches pressureNum/pressureDen of capacity
     * (integer ratio: the gate stays exact at every window size).
     */
    unsigned pressureNum = 3;
    unsigned pressureDen = 4;
};

/**
 * Dependence-based steering with the paper's policy extensions.
 *
 * Placement logic per instruction, in priority order:
 *  1. No in-flight register producer: least-occupied cluster.
 *  2. Proactive LB (if enabled): consumers learned to be
 *     not-most-critical, or producers already followed once, are
 *     load-balanced unless the LoC override applies.
 *  3. Desired producer cluster has space: collocate.
 *  4. Desired cluster full: stall if stall-over-steer applies
 *     (LoC >= threshold), otherwise load-balance.
 *
 * The desired producer is the most recently dispatched in-flight
 * register producer; with focusOnCritical, predicted-critical producers
 * take precedence (Fields's focused steering).
 */
class UnifiedSteering : public SteeringPolicy
{
  public:
    /**
     * @param crit_pred Binary criticality predictor, or nullptr.
     * @param loc_pred LoC predictor, or nullptr (disables LoC-driven
     *        features and snapshots).
     */
    UnifiedSteering(const UnifiedSteeringOptions &options,
                    const CriticalityPredictor *crit_pred,
                    const LocPredictor *loc_pred);

    void reset(const CoreView &view, std::size_t trace_size) override;
    SteerDecision steer(const CoreView &view,
                        const SteerRequest &req) override;
    void registerStats(StatsRegistry &registry) override;
    void notifySteered(const CoreView &view, const SteerRequest &req,
                       const SteerDecision &decision) override;
    void notifyCommit(const CoreView &view, InstId id,
                      const TraceRecord &rec) override;
    const char *name() const override { return name_.c_str(); }

    // --- Live retune surface (adaptive manager) ----------------- //
    // Plain setters are thread-safe by construction: a sim runs on
    // exactly one thread and sweeps parallelize across whole runs,
    // so a knob is only ever written by the thread reading it.

    /** Retune the stall-over-steer LoC cutoff mid-run. */
    void
    setStallThreshold(double threshold)
    {
        options_.stallThreshold = threshold;
    }
    double stallThreshold() const { return options_.stallThreshold; }

    /** Retune the proactive-LB pressure gate to num/den occupancy. */
    void
    setProactivePressure(unsigned num, unsigned den)
    {
        CSIM_ASSERT(den > 0 && num <= den);
        options_.pressureNum = num;
        options_.pressureDen = den;
    }
    unsigned pressureNum() const { return options_.pressureNum; }
    unsigned pressureDen() const { return options_.pressureDen; }

  private:
    /** Least-occupied cluster that has a free window entry. */
    static ClusterId leastLoaded(const CoreView &view);

    UnifiedSteeringOptions options_;
    const CriticalityPredictor *critPred_;
    const LocPredictor *locPred_;
    std::string name_;

    /** Producer chosen by the most recent steer() (for notifySteered). */
    InstId pendingProducer_ = invalidInstId;

    // --- proactive load-balancing state ---
    // The two per-instruction tables are read only by proactive
    // load-balancing, so reset() sizes them only when it is on.
    /** Max LoC level seen among steered consumers of each dynamic
     *  value. */
    std::vector<std::uint8_t> maxConsumerLoc_;
    /** Dynamic producer already has a collocated consumer. */
    std::vector<bool> followed_;
    /** PC-indexed "this consumer is usually not the most critical one"
     *  hysteresis counters. */
    std::vector<SatCounter> lbCandidate_;
    /** PC-indexed stall-over-steer hysteresis: smooths the noisy
     *  per-steer LoC samples into a stable execute-critical class. */
    std::vector<SatCounter> stallClass_;

    static constexpr unsigned lbTableBits = 12;
    std::size_t lbIndex(Addr pc) const;

    // --- registered stats (rebound per run; null until attached) ---
    /** Times the policy chose to stall rather than steer away. */
    Counter *statStallDecisions_ = nullptr;
    /** Proactive pushes vetoed by the sticky binary predictor. */
    Counter *statCritKeepVetoes_ = nullptr;
    /** Proactive pushes vetoed by the LoC override. */
    Counter *statLocKeepOverrides_ = nullptr;
};

} // namespace csim

#endif // CSIM_POLICY_STEERING_HH
