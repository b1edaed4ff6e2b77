/**
 * @file
 * Likelihood-of-criticality (LoC) predictor (paper Secs. 4 and 7).
 *
 * Tracks, per static instruction, the fraction of dynamic instances that
 * were detected critical, stratified into 16 levels held in 4 bits of
 * state via probabilistic counter updates (Riley & Zilles) — less
 * storage than the 6-bit counters of the binary Fields predictor.
 */

#ifndef CSIM_PREDICT_LOC_PREDICTOR_HH
#define CSIM_PREDICT_LOC_PREDICTOR_HH

#include <vector>

#include "common/prob_counter.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "obs/stats_registry.hh"

namespace csim {

class LocPredictor
{
  public:
    struct Params
    {
        unsigned tableBits = 12;
        unsigned levels = 16;
        std::uint64_t seed = 0x10c0ull;
    };

    LocPredictor();
    explicit LocPredictor(const Params &params);

    /** LoC stratum of the static instruction at pc, 0..levels-1. */
    unsigned level(Addr pc) const;

    /** LoC as a frequency estimate in [0, 1]. */
    double estimate(Addr pc) const;

    /** Train with one dynamic instance's detected criticality. */
    void train(Addr pc, bool critical);

    /** Register training counters with a run's registry (rebindable;
     *  the predictor counts nothing until attached). */
    void attachStats(StatsRegistry &registry);

    unsigned levels() const { return params_.levels; }

    void reset();

  private:
    std::size_t index(Addr pc) const;

    Params params_;
    std::size_t mask_;
    std::vector<ProbCounter> table_;
    Rng rng_;

    Counter *statTrains_ = nullptr;
    Counter *statTrainCritical_ = nullptr;
};

} // namespace csim

#endif // CSIM_PREDICT_LOC_PREDICTOR_HH
