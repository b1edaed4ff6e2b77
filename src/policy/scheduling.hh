/**
 * @file
 * Issue-priority (scheduling) policies.
 *
 * Age: classic oldest-first selection.
 * Critical: Fields's focused scheduling — predicted-critical
 *     instructions issue before others, ties by age (paper Sec. 2.3).
 * LoC: prioritise by likelihood of criticality, a 16-way spectrum that
 *     distinguishes degrees of criticality (paper Sec. 4).
 */

#ifndef CSIM_POLICY_SCHEDULING_HH
#define CSIM_POLICY_SCHEDULING_HH

#include <algorithm>

#include "core/policy.hh"
#include "obs/stats_registry.hh"
#include "predict/criticality_predictor.hh"
#include "predict/loc_predictor.hh"

namespace csim {

/** Oldest-first issue. */
class AgeScheduling : public SchedulingPolicy
{
  public:
    std::uint32_t
    priorityClass(const TraceRecord &rec) override
    {
        (void)rec;
        return 0;
    }

    const char *name() const override { return "age"; }
};

/** Predicted-critical instructions first; ties broken by age. */
class CriticalScheduling : public SchedulingPolicy
{
  public:
    explicit CriticalScheduling(const CriticalityPredictor &pred)
        : pred_(pred)
    {}

    std::uint32_t
    priorityClass(const TraceRecord &rec) override
    {
        const bool critical = pred_.predict(rec.pc);
        if (statCriticalClassed_ && critical)
            ++*statCriticalClassed_;
        return critical ? 0 : 1;
    }

    void
    registerStats(StatsRegistry &registry) override
    {
        statCriticalClassed_ = &registry.addCounter(
            "sched.critical.classedCritical",
            "dispatches classed into the critical priority class");
    }

    const char *name() const override { return "critical"; }

  private:
    const CriticalityPredictor &pred_;
    Counter *statCriticalClassed_ = nullptr;
};

/** Higher likelihood of criticality issues first; ties by age. */
class LocScheduling : public SchedulingPolicy
{
  public:
    explicit LocScheduling(const LocPredictor &loc)
        : loc_(loc), low_(std::max(2u, loc.levels() / 8))
    {}

    std::uint32_t
    priorityClass(const TraceRecord &rec) override
    {
        // Full LoC resolution among likely-critical instructions, but
        // one shared class for the never/rarely-critical mass: the
        // probabilistic counters carry about a level of noise, and
        // spurious priority inversions among equally non-critical
        // instructions (breaking age order) cost more than the last
        // bit of LoC resolution buys.
        const unsigned level = loc_.level(rec.pc);
        const unsigned top = loc_.levels() - 1;
        if (statElevated_ && level >= low_)
            ++*statElevated_;
        return level >= low_ ? top - level : top - low_ + 1;
    }

    void
    registerStats(StatsRegistry &registry) override
    {
        statElevated_ = &registry.addCounter(
            "sched.loc.classedElevated",
            "dispatches classed above the non-critical mass");
    }

    const char *name() const override { return "loc"; }

  private:
    const LocPredictor &loc_;
    /** Lowest LoC level resolved above the non-critical mass. */
    const unsigned low_;
    Counter *statElevated_ = nullptr;
};

} // namespace csim

#endif // CSIM_POLICY_SCHEDULING_HH
