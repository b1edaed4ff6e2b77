/**
 * @file
 * Passive observation hooks into the timing core's pipeline events.
 *
 * A SimObserver attached through SimOptions::checker (or the
 * SimOptions::observers chain) is driven by TimingSim at every steer,
 * issue, commit and cycle boundary — plus the stall events each stage
 * reports — with a read-only CoreView of the machine state. Idle
 * cycles the core skips ahead over still reach observers: TimingSim
 * replays their stall and cycle-end hooks one cycle at a time, with
 * view.now() on that cycle, so every observer sees the same event
 * stream a densely stepped run produces. The core knows nothing about
 * concrete observers; the pipeline invariant checker in src/verify and
 * the interval profiler in src/obs implement this interface, keeping
 * both subsystems out of the core's dependency graph (mirroring how
 * CommitListener decouples predictor training).
 */

#ifndef CSIM_CORE_SIM_OBSERVER_HH
#define CSIM_CORE_SIM_OBSERVER_HH

#include <cstddef>
#include <cstdint>

#include "core/policy.hh"

namespace csim {

class StatsRegistry;

/** Why the in-order steer stage blocked for the rest of a cycle. */
enum class SteerStallCause : std::uint8_t
{
    RobFull,      ///< shared ROB at capacity
    WindowFull,   ///< every cluster scheduling window full
    PolicyStall,  ///< the steering policy chose to stall (Fig. 14 's')
};

/**
 * Pipeline event observer. All hooks default to no-ops so observers
 * override only the events they care about. Hooks fire after the core
 * has updated the instruction's timing record, so view.timingOf(id)
 * reflects the event.
 */
class SimObserver
{
  public:
    virtual ~SimObserver() = default;

    /** The run is about to execute cycle 0. */
    virtual void onRunStart(const CoreView &view) { (void)view; }

    /** id was steered into its cluster window this cycle. */
    virtual void onSteer(const CoreView &view, InstId id)
    {
        (void)view;
        (void)id;
    }

    /** id issued this cycle (window entry freed, complete scheduled). */
    virtual void onIssue(const CoreView &view, InstId id)
    {
        (void)view;
        (void)id;
    }

    /**
     * id was ready this cycle but denied issue by its cluster's
     * width/port limits (one event per denied instruction per cycle;
     * the same events sched.replayEvents counts).
     */
    virtual void onIssueDenied(const CoreView &view, InstId id)
    {
        (void)view;
        (void)id;
    }

    /** The steer stage blocked this cycle for the given cause (fires
     *  at most once per cycle). */
    virtual void onSteerStall(const CoreView &view, SteerStallCause cause)
    {
        (void)view;
        (void)cause;
    }

    /** Fetch spent this cycle stalled on an unresolved mispredicted
     *  branch. */
    virtual void onFetchStall(const CoreView &view) { (void)view; }

    /** id retired this cycle (every timestamp final). */
    virtual void onCommit(const CoreView &view, InstId id)
    {
        (void)view;
        (void)id;
    }

    /** All stages have run for cycle view.now(). */
    virtual void onCycleEnd(const CoreView &view) { (void)view; }

    /** The run finished (after the last commit). */
    virtual void onRunEnd(const CoreView &view) { (void)view; }

    /** See SteeringPolicy::registerStats. */
    virtual void registerStats(StatsRegistry &registry)
    {
        (void)registry;
    }
};

} // namespace csim

#endif // CSIM_CORE_SIM_OBSERVER_HH
