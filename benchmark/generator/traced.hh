/**
 * @file
 * The traced run: the same work as the end-to-end path, composed from
 * the simulator's public calls so that a span can be opened around
 * every call into a layer. Steering, scheduling and commit-listener
 * callbacks are too frequent for one span each; timing decorators sum
 * their time per TimingSim run instead and attach it to that run's
 * span.
 */

#ifndef CSIM_BENCHMARK_TRACED_HH
#define CSIM_BENCHMARK_TRACED_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "plan.hh"

namespace bench {

/** A policy stack with its predictors (traced.cc). */
struct PolicyStack;

/** Host nanoseconds on the steady clock. */
std::uint64_t nowNs();

/** What one rep produced, on either path. */
struct RepOutcome
{
    double setupSeconds = 0.0;
    double simSeconds = 0.0;
    /** One merged result per cell, in Plan::labels() order. */
    std::vector<csim::AggregateResult> cells;
};

/** TraceCache activity seen by an end-to-end rep. */
struct CacheSample
{
    double hitRatio = 0.0;
    /** TraceCache::bytesHeld() over the instructions it holds. */
    double bytesPerInst = 0.0;
};

/**
 * In-memory spans, written out once as Chrome trace-event JSON. Each
 * span records its name, start, duration, parent span and job (cell x
 * seed, or -1 outside jobs). Layer spans wrap a call into a src/
 * module; structural spans (rep, setup, simulate, job) only group.
 */
class Tracer
{
  public:
    Tracer();

    int begin(const char *name, bool layer);
    /** Close `id`, the innermost open span; returns its duration. */
    std::uint64_t end(int id);
    void arg(int id, const char *key, double value);

    /** Register a job label; spans opened afterwards belong to it. */
    void enterJob(std::string label);
    void leaveJob() { job_ = -1; }

    /** Time spent inside outermost layer spans so far. */
    std::uint64_t coveredNs() const { return coveredNs_; }

    /** Write the Chrome trace-event JSON; false on I/O error. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        std::uint64_t start = 0;
        std::uint64_t dur = 0;
        int parent = -1;
        int job = -1;
        bool layer = false;
        std::vector<std::pair<const char *, double>> args;
    };

    std::uint64_t origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::vector<std::string> jobs_;
    int job_ = -1;
    unsigned openLayers_ = 0;
    std::uint64_t coveredNs_ = 0;
};

/** Nanoseconds and a work count (instructions or calls). */
struct NsCount
{
    std::uint64_t ns = 0;
    std::uint64_t n = 0;

    void
    add(std::uint64_t ns_, std::uint64_t n_)
    {
        ns += ns_;
        n += n_;
    }

    double
    per() const
    {
        return n ? static_cast<double>(ns) / static_cast<double>(n) : 0.0;
    }
};

/** Per-layer accumulators over every traced rep of a process. */
struct LayerTally
{
    // Synthesis stages, per instruction synthesized.
    NsCount emulate, link, branch, mem, storeWrite, soa;
    /** Store loads (n = loads). */
    NsCount storeLoad;
    /** Σ stage time inside setup, and setup wall. */
    std::uint64_t stageNs = 0;
    std::uint64_t setupNs = 0;

    /** TimingSim construction + run, per instruction simulated. */
    NsCount core;
    /** Decorated policy/listener time inside those runs. */
    std::uint64_t coreChildNs = 0;
    std::uint64_t warmupNs = 0;
    /** Skipped and total cycles of the measured runs. */
    std::uint64_t skipCycles = 0;
    std::uint64_t cycles = 0;
    /** n = steer() calls, priorityClass() calls, commits. */
    NsCount steer, sched, train;

    NsCount analyze, listsched, extract, audit, critScore;
    /** Measured runs with observers attached, and their bare reruns. */
    NsCount observedCore, bareCore;
    std::uint64_t bareRerunNs = 0;
    /** Bare reruns whose cycles differ from the observed run. */
    std::uint64_t bareMismatches = 0;

    std::vector<double> jobMs;
    std::uint64_t repNs = 0;
    std::uint64_t reps = 0;
};

/** Executes traced reps of one plan. */
class TracedRun
{
  public:
    TracedRun(const Plan &plan, std::string tmpdir);

    RepOutcome rep();

    const LayerTally &tally() const { return tally_; }
    const Tracer &tracer() const { return tracer_; }

    /**
     * The per-layer metrics, in a fixed order. `e2eWallSeconds` and
     * `cache` come from an untraced rep of the same process.
     */
    std::vector<std::pair<std::string, double>>
    metrics(double e2eWallSeconds, const CacheSample &cache) const;

  private:
    enum class CoreRole { Warmup, Measured, Reference, Discard, Bare };

    struct CoreRun
    {
        csim::SimResult sim;
        std::uint64_t ns = 0;
    };

    RepOutcome cacheRep();
    RepOutcome storeRep();

    CoreRun runCore(const csim::MachineConfig &machine,
                    const csim::Trace &trace,
                    csim::SteeringPolicy &steering,
                    csim::SchedulingPolicy &scheduling,
                    csim::CommitListener *listener,
                    const csim::SimOptions &options, CoreRole role);

    PolicyStack warmedStack(const csim::Trace &trace,
                            const csim::MachineConfig &machine,
                            csim::PolicyKind kind,
                            const csim::ExperimentConfig &cfg,
                            CoreRole role);
    csim::AggregateResult policyJob(const csim::Trace &trace,
                                    const csim::MachineConfig &machine,
                                    csim::PolicyKind kind,
                                    const csim::ExperimentConfig &cfg);
    csim::AggregateResult idealJob(const csim::Trace &trace,
                                   const csim::MachineConfig &machine,
                                   csim::ListSchedOptions::Priority
                                       priority);
    void bareRerun(const csim::Trace &trace,
                   const csim::MachineConfig &machine,
                   csim::PolicyKind kind,
                   const csim::ExperimentConfig &cfg,
                   std::uint64_t expectCycles);

    /** Run fn under a layer span named `name`; returns its duration. */
    template <typename Fn>
    std::uint64_t spanned(const char *name, Fn &&fn);

    /** Account one synthesis stage of setup. */
    void stage(NsCount &acc, std::uint64_t ns, std::uint64_t n);

    const Plan &plan_;
    const std::string tmpdir_;
    Tracer tracer_;
    LayerTally tally_;
};

} // namespace bench

#endif // CSIM_BENCHMARK_TRACED_HH
