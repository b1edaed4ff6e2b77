#include "traced.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "common/logging.hh"
#include "critpath/attribution.hh"
#include "frontend/branch_annotator.hh"
#include "frontend/gshare.hh"
#include "listsched/list_scheduler.hh"
#include "mem/cache.hh"
#include "mem/latency_annotator.hh"
#include "obs/interval_profiler.hh"
#include "policy/scheduling.hh"
#include "policy/steering.hh"
#include "trace/trace_store.hh"
#include "verify/pipeline_checker.hh"
#include "workloads/registry.hh"

namespace bench {

using namespace csim;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

// ---------------------------------------------------------------------
// Tracer

Tracer::Tracer() : origin_(nowNs()) {}

int
Tracer::begin(const char *name, bool layer)
{
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.job = job_;
    span.layer = layer;
    if (layer)
        ++openLayers_;
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    // Stamp last so the bookkeeping above is not inside the span.
    spans_.back().start = nowNs();
    return open_.back();
}

std::uint64_t
Tracer::end(int id)
{
    const std::uint64_t stop = nowNs();
    CSIM_ASSERT(!open_.empty() && open_.back() == id);
    open_.pop_back();
    Span &span = spans_[static_cast<std::size_t>(id)];
    span.dur = stop - span.start;
    if (span.layer && --openLayers_ == 0)
        coveredNs_ += span.dur;
    return span.dur;
}

void
Tracer::arg(int id, const char *key, double value)
{
    spans_[static_cast<std::size_t>(id)].args.emplace_back(key, value);
}

void
Tracer::enterJob(std::string label)
{
    jobs_.push_back(std::move(label));
    job_ = static_cast<int>(jobs_.size() - 1);
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // Job labels are cell labels plus a seed: no characters that
        // need JSON escaping.
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d,\"job\":\"%s\"",
                     i ? "," : "", s.name, s.layer ? "layer" : "group",
                     static_cast<double>(s.start - origin_) / 1e3,
                     static_cast<double>(s.dur) / 1e3, i, s.parent,
                     s.job < 0 ? ""
                               : jobs_[static_cast<std::size_t>(s.job)]
                                     .c_str());
        for (const auto &[key, value] : s.args)
            std::fprintf(f, ",\"%s\":%.17g", key, value);
        std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    const bool ok = std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
}

namespace {

/** RAII span handle; close() ends it early and returns its length. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, const char *name, bool layer)
        : tracer_(tracer), id_(tracer.begin(name, layer))
    {}
    ~SpanScope()
    {
        if (open_)
            tracer_.end(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }

    std::uint64_t
    close()
    {
        open_ = false;
        return tracer_.end(id_);
    }

  private:
    Tracer &tracer_;
    int id_;
    bool open_ = true;
};

/** Adds the lifetime of the object to a nanosecond accumulator. */
class Stopwatch
{
  public:
    explicit Stopwatch(std::uint64_t &acc) : acc_(acc), start_(nowNs()) {}
    ~Stopwatch() { acc_ += nowNs() - start_; }
    Stopwatch(const Stopwatch &) = delete;
    Stopwatch &operator=(const Stopwatch &) = delete;

  private:
    std::uint64_t &acc_;
    std::uint64_t start_;
};

/** Decorated-callback time of one TimingSim run. */
struct CoreTally
{
    std::uint64_t steerNs = 0;
    std::uint64_t steerCalls = 0;
    std::uint64_t schedNs = 0;
    std::uint64_t schedCalls = 0;
    std::uint64_t trainNs = 0;
    std::uint64_t commits = 0;
};

/** Times every steering-policy callback; forwards everything. */
class TimedSteering final : public SteeringPolicy
{
  public:
    TimedSteering(SteeringPolicy &inner, CoreTally &tally)
        : inner_(inner), tally_(tally)
    {}

    void
    reset(const CoreView &view, std::size_t trace_size) override
    {
        Stopwatch sw(tally_.steerNs);
        inner_.reset(view, trace_size);
    }

    SteerDecision
    steer(const CoreView &view, const SteerRequest &req) override
    {
        ++tally_.steerCalls;
        Stopwatch sw(tally_.steerNs);
        return inner_.steer(view, req);
    }

    void
    registerStats(StatsRegistry &registry) override
    {
        inner_.registerStats(registry);
    }

    void
    notifySteered(const CoreView &view, const SteerRequest &req,
                  const SteerDecision &decision) override
    {
        Stopwatch sw(tally_.steerNs);
        inner_.notifySteered(view, req, decision);
    }

    void
    notifyCommit(const CoreView &view, InstId id,
                 const TraceRecord &rec) override
    {
        Stopwatch sw(tally_.steerNs);
        inner_.notifyCommit(view, id, rec);
    }

    const char *name() const override { return inner_.name(); }

  private:
    SteeringPolicy &inner_;
    CoreTally &tally_;
};

class TimedScheduling final : public SchedulingPolicy
{
  public:
    TimedScheduling(SchedulingPolicy &inner, CoreTally &tally)
        : inner_(inner), tally_(tally)
    {}

    std::uint32_t
    priorityClass(const TraceRecord &rec) override
    {
        ++tally_.schedCalls;
        Stopwatch sw(tally_.schedNs);
        return inner_.priorityClass(rec);
    }

    void
    registerStats(StatsRegistry &registry) override
    {
        inner_.registerStats(registry);
    }

    const char *name() const override { return inner_.name(); }

  private:
    SchedulingPolicy &inner_;
    CoreTally &tally_;
};

class TimedListener final : public CommitListener
{
  public:
    TimedListener(CommitListener &inner, CoreTally &tally)
        : inner_(inner), tally_(tally)
    {}

    void
    onCommit(const CoreView &view, InstId id) override
    {
        ++tally_.commits;
        Stopwatch sw(tally_.trainNs);
        inner_.onCommit(view, id);
    }

    void
    registerStats(StatsRegistry &registry) override
    {
        inner_.registerStats(registry);
    }

    void
    onRunEnd(const CoreView &view) override
    {
        Stopwatch sw(tally_.trainNs);
        inner_.onRunEnd(view);
    }

  private:
    CommitListener &inner_;
    CoreTally &tally_;
};

/** AggregateResult of one run, as the harness folds it. */
AggregateResult
toAggregate(std::uint64_t instructions, Cycle cycles,
            const CpBreakdown &bd, std::uint64_t global_values,
            const StatsSnapshot &stats)
{
    AggregateResult r;
    r.instructions = instructions;
    r.cycles = cycles;
    for (std::size_t c = 0; c < numCpCategories; ++c)
        r.categoryCycles[c] = bd.cycles[c];
    r.contentionEventsCritical = bd.contentionEventsCritical;
    r.contentionEventsOther = bd.contentionEventsOther;
    r.fwdEventsLoadBal = bd.fwdEventsLoadBal;
    r.fwdEventsDyadic = bd.fwdEventsDyadic;
    r.fwdEventsOther = bd.fwdEventsOther;
    r.globalValues = global_values;
    r.stats.merge(stats);
    return r;
}

/** The harness's profiler.crit.* scoring of steer-time predictions. */
void
scoreCriticality(const Trace &trace, SimResult &result,
                 const MachineConfig &machine, std::uint64_t chunk_size)
{
    const std::vector<bool> truth =
        criticalityGroundTruth(trace, result, machine, chunk_size);
    std::uint64_t tp = 0, fp = 0, fn = 0, tn = 0;
    const std::size_t n = std::min(truth.size(), result.timing.size());
    for (std::size_t i = 0; i < n; ++i) {
        const bool pred = result.timing[i].predictedCritical;
        if (pred && truth[i])
            ++tp;
        else if (pred)
            ++fp;
        else if (truth[i])
            ++fn;
        else
            ++tn;
    }
    const auto counter = [](std::uint64_t v) {
        StatValue sv;
        sv.kind = StatKind::Counter;
        sv.value = static_cast<double>(v);
        return sv;
    };
    const auto formula = [](std::uint64_t num, std::uint64_t den) {
        StatValue sv;
        sv.kind = StatKind::Formula;
        sv.value = den ? static_cast<double>(num) /
            static_cast<double>(den) : 0.0;
        return sv;
    };
    result.stats.add("profiler.crit.truePos", counter(tp));
    result.stats.add("profiler.crit.falsePos", counter(fp));
    result.stats.add("profiler.crit.falseNeg", counter(fn));
    result.stats.add("profiler.crit.trueNeg", counter(tn));
    result.stats.add("profiler.crit.hitRate",
                     formula(tp + tn, tp + fp + fn + tn));
    result.stats.add("profiler.crit.precision", formula(tp, tp + fp));
    result.stats.add("profiler.crit.recall", formula(tp, tp + fn));
}

/** Linear-interpolated percentile of a sorted sample. */
double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double pos = p * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (sorted[hi] - sorted[lo]) *
        (pos - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // anonymous namespace

/**
 * The focused policy stacks, built as harness/experiment.cc builds
 * them. The benchmark declares no baseline (mod-n, load-balance,
 * dependence) cells, so those stacks are not mirrored.
 */
struct PolicyStack
{
    std::unique_ptr<CriticalityPredictor> critPred;
    std::unique_ptr<LocPredictor> locPred;
    std::unique_ptr<SteeringPolicy> steering;
    std::unique_ptr<SchedulingPolicy> scheduling;
    std::unique_ptr<OnlineCriticalityTrainer> trainer;
};

namespace {

PolicyStack
makeStack(const Trace &trace, PolicyKind kind, const ExperimentConfig &cfg)
{
    PolicyStack s;
    s.critPred = std::make_unique<CriticalityPredictor>();
    UnifiedSteeringOptions opt;
    opt.focusOnCritical = true;
    if (kind == PolicyKind::Focused) {
        s.steering = std::make_unique<UnifiedSteering>(
            opt, s.critPred.get(), nullptr);
        s.scheduling = std::make_unique<CriticalScheduling>(*s.critPred);
    } else if (kind == PolicyKind::FocusedLoc ||
               kind == PolicyKind::FocusedLocStall ||
               kind == PolicyKind::FocusedLocStallProactive) {
        LocPredictor::Params loc_params;
        loc_params.levels = cfg.locLevels;
        s.locPred = std::make_unique<LocPredictor>(loc_params);
        opt.stallOverSteer = kind != PolicyKind::FocusedLoc;
        opt.stallThreshold = cfg.stallThreshold;
        opt.proactiveLB = kind == PolicyKind::FocusedLocStallProactive;
        s.steering = std::make_unique<UnifiedSteering>(
            opt, s.critPred.get(), s.locPred.get());
        s.scheduling = std::make_unique<LocScheduling>(*s.locPred);
    } else {
        CSIM_FATAL_F("traced composition has no '%s' stack",
                     policyName(kind));
    }
    s.trainer = std::make_unique<OnlineCriticalityTrainer>(
        trace, s.critPred.get(), s.locPred.get(), cfg.trainChunk);
    return s;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// TracedRun

TracedRun::TracedRun(const Plan &plan, std::string tmpdir)
    : plan_(plan), tmpdir_(std::move(tmpdir))
{}

template <typename Fn>
std::uint64_t
TracedRun::spanned(const char *name, Fn &&fn)
{
    SpanScope span(tracer_, name, true);
    fn();
    return span.close();
}

void
TracedRun::stage(NsCount &acc, std::uint64_t ns, std::uint64_t n)
{
    acc.add(ns, n);
    tally_.stageNs += ns;
}

RepOutcome
TracedRun::rep()
{
    SpanScope span(tracer_, "rep", false);
    RepOutcome out = plan_.isStore ? storeRep() : cacheRep();
    tally_.repNs += span.close();
    ++tally_.reps;
    return out;
}

TracedRun::CoreRun
TracedRun::runCore(const MachineConfig &machine, const Trace &trace,
                   SteeringPolicy &steering, SchedulingPolicy &scheduling,
                   CommitListener *listener, const SimOptions &options,
                   CoreRole role)
{
    CoreTally ct;
    TimedSteering timed_steering(steering, ct);
    TimedScheduling timed_scheduling(scheduling, ct);
    std::optional<TimedListener> timed_listener;
    if (listener)
        timed_listener.emplace(*listener, ct);

    SpanScope span(tracer_, "core.run", true);
    TimingSim sim(machine, trace, timed_steering, timed_scheduling,
                  timed_listener ? &*timed_listener : nullptr, options);
    CoreRun out;
    out.sim = sim.run();
    const std::uint64_t skip = sim.skipCycles();
    const std::uint64_t total = sim.now();
    tracer_.arg(span.id(), "role", static_cast<double>(role));
    tracer_.arg(span.id(), "instructions",
                static_cast<double>(trace.size()));
    tracer_.arg(span.id(), "steer_ns", static_cast<double>(ct.steerNs));
    tracer_.arg(span.id(), "sched_ns", static_cast<double>(ct.schedNs));
    tracer_.arg(span.id(), "train_ns", static_cast<double>(ct.trainNs));
    out.ns = span.close();

    switch (role) {
      case CoreRole::Discard:
        return out;
      case CoreRole::Bare:
        tally_.bareCore.add(out.ns, trace.size());
        return out;
      case CoreRole::Warmup:
        tally_.warmupNs += out.ns;
        break;
      case CoreRole::Measured:
        tally_.skipCycles += skip;
        tally_.cycles += total;
        break;
      default:
        break;
    }
    tally_.core.add(out.ns, trace.size());
    tally_.coreChildNs += ct.steerNs + ct.schedNs + ct.trainNs;
    tally_.steer.add(ct.steerNs, ct.steerCalls);
    tally_.sched.add(ct.schedNs, ct.schedCalls);
    tally_.train.add(ct.trainNs, ct.commits);
    return out;
}

/**
 * A fresh stack trained by the warmup passes runPolicy runs before the
 * measured run (none when phases are configured: the in-run warmup
 * phase replaces them).
 */
PolicyStack
TracedRun::warmedStack(const Trace &trace, const MachineConfig &machine,
                       PolicyKind kind, const ExperimentConfig &cfg,
                       CoreRole role)
{
    PolicyStack stack = makeStack(trace, kind, cfg);
    if (cfg.simOptions.phases.empty()) {
        SimOptions warm;
        warm.legacyStep = cfg.simOptions.legacyStep;
        for (unsigned w = 0; w < cfg.warmupRuns; ++w) {
            stack.trainer->restart();
            runCore(machine, trace, *stack.steering, *stack.scheduling,
                    stack.trainer.get(), warm, role);
        }
    }
    stack.trainer->restart();
    return stack;
}

/** Mirrors runPolicyCell (no regions, no oracle) -> runPolicy. */
AggregateResult
TracedRun::policyJob(const Trace &trace, const MachineConfig &machine,
                     PolicyKind kind, const ExperimentConfig &cfg)
{
    if (cfg.adaptive.enabled || cfg.verify.oracle || cfg.regions > 0)
        CSIM_FATAL("traced composition mirrors neither adaptive, "
                   "oracle nor region-sampled policy cells");
    PolicyStack stack =
        warmedStack(trace, machine, kind, cfg, CoreRole::Warmup);

    std::unique_ptr<PipelineChecker> checker;
    std::unique_ptr<IntervalProfiler> profiler;
    SimOptions options = cfg.simOptions;
    if (cfg.verify.checker) {
        PipelineCheckerOptions copt;
        copt.panicOnViolation = cfg.verify.panicOnViolation;
        checker = std::make_unique<PipelineChecker>(machine, trace, copt);
        options.checker = checker.get();
    }
    if (cfg.profile.enabled) {
        IntervalProfilerOptions popt;
        popt.intervalCycles = cfg.profile.intervalCycles;
        profiler =
            std::make_unique<IntervalProfiler>(machine, trace, popt);
        options.observers.push_back(profiler.get());
    }

    CoreRun run = runCore(machine, trace, *stack.steering,
                          *stack.scheduling, stack.trainer.get(), options,
                          CoreRole::Measured);
    if (checker || profiler)
        tally_.observedCore.add(run.ns, trace.size());
    if (profiler && cfg.profile.scoreCriticality)
        tally_.critScore.add(spanned("obs.crit_score", [&] {
            scoreCriticality(trace, run.sim, machine, cfg.trainChunk);
        }), trace.size());
    if (checker) {
        VerifyReport audit;
        tally_.audit.add(spanned("verify.audit", [&] {
            audit = auditTiming(trace, run.sim.timing, machine);
        }), trace.size());
        if (!audit.ok() && cfg.verify.panicOnViolation)
            CSIM_PANIC_F("post-run audit (%s, %s): %s",
                         machine.name().c_str(), policyName(kind),
                         audit.firstDetail.c_str());
    }

    CpBreakdown breakdown;
    tally_.analyze.add(spanned("critpath.analyze", [&] {
        breakdown = analyzeFullRun(trace, run.sim, machine);
    }), trace.size());
    return toAggregate(run.sim.instructions, run.sim.cycles, breakdown,
                       run.sim.globalValues, run.sim.stats);
}

/** Mirrors runIdealCell. */
AggregateResult
TracedRun::idealJob(const Trace &trace, const MachineConfig &machine,
                    ListSchedOptions::Priority priority)
{
    if (priority != ListSchedOptions::Priority::DataflowHeight)
        CSIM_FATAL("traced composition mirrors only dataflow-height "
                   "ideal cells");
    UnifiedSteering steering(UnifiedSteeringOptions{}, nullptr, nullptr);
    AgeScheduling age;
    CoreRun ref = runCore(MachineConfig::monolithic(), trace, steering,
                          age, nullptr, SimOptions{}, CoreRole::Reference);
    ListSchedOptions opts;
    opts.priority = priority;
    ListSchedResult sched;
    tally_.listsched.add(spanned("listsched.schedule", [&] {
        sched = listSchedule(trace, ref.sim.timing, machine, opts);
    }), trace.size());
    return toAggregate(sched.instructions, sched.cycles, CpBreakdown{},
                       sched.globalValues, ref.sim.stats);
}

/**
 * The same job with no observer attached, so the observers' cost can be
 * read as the difference. Its cycles must equal the observed run's.
 */
void
TracedRun::bareRerun(const Trace &trace, const MachineConfig &machine,
                     PolicyKind kind, const ExperimentConfig &cfg,
                     std::uint64_t expectCycles)
{
    SpanScope span(tracer_, "obs.bare_rerun", true);
    PolicyStack stack =
        warmedStack(trace, machine, kind, cfg, CoreRole::Discard);
    SimOptions bare = cfg.simOptions;
    bare.checker = nullptr;
    bare.observers.clear();
    CoreRun run = runCore(machine, trace, *stack.steering,
                          *stack.scheduling, stack.trainer.get(), bare,
                          CoreRole::Bare);
    if (run.sim.cycles != expectCycles)
        ++tally_.bareMismatches;
    tally_.bareRerunNs += span.close();
}

/** TraceCache workloads: build every input trace stage by stage (the
 *  passes of buildAnnotatedTrace), then run the sweep's jobs in job
 *  order and merge them as SweepRunner does. */
RepOutcome
TracedRun::cacheRep()
{
    RepOutcome out;
    std::map<std::pair<std::string, std::uint64_t>,
             std::shared_ptr<const Trace>> traces;
    {
        SpanScope setup(tracer_, "setup", false);
        for (const auto &[proxy, seed] : plan_.traces) {
            SpanScope build(tracer_, "trace.build", false);
            tracer_.arg(build.id(), "seed", static_cast<double>(seed));
            WorkloadConfig wcfg;
            wcfg.targetInstructions = plan_.spec.cfg.instructions;
            wcfg.seed = seed;
            auto trace = std::make_shared<Trace>();
            std::uint64_t ns = spanned("emu.emulate", [&] {
                *trace = buildWorkloadTrace(proxy, wcfg);
            });
            const std::uint64_t n = trace->size();
            stage(tally_.emulate, ns, n);
            stage(tally_.link, spanned("trace.link", [&] {
                trace->linkProducers();
            }), n);
            stage(tally_.branch, spanned("frontend.annotate", [&] {
                annotateBranches(*trace, 16);
            }), n);
            stage(tally_.mem, spanned("mem.annotate", [&] {
                annotateMemory(*trace, MemoryModelConfig{});
            }), n);
            stage(tally_.soa, spanned("trace.soa_build", [&] {
                (void)trace->soa();
            }), n);
            traces.emplace(std::make_pair(proxy, seed), std::move(trace));
        }
        const std::uint64_t ns = setup.close();
        tally_.setupNs += ns;
        out.setupSeconds = static_cast<double>(ns) / 1e9;
    }

    SpanScope simulate(tracer_, "simulate", false);
    const SweepSpec &spec = plan_.spec;
    out.cells.resize(spec.cells.size());
    for (std::size_t c = 0; c < spec.cells.size(); ++c) {
        const SweepCell &cell = spec.cells[c];
        const ExperimentConfig &cfg = spec.cellConfig(c);
        for (std::uint64_t seed : cfg.seeds) {
            const Trace &trace = *traces.at({cell.workload, seed});
            tracer_.enterJob(cell.label() + "@" + std::to_string(seed));
            AggregateResult res;
            {
                SpanScope job(tracer_, "job", false);
                res = cell.mode == CellMode::Timing
                    ? policyJob(trace, cell.machine, cell.policy, cfg)
                    : idealJob(trace, cell.machine, cell.priority);
                tally_.jobMs.push_back(
                    static_cast<double>(job.close()) / 1e6);
            }
            if (cell.mode == CellMode::Timing &&
                (cfg.verify.checker || cfg.profile.enabled))
                bareRerun(trace, cell.machine, cell.policy, cfg,
                          res.cycles);
            tracer_.leaveJob();
            out.cells[c].merge(res);
        }
    }
    out.simSeconds = static_cast<double>(simulate.close()) / 1e9;
    return out;
}

/** store_stream: the stages of buildTraceStoreFile, loadTraceStore,
 *  then the region loop of runRegionSampledCell. */
RepOutcome
TracedRun::storeRep()
{
    const StorePlan &s = plan_.store;
    RepOutcome out;
    const std::string path = tmpdir_ + "/traced_" +
        std::to_string(::getpid()) + ".trc2";
    TraceSoA soa;
    {
        SpanScope setup(tracer_, "setup", false);
        {
            SpanScope build(tracer_, "trace.store_build", false);
            WorkloadConfig wcfg;
            wcfg.targetInstructions = s.instructions;
            wcfg.seed = plan_.seed;
            PreparedWorkload w;
            stage(tally_.emulate, spanned("emu.emulate", [&] {
                w = workloadPreparer(s.proxy)(wcfg);
            }), 0);
            TraceStoreWriter writer(path, wcfg.targetInstructions);
            const MemoryModelConfig mem;
            StreamingProducerLinker linker;
            GsharePredictor pred(16);
            Cache l1(mem.l1);
            constexpr std::uint64_t chunkInstructions = 1u << 16;
            std::uint64_t written = 0;
            while (written < wcfg.targetInstructions &&
                   !w.emulator->done()) {
                const std::uint64_t want = std::min(
                    chunkInstructions, wcfg.targetInstructions - written);
                Trace chunk;
                std::uint64_t got = 0;
                const std::uint64_t ns = spanned("emu.emulate", [&] {
                    got = w.emulator->runChunk(chunk, want);
                });
                stage(tally_.emulate, ns, got);
                if (got == 0)
                    break;
                stage(tally_.link, spanned("trace.link", [&] {
                    linker.link(chunk, written);
                }), got);
                stage(tally_.branch, spanned("frontend.annotate", [&] {
                    annotateBranches(chunk, pred);
                }), got);
                stage(tally_.mem, spanned("mem.annotate", [&] {
                    annotateMemory(chunk, l1, mem);
                }), got);
                bool ok = false;
                stage(tally_.storeWrite, spanned("trace.store_write", [&] {
                    ok = writer.append(chunk);
                }), got);
                if (!ok)
                    CSIM_FATAL_F("store write failed: %s", path.c_str());
                written += got;
            }
            bool ok = false;
            stage(tally_.storeWrite, spanned("trace.store_write", [&] {
                ok = writer.finalize();
            }), 0);
            if (!ok)
                CSIM_FATAL_F("store finalize failed: %s", path.c_str());
        }
        TraceIoStatus status = TraceIoStatus::Ok;
        stage(tally_.storeLoad, spanned("trace.store_load", [&] {
            status = loadTraceStore(soa, path);
        }), 1);
        if (status != TraceIoStatus::Ok)
            CSIM_FATAL_F("store load failed: %s", traceIoStatusName(status));
        const std::uint64_t ns = setup.close();
        tally_.setupNs += ns;
        out.setupSeconds = static_cast<double>(ns) / 1e9;
    }

    SpanScope simulate(tracer_, "simulate", false);
    const ExperimentConfig &cfg = s.cfg;
    ExperimentConfig rcfg = cfg;
    rcfg.regions = 0;
    rcfg.simOptions.phases.clear();
    if (cfg.regionWarmup > 0)
        rcfg.simOptions.phases.push_back(
            PhaseSpec{"warmup", cfg.regionWarmup, true});
    rcfg.simOptions.phases.push_back(PhaseSpec{"measure", 0, false});
    const std::uint64_t span = cfg.regionWarmup + cfg.regionLen;
    const std::uint64_t stride = soa.size() / cfg.regions;
    AggregateResult agg;
    for (std::uint64_t r = 0; r < cfg.regions; ++r) {
        tracer_.enterJob(s.label + "@" + std::to_string(plan_.seed) +
                         "#" + std::to_string(r));
        SpanScope job(tracer_, "job", false);
        Trace region;
        tally_.extract.add(spanned("trace.extract", [&] {
            region = extractRegion(soa, r * stride, span);
        }), span);
        tally_.soa.add(spanned("trace.soa_build", [&] {
            (void)region.soa();
        }), region.size());
        ExperimentConfig cell_cfg = rcfg;
        std::vector<PhaseSpec> &phases = cell_cfg.simOptions.phases;
        if (cfg.regionWarmup > 0 &&
            phases.front().instructions >= region.size())
            phases.front().instructions =
                region.size() > 1 ? region.size() - 1 : 0;
        if (phases.front().instructions == 0 && phases.size() > 1)
            phases.erase(phases.begin());
        agg.merge(policyJob(region, s.machine, s.policy, cell_cfg));
        tally_.jobMs.push_back(static_cast<double>(job.close()) / 1e6);
        tracer_.leaveJob();
    }
    out.simSeconds = static_cast<double>(simulate.close()) / 1e9;
    out.cells.push_back(std::move(agg));
    soa = TraceSoA();
    std::remove(path.c_str());
    return out;
}

std::vector<std::pair<std::string, double>>
TracedRun::metrics(double e2eWallSeconds, const CacheSample &cache) const
{
    const LayerTally &t = tally_;
    std::vector<double> jobs = t.jobMs;
    std::sort(jobs.begin(), jobs.end());
    const double reps = static_cast<double>(std::max<std::uint64_t>(
        t.reps, 1));
    // The bare reruns are extra measurement work, not part of the
    // traced composition of the end-to-end rep.
    const double traced_wall =
        static_cast<double>(t.repNs - t.bareRerunNs) / reps / 1e9;
    return {
        {"emu.emulate.ns_per_inst", t.emulate.per()},
        {"trace.link.ns_per_inst", t.link.per()},
        {"frontend.annotate.ns_per_inst", t.branch.per()},
        {"mem.annotate.ns_per_inst", t.mem.per()},
        {"trace.store_write.ns_per_inst", t.storeWrite.per()},
        {"trace.store_load.ms", t.storeLoad.per() / 1e6},
        {"setup.stage_overlap",
         ratio(static_cast<double>(t.stageNs),
               static_cast<double>(t.setupNs))},
        {"trace.soa_build.ns_per_inst", t.soa.per()},
        {"harness.cache.bytes_per_inst", cache.bytesPerInst},
        {"core.self.ns_per_inst",
         ratio(static_cast<double>(t.core.ns - t.coreChildNs),
               static_cast<double>(t.core.n))},
        {"core.warmup_share",
         ratio(static_cast<double>(t.warmupNs),
               static_cast<double>(t.core.ns))},
        {"core.skip_frac",
         ratio(static_cast<double>(t.skipCycles),
               static_cast<double>(t.cycles))},
        {"policy.steer.ns_per_call", t.steer.per()},
        {"policy.steer.calls_per_inst",
         ratio(static_cast<double>(t.steer.n),
               static_cast<double>(t.core.n))},
        {"policy.sched.ns_per_call", t.sched.per()},
        {"critpath.train.ns_per_inst", t.train.per()},
        {"critpath.analyze.ns_per_inst", t.analyze.per()},
        {"listsched.schedule.ns_per_inst", t.listsched.per()},
        {"trace.extract.ns_per_inst", t.extract.per()},
        {"obs.observers.ns_per_inst",
         ratio(static_cast<double>(t.observedCore.ns) -
                   static_cast<double>(t.bareCore.ns),
               static_cast<double>(t.observedCore.n))},
        {"verify.audit.ns_per_inst", t.audit.per()},
        {"obs.crit_score.ns_per_inst", t.critScore.per()},
        {"harness.cache.hit_ratio", cache.hitRatio},
        {"harness.job_ms.p50", percentile(jobs, 0.5)},
        {"harness.job_ms.p90", percentile(jobs, 0.9)},
        {"harness.untraced_frac",
         ratio(static_cast<double>(t.repNs - tracer_.coveredNs()),
               static_cast<double>(t.repNs))},
        {"trace.overhead_frac", ratio(traced_wall, e2eWallSeconds) - 1.0},
    };
}

} // namespace bench
