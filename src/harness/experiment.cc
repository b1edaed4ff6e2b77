#include "harness/experiment.hh"

#include <algorithm>
#include <memory>
#include <sstream>

#include "common/fnv.hh"
#include "common/logging.hh"
#include "harness/trace_cache.hh"
#include "obs/host_prof.hh"
#include "trace/trace_store.hh"
#include "policy/extra_steering.hh"
#include "policy/scheduling.hh"
#include "policy/steering.hh"
#include "verify/oracle.hh"
#include "verify/pipeline_checker.hh"

namespace csim {

const char *
policyName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::ModN: return "mod-n";
      case PolicyKind::LoadBal: return "load-balance";
      case PolicyKind::Dep: return "dependence";
      case PolicyKind::Focused: return "focused";
      case PolicyKind::FocusedLoc: return "focused+loc";
      case PolicyKind::FocusedLocStall: return "focused+loc+stall";
      case PolicyKind::FocusedLocStallProactive:
        return "focused+loc+stall+proactive";
      case PolicyKind::ActiveClusters: return "active-clusters";
      default:
        CSIM_PANIC("policyName: bad kind");
    }
}

std::string
configDigest(const ExperimentConfig &cfg)
{
    std::ostringstream os;
    os << "inst=" << cfg.instructions << ";seeds=";
    for (std::uint64_t seed : cfg.seeds)
        os << seed << ',';
    os << ";warm=" << cfg.warmupRuns << ";chunk=" << cfg.trainChunk
       << ";stall=" << cfg.stallThreshold << ";loc=" << cfg.locLevels
       << ";sim=" << cfg.simOptions.collectIlp << ','
       << cfg.simOptions.legacyStep << ','
       << cfg.simOptions.ilpMaxAvailable << ','
       << cfg.simOptions.maxCpi << ";phases=";
    for (const PhaseSpec &phase : cfg.simOptions.phases)
        os << phase.name << ':' << phase.instructions << ':'
           << phase.isWarmup << ',';
    os << ";verify=" << cfg.verify.checker << ',' << cfg.verify.oracle
       << ',' << cfg.verify.oracleRelTol << ','
       << cfg.verify.panicOnViolation
       << ";profile=" << cfg.profile.enabled << ','
       << cfg.profile.intervalCycles << ','
       << cfg.profile.scoreCriticality
       << ";regions=" << cfg.regions << ',' << cfg.regionLen << ','
       << cfg.regionWarmup;
    return fnvHex(fnv1a64(os.str()));
}

namespace {

/** Everything a policy stack owns for one trace's runs. */
struct PolicyStack
{
    std::unique_ptr<CriticalityPredictor> critPred;
    std::unique_ptr<LocPredictor> locPred;
    std::unique_ptr<OnlineCriticalityTrainer> trainer;
    std::unique_ptr<SteeringPolicy> steering;
    std::unique_ptr<SchedulingPolicy> scheduling;
};

PolicyStack
makeStack(const Trace &trace, PolicyKind kind,
          const ExperimentConfig &cfg)
{
    PolicyStack s;
    switch (kind) {
      case PolicyKind::ModN:
        s.steering = std::make_unique<ModNSteering>();
        s.scheduling = std::make_unique<AgeScheduling>();
        break;
      case PolicyKind::LoadBal:
        s.steering = std::make_unique<LoadBalanceSteering>();
        s.scheduling = std::make_unique<AgeScheduling>();
        break;
      case PolicyKind::ActiveClusters:
        s.steering = std::make_unique<AdaptiveClusterSteering>();
        s.scheduling = std::make_unique<AgeScheduling>();
        break;
      case PolicyKind::Dep:
        s.steering = std::make_unique<UnifiedSteering>(
            UnifiedSteeringOptions{}, nullptr, nullptr);
        s.scheduling = std::make_unique<AgeScheduling>();
        break;
      case PolicyKind::Focused: {
        s.critPred = std::make_unique<CriticalityPredictor>();
        UnifiedSteeringOptions opt;
        opt.focusOnCritical = true;
        s.steering = std::make_unique<UnifiedSteering>(
            opt, s.critPred.get(), nullptr);
        s.scheduling =
            std::make_unique<CriticalScheduling>(*s.critPred);
        s.trainer = std::make_unique<OnlineCriticalityTrainer>(
            trace, s.critPred.get(), nullptr, cfg.trainChunk);
        break;
      }
      case PolicyKind::FocusedLoc:
      case PolicyKind::FocusedLocStall:
      case PolicyKind::FocusedLocStallProactive: {
        s.critPred = std::make_unique<CriticalityPredictor>();
        LocPredictor::Params loc_params;
        loc_params.levels = cfg.locLevels;
        s.locPred = std::make_unique<LocPredictor>(loc_params);
        UnifiedSteeringOptions opt;
        opt.focusOnCritical = true;
        opt.stallOverSteer = kind != PolicyKind::FocusedLoc;
        opt.stallThreshold = cfg.stallThreshold;
        opt.proactiveLB =
            kind == PolicyKind::FocusedLocStallProactive;
        s.steering = std::make_unique<UnifiedSteering>(
            opt, s.critPred.get(), s.locPred.get());
        s.scheduling = std::make_unique<LocScheduling>(*s.locPred);
        s.trainer = std::make_unique<OnlineCriticalityTrainer>(
            trace, s.critPred.get(), s.locPred.get(), cfg.trainChunk);
        break;
      }
      default:
        CSIM_PANIC("makeStack: bad kind");
    }
    return s;
}

/**
 * Score the steer-time criticality snapshots against the chunked
 * depgraph ground truth and fold the tallies into the run's stats as
 * profiler.crit.* (counters sum across seeds; the rate formulas
 * seed-average, matching every other formula in the registry).
 */
void
scoreCriticalityPredictions(const Trace &trace, SimResult &result,
                            const MachineConfig &machine,
                            std::uint64_t chunk_size)
{
    const std::vector<bool> truth =
        criticalityGroundTruth(trace, result, machine, chunk_size);
    std::uint64_t tp = 0, fp = 0, fn = 0, tn = 0;
    const std::size_t n =
        std::min(truth.size(), result.timing.size());
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

} // anonymous namespace

PolicyRun
runPolicy(const Trace &trace, const MachineConfig &machine,
          PolicyKind kind, const ExperimentConfig &cfg)
{
    PolicyStack stack = makeStack(trace, kind, cfg);

    // Warmup passes train the predictors across the whole trace.
    // They honor legacyStep so a dense reference run is dense end to
    // end, but carry no observers or collection options: training
    // must see the same machine either way. With phases configured
    // the in-run warmup phase takes over this job
    // (training runs during the whole measured pass anyway), so the
    // discarded full passes — previously the dominant cost of a
    // warmed cell — are skipped entirely.
    if (stack.trainer && cfg.simOptions.phases.empty()) {
        HOST_PROF_SCOPE("harness.warmup");
        SimOptions warm_options;
        warm_options.legacyStep = cfg.simOptions.legacyStep;
        for (unsigned w = 0; w < cfg.warmupRuns; ++w) {
            stack.trainer->restart();
            TimingSim warm(machine, trace, *stack.steering,
                           *stack.scheduling, stack.trainer.get(),
                           warm_options);
            (void)warm.run();
        }
    }

    if (stack.trainer)
        stack.trainer->restart();

    // The checker and profiler are per-run local state: sweep cells
    // run on worker threads, so they cannot live in the (shared)
    // config.
    std::unique_ptr<PipelineChecker> checker;
    std::unique_ptr<IntervalProfiler> profiler;
    SimOptions sim_options = cfg.simOptions;
    if (cfg.verify.checker) {
        PipelineCheckerOptions copt;
        copt.panicOnViolation = cfg.verify.panicOnViolation;
        checker =
            std::make_unique<PipelineChecker>(machine, trace, copt);
        sim_options.checker = checker.get();
    }
    if (cfg.profile.enabled) {
        IntervalProfilerOptions popt;
        popt.intervalCycles = cfg.profile.intervalCycles;
        profiler =
            std::make_unique<IntervalProfiler>(machine, trace, popt);
        sim_options.observers.push_back(profiler.get());
    }

    TimingSim sim(machine, trace, *stack.steering, *stack.scheduling,
                  stack.trainer.get(), sim_options);
    PolicyRun out;
    out.sim = sim.run();
    out.skipSpans = sim.skipSpans();
    out.skipCycles = sim.skipCycles();
    if (profiler) {
        out.intervals = profiler->takeSeries();
        if (cfg.profile.scoreCriticality)
            scoreCriticalityPredictions(trace, out.sim, machine,
                                        cfg.trainChunk);
    }

    if (checker) {
        // Second opinion over the final timing records; also what the
        // live hooks cannot see (e.g. instructions never committed).
        const VerifyReport audit =
            auditTiming(trace, out.sim.timing, machine);
        if (!audit.ok() && cfg.verify.panicOnViolation)
            CSIM_PANIC_F("post-run audit (%s, %s): %s",
                         machine.name().c_str(), policyName(kind),
                         audit.firstDetail.c_str());
        out.checkerViolations =
            checker->violations() + audit.violations();
        out.checkerDetail = checker->report().firstDetail.empty()
            ? audit.firstDetail : checker->report().firstDetail;
    }

    {
        HOST_PROF_SCOPE("critpath.analyze");
        out.breakdown = analyzeFullRun(trace, out.sim, machine);
    }
    return out;
}

void
AggregateResult::merge(const AggregateResult &other)
{
    instructions += other.instructions;
    cycles += other.cycles;
    for (std::size_t c = 0; c < numCpCategories; ++c)
        categoryCycles[c] += other.categoryCycles[c];
    contentionEventsCritical += other.contentionEventsCritical;
    contentionEventsOther += other.contentionEventsOther;
    fwdEventsLoadBal += other.fwdEventsLoadBal;
    fwdEventsDyadic += other.fwdEventsDyadic;
    fwdEventsOther += other.fwdEventsOther;
    globalValues += other.globalValues;
    stats.merge(other.stats);
    intervals.merge(other.intervals);

    // Like-shaped phase lists (every seed/region runs the same specs)
    // fold elementwise; anything else concatenates, which keeps the
    // merge total even for heterogeneous inputs.
    auto sameShape = [&] {
        if (phases.size() != other.phases.size())
            return false;
        for (std::size_t i = 0; i < phases.size(); ++i)
            if (phases[i].name != other.phases[i].name ||
                phases[i].isWarmup != other.phases[i].isWarmup)
                return false;
        return true;
    };
    if (phases.empty()) {
        phases = other.phases;
    } else if (sameShape()) {
        for (std::size_t i = 0; i < phases.size(); ++i) {
            phases[i].instructions += other.phases[i].instructions;
            phases[i].cycles += other.phases[i].cycles;
            phases[i].stats.merge(other.phases[i].stats);
        }
    } else {
        phases.insert(phases.end(), other.phases.begin(),
                      other.phases.end());
    }
}

namespace {

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

/**
 * The per-seed aggregation loop shared by runAggregate and
 * runIdealAggregate: build (or fetch) each seed's trace and merge the
 * per-seed cell results in seed order.
 */
template <typename PerSeed>
AggregateResult
aggregateOverSeeds(const std::string &workload,
                   const ExperimentConfig &cfg, TraceCache *cache,
                   PerSeed &&per_seed)
{
    AggregateResult agg;
    for (std::uint64_t seed : cfg.seeds) {
        WorkloadConfig wcfg;
        wcfg.targetInstructions = cfg.instructions;
        wcfg.seed = seed;
        if (cache) {
            std::shared_ptr<const Trace> trace =
                cache->get(workload, wcfg);
            agg.merge(per_seed(*trace));
        } else {
            Trace trace = buildSimulationTrace(workload, wcfg);
            agg.merge(per_seed(trace));
        }
    }
    return agg;
}

/**
 * Differential CPI oracle over one finished cell (ISSUE: a timing run
 * that beats an idealized model is miscounting cycles). Bound
 * violations are always fatal here — this path exists for CI and the
 * property tests; the fuzzer composes the src/verify helpers itself
 * so it can collect a reproducer instead of dying.
 */
void
checkCellOracle(const Trace &trace, const MachineConfig &machine,
                PolicyKind kind, const ExperimentConfig &cfg,
                std::uint64_t instructions, std::uint64_t cycles)
{
    const double cpi = instructions ?
        static_cast<double>(cycles) /
        static_cast<double>(instructions) : 0.0;

    // The bounding runs must not recurse into verification.
    ExperimentConfig bound_cfg = cfg;
    bound_cfg.verify = VerifyConfig{};

    OracleCheck floor = checkCpiFloor(cpi, machine);
    if (!floor.ok)
        CSIM_FATAL_F("%s (%s, %s)", floor.detail.c_str(),
                     machine.name().c_str(), policyName(kind));

    AggregateResult ideal = runIdealCell(trace, machine, bound_cfg);
    OracleCheck vs_ideal =
        checkCpiLowerBound(cpi, ideal.cpi(), cfg.verify.oracleRelTol,
                           "ideal list scheduler");
    if (!vs_ideal.ok)
        CSIM_FATAL_F("%s (%s, %s)", vs_ideal.detail.c_str(),
                     machine.name().c_str(), policyName(kind));

    // Clustering can only cost cycles against the same policy on a
    // machine owning the summed resources with free bypass.
    if (machine.numClusters > 1) {
        PolicyRun env = runPolicy(trace, monolithicEnvelope(machine),
                                  kind, bound_cfg);
        const double env_cpi = env.sim.instructions ?
            static_cast<double>(env.sim.cycles) /
            static_cast<double>(env.sim.instructions) : 0.0;
        OracleCheck vs_env = checkCpiLowerBound(
            cpi, env_cpi, cfg.verify.oracleRelTol,
            "monolithic-envelope");
        if (!vs_env.ok)
            CSIM_FATAL_F("%s (%s, %s)", vs_env.detail.c_str(),
                         machine.name().c_str(), policyName(kind));
    }
}

} // anonymous namespace

/**
 * Region-sampled evaluation of one cell: K evenly spaced regions are
 * carved out of the column view, each rebased into a standalone
 * (wellFormed) mini-trace and simulated with a warmup/measure phase
 * pair. Region results merge in region order — the same deterministic
 * fold as the seed loop — so the output is identical at any sweep
 * thread count.
 */
AggregateResult
runRegionSampledCell(const TraceSoA &soa, const MachineConfig &machine,
                     PolicyKind kind, const ExperimentConfig &cfg)
{
    // User-facing configuration errors (these values arrive straight
    // from --regions/--region-len/--warmup), so reject them with the
    // same fatal strictness parseThreadCount applies, not an assert.
    const std::uint64_t n = soa.size();
    const std::uint64_t k = cfg.regions;
    if (cfg.regionLen == 0)
        CSIM_FATAL_F("region sampling: region length must be >= 1 "
                     "(got %llu)",
                     static_cast<unsigned long long>(cfg.regionLen));
    if (k < 1 || k > n)
        CSIM_FATAL_F("region sampling: region count %llu out of range "
                     "[1, %llu] for a %llu-instruction store",
                     static_cast<unsigned long long>(k),
                     static_cast<unsigned long long>(n),
                     static_cast<unsigned long long>(n));
    // Spacing soundness: k regions of span (warmup + len) starting at
    // multiples of floor(n / k) neither overlap nor run off the end
    // iff k * span <= n (then span <= floor(n / k) exactly). Anything
    // larger would silently overlap regions or degenerate the tail,
    // double-counting instructions in the merged phases.
    if (cfg.regionWarmup + cfg.regionLen > n / k)
        CSIM_FATAL_F("region sampling: %llu regions x (%llu warmup + "
                     "%llu measured) = %llu instructions exceed the "
                     "%llu-instruction store; shrink --regions, "
                     "--region-len or --warmup",
                     static_cast<unsigned long long>(k),
                     static_cast<unsigned long long>(cfg.regionWarmup),
                     static_cast<unsigned long long>(cfg.regionLen),
                     static_cast<unsigned long long>(
                         k * (cfg.regionWarmup + cfg.regionLen)),
                     static_cast<unsigned long long>(n));

    // The recursive per-region config: sampling off, phases on.
    ExperimentConfig rcfg = cfg;
    rcfg.regions = 0;
    rcfg.simOptions.phases.clear();
    if (cfg.regionWarmup > 0)
        rcfg.simOptions.phases.push_back(
            PhaseSpec{"warmup", cfg.regionWarmup, true});
    rcfg.simOptions.phases.push_back(PhaseSpec{"measure", 0, false});

    const std::uint64_t span = cfg.regionWarmup + cfg.regionLen;
    const std::uint64_t stride = n / k;
    AggregateResult agg;
    for (std::uint64_t r = 0; r < k; ++r) {
        // Evenly spaced starts; extractRegion clamps a tail region
        // that would run past the end of the trace.
        const std::uint64_t base = r * stride;
        Trace region = extractRegion(soa, base, span);
        // A clamped tail region may be shorter than the warmup quota;
        // trim the warmup so the phase budget stays valid (the
        // measured phase then sees whatever remains).
        ExperimentConfig cell_cfg = rcfg;
        if (cfg.regionWarmup > 0 &&
            cell_cfg.simOptions.phases.front().instructions >=
                region.size())
            cell_cfg.simOptions.phases.front().instructions =
                region.size() > 1 ? region.size() - 1 : 0;
        if (cell_cfg.simOptions.phases.front().instructions == 0 &&
            cell_cfg.simOptions.phases.size() > 1)
            cell_cfg.simOptions.phases.erase(
                cell_cfg.simOptions.phases.begin());
        agg.merge(runPolicyCell(region, machine, kind, cell_cfg));
    }
    return agg;
}

AggregateResult
runPolicyCell(const Trace &trace, const MachineConfig &machine,
              PolicyKind kind, const ExperimentConfig &cfg,
              const std::function<void(const PolicyRun &)> &inspect)
{
    if (cfg.regions > 0)
        return runRegionSampledCell(trace.soa(), machine, kind, cfg);

    PolicyRun run = runPolicy(trace, machine, kind, cfg);
    // The differential oracle compares whole-trace CPIs; a phased
    // run's top-level CPI covers only the measured phases, so the
    // comparison is no longer apples-to-apples and is skipped.
    if (cfg.verify.oracle && cfg.simOptions.phases.empty()) {
        HOST_PROF_SCOPE("verify.oracle");
        checkCellOracle(trace, machine, kind, cfg,
                        run.sim.instructions, run.sim.cycles);
    }
    if (inspect)
        inspect(run);
    AggregateResult agg =
        toAggregate(run.sim.instructions, run.sim.cycles,
                    run.breakdown, run.sim.globalValues,
                    run.sim.stats);
    agg.intervals = std::move(run.intervals);
    agg.phases = std::move(run.sim.phases);
    return agg;
}

AggregateResult
runIdealCell(const Trace &trace, const MachineConfig &machine,
             const ExperimentConfig &cfg,
             ListSchedOptions::Priority priority)
{
    const MachineConfig ref = MachineConfig::monolithic();

    // Reference 1x8w run supplies the dispatch constraints (the
    // paper schedules traces retiring from the 1x8w back end).
    UnifiedSteering steering(UnifiedSteeringOptions{}, nullptr,
                             nullptr);
    AgeScheduling age;
    SimResult ref_run = TimingSim(ref, trace, steering, age).run();

    ListSchedOptions opts;
    opts.priority = priority;

    // The non-oracle priorities need trained predictors: train
    // them with a focused run on the reference machine.
    CriticalityPredictor crit;
    LocPredictor loc;
    if (priority != ListSchedOptions::Priority::DataflowHeight) {
        OnlineCriticalityTrainer trainer(trace, &crit, &loc,
                                         cfg.trainChunk);
        UnifiedSteeringOptions fopt;
        fopt.focusOnCritical = true;
        UnifiedSteering fsteer(fopt, &crit, nullptr);
        CriticalScheduling fsched(crit);
        TimingSim train_sim(ref, trace, fsteer, fsched, &trainer);
        (void)train_sim.run();
        opts.locPred = &loc;
        opts.critPred = &crit;
    }

    ListSchedResult sched = [&] {
        HOST_PROF_SCOPE("listsched.schedule");
        return listSchedule(trace, ref_run.timing, machine, opts);
    }();
    CpBreakdown empty;
    // The list scheduler has no registry of its own; keep the
    // reference run's snapshot so ideal cells still carry stats.
    return toAggregate(sched.instructions, sched.cycles, empty,
                       sched.globalValues, ref_run.stats);
}

AggregateResult
runAggregate(const std::string &workload, const MachineConfig &machine,
             PolicyKind kind, const ExperimentConfig &cfg,
             TraceCache *cache)
{
    return aggregateOverSeeds(
        workload, cfg, cache, [&](const Trace &trace) {
            return runPolicyCell(trace, machine, kind, cfg);
        });
}

AggregateResult
runIdealAggregate(const std::string &workload,
                  const MachineConfig &machine,
                  const ExperimentConfig &cfg,
                  ListSchedOptions::Priority priority,
                  TraceCache *cache)
{
    return aggregateOverSeeds(
        workload, cfg, cache, [&](const Trace &trace) {
            return runIdealCell(trace, machine, cfg, priority);
        });
}

} // namespace csim
