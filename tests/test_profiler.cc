/**
 * @file
 * Interval-profiler tests: the components-sum-to-cycles invariant on
 * every interval of every tested (workload x clusters x policy) cell,
 * event-count conservation against the run totals, the profiler.*
 * registry entries and criticality-scoring telemetry, composition with
 * the pipeline checker on one observer chain, byte-identical interval
 * aggregates across sweep thread counts, the Chrome trace-event
 * emitter's structure, prefix-filtered snapshots, and the schema-v3
 * "intervals" emission through BenchContext.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/timing_sim.hh"
#include "harness/json_report.hh"
#include "harness/sweep.hh"
#include "obs/chrome_trace.hh"
#include "obs/interval_profiler.hh"
#include "policy/scheduling.hh"
#include "policy/steering.hh"

namespace csim {
namespace {

ExperimentConfig
profiledConfig(std::uint64_t interval_cycles = 500)
{
    ExperimentConfig cfg;
    cfg.instructions = 4000;
    cfg.seeds = {1, 2};
    cfg.profile.enabled = true;
    cfg.profile.intervalCycles = interval_cycles;
    return cfg;
}

Trace
buildSmallTrace(const std::string &workload, std::uint64_t seed,
                std::uint64_t instructions = 4000)
{
    WorkloadConfig wcfg;
    wcfg.targetInstructions = instructions;
    wcfg.seed = seed;
    return buildAnnotatedTrace(workload, wcfg);
}

/** Every structural invariant one profiled run must satisfy. */
void
checkSeries(const IntervalSeries &series, const SimResult &sim,
            const MachineConfig &machine, std::uint64_t interval_cycles)
{
    ASSERT_FALSE(series.empty());
    EXPECT_EQ(series.intervalCycles, interval_cycles);
    EXPECT_EQ(series.clusterIssueWidth, machine.cluster.issueWidth);
    EXPECT_EQ(series.windowPerCluster, machine.windowPerCluster);

    std::uint64_t cycles = 0, commits = 0, steers = 0, issued = 0;
    for (std::size_t i = 0; i < series.records.size(); ++i) {
        const IntervalRecord &rec = series.records[i];
        // The tentpole invariant: the CPI stack partitions the
        // interval's cycles exactly.
        EXPECT_EQ(rec.componentSum(), rec.cycles)
            << "interval " << i;
        EXPECT_EQ(rec.startCycle, i * interval_cycles);
        const bool last = i + 1 == series.records.size();
        if (!last) {
            EXPECT_EQ(rec.cycles, interval_cycles);
        }
        EXPECT_LE(rec.cycles, interval_cycles);
        ASSERT_EQ(rec.clusters.size(), machine.numClusters);
        std::uint64_t lane_issued = 0, lane_steered = 0;
        for (const IntervalClusterLane &lane : rec.clusters) {
            lane_issued += lane.issued;
            lane_steered += lane.steered;
            EXPECT_LE(lane.occupancySum,
                      rec.cycles * machine.windowPerCluster);
        }
        EXPECT_EQ(lane_issued, rec.issued);
        EXPECT_EQ(lane_steered, rec.steers);
        cycles += rec.cycles;
        commits += rec.commits;
        steers += rec.steers;
        issued += rec.issued;
    }
    // Conservation against the run totals: every cycle, commit and
    // steer lands in exactly one interval.
    EXPECT_EQ(cycles, sim.cycles);
    EXPECT_EQ(series.totalCycles(), sim.cycles);
    EXPECT_EQ(commits, sim.instructions);
    EXPECT_EQ(steers, sim.instructions);
    EXPECT_EQ(issued, sim.instructions);
    const std::uint64_t expect_intervals =
        (sim.cycles + interval_cycles - 1) / interval_cycles;
    EXPECT_EQ(series.records.size(), expect_intervals);
}

// ---------------------------------------------------------------- //
// The tentpole invariant across machines and policies

TEST(IntervalProfiler, ComponentsSumAcrossCells)
{
    const std::vector<std::string> workloads = {"gzip", "mcf"};
    const std::vector<unsigned> cluster_counts = {1, 2, 4};
    const std::vector<PolicyKind> policies = {
        PolicyKind::ModN, PolicyKind::Dep,
        PolicyKind::FocusedLocStall};

    ExperimentConfig cfg = profiledConfig();
    cfg.seeds = {1};
    for (const std::string &wl : workloads) {
        const Trace trace = buildSmallTrace(wl, 1);
        for (unsigned n : cluster_counts) {
            const MachineConfig machine = n == 1 ?
                MachineConfig::monolithic() :
                MachineConfig::clustered(n);
            for (PolicyKind kind : policies) {
                PolicyRun run =
                    runPolicy(trace, machine, kind, cfg);
                checkSeries(run.intervals, run.sim, machine,
                            cfg.profile.intervalCycles);
            }
        }
    }
}

TEST(IntervalProfiler, SingleIntervalWhenLongerThanRun)
{
    const Trace trace = buildSmallTrace("gzip", 1);
    ExperimentConfig cfg = profiledConfig(1u << 30);
    PolicyRun run = runPolicy(trace, MachineConfig::clustered(4),
                              PolicyKind::Focused, cfg);
    ASSERT_EQ(run.intervals.records.size(), 1u);
    EXPECT_EQ(run.intervals.records[0].cycles, run.sim.cycles);
    EXPECT_EQ(run.intervals.records[0].componentSum(), run.sim.cycles);
}

TEST(IntervalProfiler, TrailingPartialIntervalOnPrimeSizes)
{
    // Prime trace lengths against prime (and unit) interval lengths:
    // the run can essentially never end on an interval boundary, so
    // the trailing interval is partial and must still close with an
    // exact components sum and full event conservation.
    const std::uint64_t prime_lengths[] = {3989, 7919};
    const std::uint64_t prime_intervals[] = {499, 997, 1};
    for (std::uint64_t n : prime_lengths) {
        const Trace trace = buildSmallTrace("gzip", 3, n);
        ASSERT_EQ(trace.size(), n);
        for (std::uint64_t iv : prime_intervals) {
            SCOPED_TRACE(testing::Message()
                         << "n=" << n << " interval=" << iv);
            ExperimentConfig cfg = profiledConfig(iv);
            cfg.instructions = n;
            cfg.seeds = {3};
            const MachineConfig machine = MachineConfig::clustered(4);
            PolicyRun run = runPolicy(trace, machine,
                                      PolicyKind::FocusedLocStall, cfg);
            checkSeries(run.intervals, run.sim, machine, iv);
            // The trailing record is the run's remainder modulo the
            // interval length (or a full record on an exact fit).
            const IntervalRecord &tail = run.intervals.records.back();
            const std::uint64_t rem = run.sim.cycles % iv;
            EXPECT_EQ(tail.cycles, rem == 0 ? iv : rem);
        }
    }
}

TEST(IntervalProfiler, EmptyRunKeepsSeriesGeometry)
{
    // A zero-instruction run returns before any observer hook fires,
    // so the series geometry cannot rely on onRunStart. A series left
    // with intervalCycles == 0 would zero-divide downstream
    // normalizers and trip the merge geometry asserts.
    const Trace empty;
    const MachineConfig machine = MachineConfig::clustered(4);
    IntervalProfilerOptions popt;
    popt.intervalCycles = 500;
    IntervalProfiler prof(machine, empty, popt);
    UnifiedSteering st(UnifiedSteeringOptions{}, nullptr, nullptr);
    AgeScheduling age;
    SimOptions opt;
    opt.observers.push_back(&prof);
    (void)TimingSim(machine, empty, st, age, nullptr, opt).run();

    const IntervalSeries series = prof.takeSeries();
    EXPECT_TRUE(series.empty());
    EXPECT_EQ(series.intervalCycles, 500u);
    EXPECT_EQ(series.clusterIssueWidth, machine.cluster.issueWidth);
    EXPECT_EQ(series.windowPerCluster, machine.windowPerCluster);

    // Merging a real profiled run into it must keep that run's
    // records intact instead of asserting on mismatched geometry.
    ExperimentConfig cfg = profiledConfig(500);
    cfg.seeds = {1};
    PolicyRun run = runPolicy(buildSmallTrace("gzip", 1),
                              MachineConfig::clustered(4),
                              PolicyKind::Focused, cfg);
    IntervalSeries merged = series;
    merged.merge(run.intervals);
    EXPECT_EQ(merged.records.size(), run.intervals.records.size());
}

TEST(IntervalProfiler, RegionSampledProfileMergesPartialTails)
{
    // Region sampling merges per-region series index-wise; region
    // runs end mid-interval, so partial tail records land on top of
    // full records from longer regions. Component sums must survive
    // the merge and total cycles must cover every region's run.
    const Trace trace = buildSmallTrace("gzip", 3, 7919);
    const TraceSoA soa = trace.soa();
    ExperimentConfig cfg = profiledConfig(499);
    cfg.instructions = trace.size();
    cfg.seeds = {3};
    cfg.regions = 3;
    cfg.regionLen = 601;
    cfg.regionWarmup = 97;
    const AggregateResult agg = runRegionSampledCell(
        soa, MachineConfig::clustered(4), PolicyKind::FocusedLocStall,
        cfg);
    ASSERT_FALSE(agg.intervals.empty());
    EXPECT_EQ(agg.intervals.mergeCount, 3u);
    std::uint64_t cycles = 0;
    for (const IntervalRecord &rec : agg.intervals.records) {
        EXPECT_EQ(rec.componentSum(), rec.cycles);
        cycles += rec.cycles;
    }
    // The profiler spans each region's full run (warmup + measure
    // phases alike); the merged series must cover exactly that.
    std::uint64_t phase_cycles = 0;
    for (const PhaseResult &phase : agg.phases)
        phase_cycles += phase.cycles;
    EXPECT_EQ(cycles, phase_cycles);
}

TEST(IntervalProfiler, ProfilerStatsRegistered)
{
    const Trace trace = buildSmallTrace("gzip", 1);
    ExperimentConfig cfg = profiledConfig();
    PolicyRun run = runPolicy(trace, MachineConfig::clustered(4),
                              PolicyKind::FocusedLocStall, cfg);
    const StatsSnapshot &stats = run.sim.stats;

    // The per-component counters mirror the series exactly.
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < numCpiComponents; ++i) {
        const std::string name = std::string("profiler.cycles.") +
            cpiComponentName(static_cast<CpiComponent>(i));
        ASSERT_TRUE(stats.has(name)) << name;
        total += static_cast<std::uint64_t>(stats.value(name));
    }
    EXPECT_EQ(total, run.sim.cycles);
    EXPECT_EQ(static_cast<std::uint64_t>(
                  stats.value("profiler.intervals")),
              run.intervals.records.size());

    // LoC spectrum: one sample per steered instruction.
    ASSERT_TRUE(stats.has("profiler.loc.spectrum"));
    EXPECT_EQ(stats.at("profiler.loc.spectrum").value,
              static_cast<double>(run.sim.instructions));

    // Criticality scoring: the confusion matrix partitions the run.
    const std::uint64_t tp = static_cast<std::uint64_t>(
        stats.value("profiler.crit.truePos"));
    const std::uint64_t fp = static_cast<std::uint64_t>(
        stats.value("profiler.crit.falsePos"));
    const std::uint64_t fn = static_cast<std::uint64_t>(
        stats.value("profiler.crit.falseNeg"));
    const std::uint64_t tn = static_cast<std::uint64_t>(
        stats.value("profiler.crit.trueNeg"));
    EXPECT_EQ(tp + fp + fn + tn, run.sim.instructions);
    const double hit = stats.value("profiler.crit.hitRate");
    EXPECT_GE(hit, 0.0);
    EXPECT_LE(hit, 1.0);
}

// ---------------------------------------------------------------- //
// Observer-chain composition

TEST(IntervalProfiler, ComposesWithPipelineChecker)
{
    const Trace trace = buildSmallTrace("mcf", 1);
    const MachineConfig machine = MachineConfig::clustered(2);

    ExperimentConfig plain = profiledConfig();
    plain.seeds = {1};
    PolicyRun alone =
        runPolicy(trace, machine, PolicyKind::Focused, plain);

    ExperimentConfig checked = plain;
    checked.verify.checker = true;
    checked.verify.panicOnViolation = false;
    PolicyRun both =
        runPolicy(trace, machine, PolicyKind::Focused, checked);

    // The checker found nothing, and observing through a longer chain
    // did not perturb the profile.
    EXPECT_EQ(both.checkerViolations, 0u);
    ASSERT_EQ(both.intervals.records.size(),
              alone.intervals.records.size());
    for (std::size_t i = 0; i < alone.intervals.records.size(); ++i) {
        const IntervalRecord &a = alone.intervals.records[i];
        const IntervalRecord &b = both.intervals.records[i];
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.components, b.components);
        EXPECT_EQ(a.commits, b.commits);
        EXPECT_EQ(a.deniedIssue, b.deniedIssue);
    }
}

// ---------------------------------------------------------------- //
// Sweep determinism across thread counts

std::string
seriesFingerprint(const std::vector<ChromeTraceRun> &runs)
{
    std::ostringstream os;
    writeChromeTrace(os, runs);
    return os.str();
}

TEST(IntervalProfiler, SweepIntervalsIdenticalAcrossThreadCounts)
{
    SweepSpec spec;
    spec.cfg = profiledConfig();
    spec.crossTiming({"gzip", "mcf"},
                     {MachineConfig::clustered(2),
                      MachineConfig::clustered(4)},
                     {PolicyKind::ModN, PolicyKind::Focused});

    TraceCache cache;
    SweepOutcome one = SweepRunner(1, &cache).run(spec);
    SweepOutcome four = SweepRunner(4, &cache).run(spec);

    ASSERT_EQ(one.results.size(), four.results.size());
    std::vector<ChromeTraceRun> runs_one, runs_four;
    for (std::size_t i = 0; i < one.results.size(); ++i) {
        ASSERT_FALSE(one.results[i].intervals.empty());
        runs_one.push_back(ChromeTraceRun{one.cells[i].label(),
                                          one.results[i].intervals});
        runs_four.push_back(ChromeTraceRun{four.cells[i].label(),
                                           four.results[i].intervals});
    }
    // Byte-identical once rendered — the acceptance criterion.
    EXPECT_EQ(seriesFingerprint(runs_one),
              seriesFingerprint(runs_four));

    // Seed merge really accumulated both seeds: the merged series
    // carries both runs' commits.
    std::uint64_t commits = 0;
    for (const IntervalRecord &rec : one.results[0].intervals.records)
        commits += rec.commits;
    EXPECT_EQ(commits, one.results[0].instructions);
}

// ---------------------------------------------------------------- //
// Chrome trace emission

TEST(ChromeTrace, StructureAndDeterminism)
{
    const Trace trace = buildSmallTrace("gzip", 1);
    const MachineConfig machine = MachineConfig::clustered(2);
    ExperimentConfig cfg = profiledConfig();
    cfg.seeds = {1};
    PolicyRun run =
        runPolicy(trace, machine, PolicyKind::Focused, cfg);

    std::vector<ChromeTraceRun> runs;
    runs.push_back(ChromeTraceRun{"gzip/2x4w/focused", run.intervals});
    std::ostringstream os;
    writeChromeTrace(os, runs);
    const std::string trace_json = os.str();

    EXPECT_NE(trace_json.find("\"traceEvents\":"), std::string::npos);
    EXPECT_NE(trace_json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(
        trace_json.find("\"args\":{\"name\":\"gzip/2x4w/focused\"}"),
        std::string::npos);
    EXPECT_NE(trace_json.find("\"name\":\"cluster0\""),
              std::string::npos);
    EXPECT_NE(trace_json.find("\"name\":\"cluster1\""),
              std::string::npos);
    EXPECT_NE(trace_json.find("\"name\":\"cpiStack\""),
              std::string::npos);
    EXPECT_NE(trace_json.find("\"ph\":\"X\""), std::string::npos);
    // Every CPI-stack key appears in the counter args.
    for (std::size_t i = 0; i < numCpiComponents; ++i) {
        const std::string key = std::string("\"") +
            cpiComponentName(static_cast<CpiComponent>(i)) + "\":";
        EXPECT_NE(trace_json.find(key), std::string::npos) << key;
    }
    // Emission is a pure function of the series.
    std::ostringstream again;
    writeChromeTrace(again, runs);
    EXPECT_EQ(trace_json, again.str());
}

// ---------------------------------------------------------------- //
// Satellites: filtered snapshots, series merge, v3 report

TEST(StatsSnapshot, PrefixFilter)
{
    StatsRegistry reg;
    reg.addCounter("profiler.intervals").inc(3);
    reg.addCounter("sim.cycles").inc(100);
    reg.addCounter("profiler.cycles.base").inc(7);
    StatsSnapshot snap = reg.snapshot();

    StatsSnapshot only = snap.filtered({"profiler."});
    EXPECT_EQ(only.size(), 2u);
    EXPECT_TRUE(only.has("profiler.intervals"));
    EXPECT_TRUE(only.has("profiler.cycles.base"));
    EXPECT_FALSE(only.has("sim.cycles"));

    StatsSnapshot both = snap.filtered({"sim.", "profiler.cycles."});
    EXPECT_EQ(both.size(), 2u);

    // Empty prefix list keeps everything (filtering is opt-in).
    EXPECT_EQ(snap.filtered({}).size(), snap.size());
}

TEST(IntervalSeries, MergeSumsIndexWise)
{
    IntervalSeries a, b;
    a.intervalCycles = b.intervalCycles = 100;
    a.clusterIssueWidth = b.clusterIssueWidth = 4;
    a.windowPerCluster = b.windowPerCluster = 64;
    IntervalRecord ra;
    ra.cycles = 100;
    ra.components[static_cast<std::size_t>(CpiComponent::Base)] = 100;
    ra.commits = 80;
    ra.clusters.resize(2);
    ra.clusters[0].issued = 50;
    a.records = {ra, ra};
    IntervalRecord rb = ra;
    rb.components[static_cast<std::size_t>(CpiComponent::Base)] = 60;
    rb.components[static_cast<std::size_t>(CpiComponent::Memory)] = 40;
    b.records = {rb, rb, rb};  // longer tail is adopted

    a.merge(b);
    EXPECT_EQ(a.mergeCount, 2u);
    ASSERT_EQ(a.records.size(), 3u);
    EXPECT_EQ(a.records[0].cycles, 200u);
    EXPECT_EQ(a.records[0].componentSum(), 200u);
    EXPECT_EQ(a.records[0].commits, 160u);
    EXPECT_EQ(a.records[0].clusters[0].issued, 100u);
    EXPECT_EQ(a.records[2].cycles, 100u);
    EXPECT_EQ(a.totalCycles(), 500u);

    // Merging into an empty series adopts the other wholesale.
    IntervalSeries fresh;
    fresh.merge(b);
    EXPECT_EQ(fresh.records.size(), 3u);
    EXPECT_EQ(fresh.intervalCycles, 100u);
    EXPECT_EQ(fresh.mergeCount, 1u);
}

TEST(JsonReport, SchemaV3IntervalsRoundTrip)
{
    const Trace trace = buildSmallTrace("gzip", 1);
    ExperimentConfig cfg = profiledConfig();
    cfg.seeds = {1};
    PolicyRun run = runPolicy(trace, MachineConfig::clustered(2),
                              PolicyKind::Focused, cfg);

    const std::string path = "test_profiler_report.json";
    {
        const char *argv[] = {"bench", "--json", path.c_str(),
                              "--profile"};
        BenchContext ctx("test_profiler_bench", 4,
                         const_cast<char **>(argv));
        ExperimentConfig applied;
        ctx.apply(applied);
        EXPECT_TRUE(applied.profile.enabled);
        ctx.addRunStats("gzip/2x4w/focused", run.sim.stats,
                        run.intervals);
        EXPECT_EQ(ctx.finish(), 0);
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    std::remove(path.c_str());

    EXPECT_NE(json.find("\"schemaVersion\":7"), std::string::npos);
    EXPECT_NE(json.find("\"intervals\":{"), std::string::npos);
    EXPECT_NE(json.find("\"intervalCycles\":500"), std::string::npos);
    EXPECT_NE(json.find("\"mergeCount\":1"), std::string::npos);
    EXPECT_NE(json.find("\"cpiStack\":{"), std::string::npos);
    EXPECT_NE(json.find("\"clusters\":["), std::string::npos);
}

TEST(JsonReport, StatsFilterFlag)
{
    StatsRegistry reg;
    reg.addCounter("profiler.intervals").inc(1);
    reg.addCounter("sim.cycles").inc(5);

    const std::string path = "test_profiler_filtered.json";
    {
        const char *argv[] = {"bench", "--json", path.c_str(),
                              "--stats-filter", "profiler."};
        BenchContext ctx("test_profiler_bench", 5,
                         const_cast<char **>(argv));
        ctx.addRunStats("cell", reg.snapshot());
        EXPECT_EQ(ctx.finish(), 0);
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    std::remove(path.c_str());

    EXPECT_NE(json.find("profiler.intervals"), std::string::npos);
    EXPECT_EQ(json.find("sim.cycles"), std::string::npos);
}

} // anonymous namespace
} // namespace csim
