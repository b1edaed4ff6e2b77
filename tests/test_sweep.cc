/**
 * @file
 * Sweep engine tests: TraceCache build-once/hit semantics and its
 * 36 B/inst simulation-only entries, SweepRunner determinism across
 * thread counts (bit-identical aggregates, including the merged stats
 * snapshots), equivalence with
 * the legacy sequential entry points, SweepSpec's one index per equal
 * cell, BenchContext's --threads front end, and the fwdLatency
 * independence of one-cluster jobs that bench_paper's latency sweep
 * rests on when it declares each 1x8w baseline once.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <unistd.h>

#include "harness/json_report.hh"
#include "harness/sweep.hh"
#include "harness/trace_cache.hh"
#include "obs/run_ledger.hh"
#include "config_knobs.hh"
#include "sim_checks.hh"

namespace csim {
namespace {

WorkloadConfig
smallWorkload(std::uint64_t seed, std::uint64_t instructions = 4000)
{
    WorkloadConfig cfg;
    cfg.targetInstructions = instructions;
    cfg.seed = seed;
    return cfg;
}

ExperimentConfig
smallConfig()
{
    ExperimentConfig cfg;
    cfg.instructions = 4000;
    cfg.seeds = {1, 2};
    return cfg;
}

// ---------------------------------------------------------------- //
// TraceCache

TEST(TraceCache, BuildsOnceAndHits)
{
    TraceCache cache;
    auto a = cache.get("gzip", smallWorkload(1));
    auto b = cache.get("gzip", smallWorkload(1));
    EXPECT_EQ(a.get(), b.get());  // shared, not rebuilt
    EXPECT_EQ(cache.requests(), 2u);
    EXPECT_EQ(cache.builds(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_GT(cache.bytesHeld(), 0u);
}

TEST(TraceCache, DistinctKeysBuildSeparately)
{
    TraceCache cache;
    auto a = cache.get("gzip", smallWorkload(1));
    auto b = cache.get("gzip", smallWorkload(2));        // seed
    auto c = cache.get("mcf", smallWorkload(1));         // workload
    auto d = cache.get("gzip", smallWorkload(1, 2000));  // length
    MemoryModelConfig mem;
    mem.l2Latency = 77;
    auto e = cache.get("gzip", smallWorkload(1), mem);   // mem config
    EXPECT_EQ(cache.builds(), 5u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_NE(a.get(), d.get());
    EXPECT_NE(a.get(), e.get());
}

TEST(TraceCache, CachedTraceMatchesFreshBuild)
{
    TraceCache cache;
    auto cached = cache.get("vpr", smallWorkload(3));
    Trace fresh = buildAnnotatedTrace("vpr", smallWorkload(3));
    ASSERT_EQ(cached->size(), fresh.size());
    for (std::uint64_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ((*cached)[i].pc, fresh[i].pc);
        EXPECT_EQ((*cached)[i].mispredicted, fresh[i].mispredicted);
    }
}

TEST(TraceCache, BytesHeldIsColumnBytesOfCachedInstructions)
{
    // One simulation-only copy per trace: 36 bytes per cached
    // instruction (the eight simulation columns), counted by
    // bytesHeld() and the stats alike.
    TraceCache cache;
    std::uint64_t instructions = 0;
    instructions += cache.get("gzip", smallWorkload(1))->size();
    instructions += cache.get("mcf", smallWorkload(1, 3000))->size();
    instructions += cache.get("eon", smallWorkload(2, 2500))->size();
    (void)cache.get("gzip", smallWorkload(1));  // a hit adds nothing
    EXPECT_EQ(cache.bytesHeld(), 36 * instructions);
    const StatsSnapshot snap = cache.statsSnapshot();
    EXPECT_EQ(snap.value("traceCache.bytesHeld"),
              static_cast<double>(36 * instructions));
}

TEST(TraceCache, HeapHoldsOnlyTheSimulationColumns)
{
    // A trace past one chunk streams through the chunked build: once
    // get() returns, the heap holds its 36 B/inst and nothing else per
    // instruction. Full-length build columns (11 B/inst more) are
    // never allocated, and the ring's chunks and the emulator are
    // freed.
    const WorkloadConfig wcfg = smallWorkload(1, 300000);
    TraceCache cache;
    const std::optional<std::int64_t> before = heapInUse();
    if (!before)
        GTEST_SKIP() << "mallinfo2 unavailable";
    const std::shared_ptr<const Trace> trace = cache.get("gcc", wcfg);
    const auto n = static_cast<std::int64_t>(trace->size());
    ASSERT_EQ(n, 300000);
    const std::int64_t grown = *heapInUse() - *before;
    // An interposed allocator (ASan's, say) bypasses glibc's counters;
    // a reading below the trace itself measures nothing.
    if (grown < 36 * n)
        GTEST_SKIP() << "mallinfo2 saw " << grown << " B, below the "
                     << 36 * n << " B trace";
    EXPECT_LE(grown, 36 * n + (std::int64_t{2} << 20))
        << grown / n << " B/inst";
}

TEST(TraceCache, StatsSnapshotCarriesRegistry)
{
    TraceCache cache;
    cache.get("gzip", smallWorkload(1));
    cache.get("gzip", smallWorkload(1));
    StatsSnapshot snap = cache.statsSnapshot();
    EXPECT_EQ(snap.size(), 6u);
    EXPECT_EQ(snap.value("traceCache.requests"), 2.0);
    EXPECT_EQ(snap.value("traceCache.builds"), 1.0);
    EXPECT_EQ(snap.value("traceCache.hits"), 1.0);
    EXPECT_DOUBLE_EQ(snap.value("traceCache.hitRate"), 0.5);
    EXPECT_GT(snap.value("traceCache.bytesHeld"), 0.0);
    EXPECT_EQ(snap.value("traceCache.entriesHeld"), 1.0);
}

TEST(TraceCache, TimeSnapshotTracksBuildLatency)
{
    TraceCache cache;
    (void)cache.get("gzip", smallWorkload(1));
    (void)cache.get("gzip", smallWorkload(1));
    const StatsSnapshot t = cache.timeSnapshot();
    EXPECT_GT(t.value("traceCache.time.buildNs"), 0.0);
    EXPECT_TRUE(t.has("traceCache.time.lockWaitNs"));
    EXPECT_TRUE(t.has("traceCache.time.hitWaitNs"));
    EXPECT_GT(t.value("traceCache.time.buildMsMean"), 0.0);
    // Wall times are nondeterministic, so they must stay out of the
    // cache's deterministic stats snapshot.
    EXPECT_FALSE(cache.statsSnapshot().has("traceCache.time.buildNs"));
}

// ---------------------------------------------------------------- //
// SweepSpec

TEST(SweepSpec, CrossTimingIsWorkloadMajor)
{
    SweepSpec spec;
    spec.crossTiming({"gzip", "mcf"},
                     {MachineConfig::monolithic(),
                      MachineConfig::clustered(4)},
                     {PolicyKind::ModN});
    ASSERT_EQ(spec.cells.size(), 4u);
    EXPECT_EQ(spec.cells[0].label(), "gzip/1x8w/mod-n");
    EXPECT_EQ(spec.cells[1].label(), "gzip/4x2w/mod-n");
    EXPECT_EQ(spec.cells[2].label(), "mcf/1x8w/mod-n");
    EXPECT_EQ(spec.cells[3].label(), "mcf/4x2w/mod-n");
}

TEST(SweepSpec, LabelsAndPerCellConfig)
{
    SweepSpec spec;
    spec.cfg.instructions = 123;
    const std::size_t a =
        spec.addIdeal("vpr", MachineConfig::clustered(2),
                      ListSchedOptions::Priority::Loc);
    SweepCell override_cell;
    override_cell.workload = "gcc";
    override_cell.machine = MachineConfig::clustered(8);
    override_cell.policy = PolicyKind::FocusedLocStall;
    ExperimentConfig special;
    special.instructions = 456;
    override_cell.cfg = special;
    const std::size_t b = spec.add(override_cell);

    EXPECT_EQ(spec.cells[a].label(), "vpr/2x4w/ideal-loc");
    EXPECT_EQ(spec.cells[b].label(), "gcc/8x1w/focused+loc+stall");
    EXPECT_EQ(spec.cellConfig(a).instructions, 123u);
    EXPECT_EQ(spec.cellConfig(b).instructions, 456u);
}

TEST(SweepSpec, EqualCellsShareOneIndex)
{
    SweepSpec spec;
    spec.cfg = smallConfig();
    const MachineConfig c8 = MachineConfig::clustered(8);
    const std::size_t timing =
        spec.addTiming("gzip", c8, PolicyKind::FocusedLoc);
    const std::size_t ideal = spec.addIdeal("gzip", c8);
    EXPECT_NE(timing, ideal);

    // Shared: a repeat, an override equal to spec.cfg, the same
    // machine built another way, and a difference in the field the
    // cell's mode does not read.
    EXPECT_EQ(spec.addTiming("gzip", c8, PolicyKind::FocusedLoc), timing);
    EXPECT_EQ(spec.addIdeal("gzip", c8), ideal);
    SweepCell overridden;
    overridden.workload = "gzip";
    overridden.machine = c8;
    overridden.policy = PolicyKind::FocusedLoc;
    overridden.cfg = spec.cfg;
    EXPECT_EQ(spec.add(overridden), timing);
    EXPECT_EQ(spec.addTiming("gzip", MachineConfig::generic(8, 1),
                             PolicyKind::FocusedLoc),
              timing);
    SweepCell ideal_cell = spec.cells[ideal];
    ideal_cell.policy = PolicyKind::Dep;
    EXPECT_EQ(spec.add(ideal_cell), ideal);
    SweepCell timing_cell = spec.cells[timing];
    timing_cell.priority = ListSchedOptions::Priority::Loc;
    EXPECT_EQ(spec.add(timing_cell), timing);
    EXPECT_EQ(spec.cells.size(), 2u);

    // Distinct: the workload, every MachineConfig field (the label
    // shows none but the cluster count and width), the policy, the
    // priority and every ExperimentConfig knob.
    std::set<std::size_t> seen = {timing, ideal};
    const auto expectNew = [&](std::size_t index) {
        EXPECT_TRUE(seen.insert(index).second) << "index " << index;
    };
    expectNew(spec.addTiming("mcf", c8, PolicyKind::FocusedLoc));
    for (unsigned MachineConfig::*field :
         {&MachineConfig::numClusters, &MachineConfig::windowPerCluster,
          &MachineConfig::robEntries, &MachineConfig::fetchWidth,
          &MachineConfig::dispatchWidth, &MachineConfig::commitWidth,
          &MachineConfig::frontendDepth, &MachineConfig::fwdLatency}) {
        MachineConfig m = c8;
        m.*field += 1;
        expectNew(spec.addTiming("gzip", m, PolicyKind::FocusedLoc));
    }
    for (unsigned ClusterPorts::*field :
         {&ClusterPorts::issueWidth, &ClusterPorts::intPorts,
          &ClusterPorts::fpPorts, &ClusterPorts::memPorts}) {
        MachineConfig m = c8;
        m.cluster.*field += 1;
        expectNew(spec.addTiming("gzip", m, PolicyKind::FocusedLoc));
    }
    MachineConfig stop = c8;
    stop.fetchStopAtTaken = false;
    expectNew(spec.addTiming("gzip", stop, PolicyKind::FocusedLoc));
    expectNew(spec.addTiming("gzip", c8, PolicyKind::Focused));
    expectNew(spec.addIdeal("gzip", c8, ListSchedOptions::Priority::Loc));
    for (const auto &[name, change] : configKnobs()) {
        SCOPED_TRACE(name);
        SweepCell cell = overridden;
        change(*cell.cfg);
        const std::size_t index = spec.add(cell);
        expectNew(index);
        EXPECT_EQ(spec.add(cell), index);
    }
    EXPECT_EQ(spec.cells.size(), seen.size());

    // A shared cell is one job per seed, so a run hook sees it once.
    SweepSpec twice;
    twice.cfg = smallConfig();
    const std::size_t cell = twice.addTiming(
        "gzip", MachineConfig::clustered(2), PolicyKind::Focused);
    EXPECT_EQ(twice.addTiming("gzip", MachineConfig::clustered(2),
                              PolicyKind::Focused),
              cell);
    std::vector<int> calls(twice.cfg.seeds.size(), 0);
    SweepRunner runner(2);
    const SweepOutcome out = runner.run(
        twice, [&](const SweepJob &job, const Trace &, const PolicyRun &) {
            ++calls[job.seedIndex];
        });
    EXPECT_EQ(out.results.size(), 1u);
    EXPECT_EQ(calls, std::vector<int>(twice.cfg.seeds.size(), 1));
}

// ---------------------------------------------------------------- //
// SweepRunner

void
expectSnapshotsEqual(const StatsSnapshot &a, const StatsSnapshot &b)
{
    ASSERT_EQ(a.size(), b.size());
    const auto &ea = a.entries();
    const auto &eb = b.entries();
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].first, eb[i].first);
        const StatValue &va = ea[i].second;
        const StatValue &vb = eb[i].second;
        EXPECT_EQ(va.kind, vb.kind) << ea[i].first;
        EXPECT_EQ(va.value, vb.value) << ea[i].first;
        EXPECT_EQ(va.buckets, vb.buckets) << ea[i].first;
        EXPECT_EQ(va.mergeCount, vb.mergeCount) << ea[i].first;
    }
}

void
expectResultsEqual(const AggregateResult &a, const AggregateResult &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    for (std::size_t c = 0; c < numCpCategories; ++c)
        EXPECT_EQ(a.categoryCycles[c], b.categoryCycles[c]);
    EXPECT_EQ(a.contentionEventsCritical, b.contentionEventsCritical);
    EXPECT_EQ(a.contentionEventsOther, b.contentionEventsOther);
    EXPECT_EQ(a.fwdEventsLoadBal, b.fwdEventsLoadBal);
    EXPECT_EQ(a.fwdEventsDyadic, b.fwdEventsDyadic);
    EXPECT_EQ(a.fwdEventsOther, b.fwdEventsOther);
    EXPECT_EQ(a.globalValues, b.globalValues);
    expectSnapshotsEqual(a.stats, b.stats);
}

void
expectPhasesEqual(const std::vector<PhaseResult> &a,
                  const std::vector<PhaseResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].isWarmup, b[i].isWarmup);
        EXPECT_EQ(a[i].instructions, b[i].instructions);
        EXPECT_EQ(a[i].cycles, b[i].cycles);
        expectSnapshotsEqual(a[i].stats, b[i].stats);
    }
}

SweepSpec
mixedSpec()
{
    SweepSpec spec;
    spec.cfg = smallConfig();
    spec.addTiming("gzip", MachineConfig::clustered(4),
                   PolicyKind::Focused);
    spec.addTiming("gzip", MachineConfig::monolithic(),
                   PolicyKind::ModN);
    spec.addIdeal("mcf", MachineConfig::clustered(2));
    // A per-cell override exercises cellConfig plumbing.
    SweepCell special;
    special.workload = "gzip";
    special.machine = MachineConfig::clustered(2);
    special.policy = PolicyKind::LoadBal;
    ExperimentConfig cfg = smallConfig();
    cfg.seeds = {7};
    special.cfg = cfg;
    spec.add(special);
    return spec;
}

TEST(SweepRunner, ParallelMatchesSequentialBitForBit)
{
    const SweepSpec spec = mixedSpec();
    SweepRunner seq(1);
    SweepRunner par(4);
    const SweepOutcome a = seq.run(spec);
    const SweepOutcome b = par.run(spec);

    EXPECT_EQ(a.threads, 1u);
    EXPECT_EQ(b.threads, 4u);
    ASSERT_EQ(a.results.size(), spec.cells.size());
    ASSERT_EQ(b.results.size(), spec.cells.size());
    for (std::size_t i = 0; i < a.results.size(); ++i)
        expectResultsEqual(a.results[i], b.results[i]);
}

TEST(SweepRunner, RegionSampledRunsAreThreadCountInvariant)
{
    // Region-sampled cells must merge region (and seed) results in a
    // fixed order, so a parallel sweep reproduces the sequential one
    // bit for bit — including the merged phase reports.
    SweepSpec spec;
    spec.cfg = smallConfig();
    spec.cfg.instructions = 8000;
    spec.cfg.regions = 3;
    spec.cfg.regionLen = 400;
    spec.cfg.regionWarmup = 150;
    spec.addTiming("gzip", MachineConfig::clustered(4),
                   PolicyKind::Focused);
    spec.addTiming("mcf", MachineConfig::monolithic(),
                   PolicyKind::ModN);

    SweepRunner seq(1);
    SweepRunner par(4);
    const SweepOutcome a = seq.run(spec);
    const SweepOutcome b = par.run(spec);
    ASSERT_EQ(a.results.size(), spec.cells.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        // Both runners sample their regions off the simulation-only
        // traces of a TraceCache; the cache-less reference samples the
        // same regions off full reference builds, all twelve columns.
        const SweepCell &cell = spec.cells[i];
        AggregateResult full;
        for (const std::uint64_t seed : spec.cfg.seeds) {
            const Trace trace = buildAnnotatedTrace(
                cell.workload, smallWorkload(seed, spec.cfg.instructions));
            full.merge(runPolicyCell(trace, cell.machine, cell.policy,
                                     spec.cfg));
        }
        expectResultsEqual(a.results[i], full);
        expectPhasesEqual(a.results[i].phases, full.phases);
        expectResultsEqual(a.results[i], b.results[i]);
        expectPhasesEqual(a.results[i].phases, b.results[i].phases);
        // Two seeds x three regions of like-named phases fold into
        // exactly one warmup and one measure entry.
        ASSERT_EQ(a.results[i].phases.size(), 2u);
        EXPECT_EQ(a.results[i].phases[0].name, "warmup");
        EXPECT_EQ(a.results[i].phases[1].name, "measure");
        EXPECT_EQ(a.results[i].phases[1].instructions,
                  a.results[i].instructions);
        EXPECT_EQ(a.results[i].phases[0].instructions,
                  2u * 3u * 150u);
    }
}

TEST(SweepRunner, MatchesLegacySequentialAggregates)
{
    const ExperimentConfig cfg = smallConfig();
    SweepSpec spec;
    spec.cfg = cfg;
    const std::size_t timing = spec.addTiming(
        "gzip", MachineConfig::clustered(4), PolicyKind::Focused);
    const std::size_t ideal =
        spec.addIdeal("mcf", MachineConfig::clustered(2));

    SweepRunner runner(2);
    const SweepOutcome out = runner.run(spec);

    const AggregateResult legacy_timing = runAggregate(
        "gzip", MachineConfig::clustered(4), PolicyKind::Focused, cfg);
    const AggregateResult legacy_ideal = runIdealAggregate(
        "mcf", MachineConfig::clustered(2), cfg);
    expectResultsEqual(out.at(timing), legacy_timing);
    expectResultsEqual(out.at(ideal), legacy_ideal);
}

TEST(SweepRunner, SharesTracesAcrossCells)
{
    SweepSpec spec;
    spec.cfg = smallConfig();
    spec.crossTiming({"gzip"},
                     {MachineConfig::monolithic(),
                      MachineConfig::clustered(4)},
                     {PolicyKind::ModN, PolicyKind::LoadBal});
    SweepRunner runner(2);
    (void)runner.run(spec);
    // 4 cells x 2 seeds = 8 jobs but only 2 distinct traces.
    EXPECT_EQ(runner.cache().requests(), 8u);
    EXPECT_EQ(runner.cache().builds(), 2u);
    EXPECT_EQ(runner.cache().hits(), 6u);
}

TEST(SweepRunner, ExternalCacheIsUsed)
{
    TraceCache cache;
    SweepSpec spec;
    spec.cfg = smallConfig();
    spec.addTiming("gzip", MachineConfig::monolithic(),
                   PolicyKind::ModN);
    SweepRunner runner(2, &cache);
    EXPECT_EQ(&runner.cache(), &cache);
    (void)runner.run(spec);
    EXPECT_EQ(cache.builds(), 2u);  // one per seed
}

TEST(SweepRunner, RunHookSeesEachFullTraceTimingJobOnce)
{
    // A seed listed twice is two jobs; seedIndex keeps their slots
    // apart.
    SweepSpec spec;
    spec.cfg = smallConfig();
    spec.cfg.seeds = {1, 2, 1};
    const std::size_t mono = spec.addTiming(
        "gzip", MachineConfig::monolithic(), PolicyKind::Focused);
    const std::size_t ideal =
        spec.addIdeal("mcf", MachineConfig::clustered(2));
    const std::size_t clustered = spec.addTiming(
        "mcf", MachineConfig::clustered(4), PolicyKind::ActiveClusters);
    SweepCell sampled;
    sampled.workload = "gzip";
    sampled.machine = MachineConfig::clustered(2);
    sampled.policy = PolicyKind::FocusedLoc;
    sampled.cfg = spec.cfg;
    sampled.cfg->regions = 2;
    sampled.cfg->regionLen = 500;
    const std::size_t regions = spec.add(sampled);

    struct Slot
    {
        int calls = 0;
        std::uint64_t seed = 0;
        std::uint64_t cycles = 0;
        bool fullTiming = false;
    };
    auto runWith = [&](unsigned threads) {
        std::vector<std::vector<Slot>> slots(
            spec.cells.size(), std::vector<Slot>(spec.cfg.seeds.size()));
        SweepRunner runner(threads);
        const SweepOutcome out = runner.run(
            spec, [&](const SweepJob &job, const Trace &trace,
                      const PolicyRun &run) {
                Slot &slot = slots[job.cell][job.seedIndex];
                ++slot.calls;
                slot.seed = job.seed;
                slot.cycles = run.sim.cycles;
                slot.fullTiming = run.sim.timing.size() == trace.size();
            });
        return std::make_pair(out, slots);
    };

    const auto [out, slots] = runWith(1);
    for (std::size_t c : {mono, clustered}) {
        std::uint64_t cycles = 0;
        for (std::size_t s = 0; s < spec.cfg.seeds.size(); ++s) {
            SCOPED_TRACE("cell " + std::to_string(c) + " seed index " +
                         std::to_string(s));
            EXPECT_EQ(slots[c][s].calls, 1);
            EXPECT_EQ(slots[c][s].seed, spec.cfg.seeds[s]);
            EXPECT_TRUE(slots[c][s].fullTiming);
            cycles += slots[c][s].cycles;
        }
        EXPECT_EQ(cycles, out.at(c).cycles);
    }
    for (std::size_t c : {ideal, regions})
        for (const Slot &slot : slots[c])
            EXPECT_EQ(slot.calls, 0) << "cell " << c;

    const auto [out4, slots4] = runWith(4);
    for (std::size_t c = 0; c < spec.cells.size(); ++c) {
        expectResultsEqual(out4.at(c), out.at(c));
        for (std::size_t s = 0; s < spec.cfg.seeds.size(); ++s) {
            EXPECT_EQ(slots4[c][s].calls, slots[c][s].calls);
            EXPECT_EQ(slots4[c][s].seed, slots[c][s].seed);
            EXPECT_EQ(slots4[c][s].cycles, slots[c][s].cycles);
        }
    }
}

/** The payloads of a ledger's `kind` events, in file order. */
std::vector<std::string>
ledgerPayloads(const std::string &path, const std::string &kind)
{
    std::ifstream in(path);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    const std::string tag = "\"kind\":\"" + kind + "\"";
    const std::string field = "\"payload\":";
    std::vector<std::string> payloads;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t at = line.find(field);
        if (line.find(tag) != std::string::npos && at != std::string::npos)
            payloads.push_back(line.substr(at + field.size()));
    }
    return payloads;
}

TEST(SweepRunner, JobsLandingBeforeAnEarlierSeedFoldInSeedOrder)
{
    // Each cell's first seed sleeps in the run hook, so at 4 threads
    // its later seeds land first and park until it folds. Every cell
    // must still merge its seeds in seed order: the outcome and each
    // job's ledger jobEnd (its own instructions, cycles and stats
    // digest, sent before the fold) equal the 1-thread run's.
    SweepSpec spec;
    spec.cfg = smallConfig();
    spec.cfg.seeds = {1, 2, 3};
    spec.addTiming("gzip", MachineConfig::clustered(4),
                   PolicyKind::Focused);
    spec.addTiming("mcf", MachineConfig::monolithic(),
                   PolicyKind::LoadBal);
    spec.addTiming("vpr", MachineConfig::clustered(2),
                   PolicyKind::FocusedLoc);

    auto runWith = [&](unsigned threads) {
        const std::string path = std::string(::testing::TempDir()) +
            "/csim_fold_t" + std::to_string(threads) + "_" +
            std::to_string(::getpid()) + ".ledger";
        SweepOutcome out;
        {
            RunLedger ledger(path, "test_sweep", Provenance{});
            SweepRunner runner(threads);
            runner.setLedger(&ledger);
            out = runner.run(spec, [](const SweepJob &job, const Trace &,
                                      const PolicyRun &) {
                if (job.seedIndex == 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
            });
        }
        std::vector<std::string> jobEnds = ledgerPayloads(path, "jobEnd");
        std::sort(jobEnds.begin(), jobEnds.end());
        const std::vector<std::string> cellEnds =
            ledgerPayloads(path, "cellEnd");
        std::remove(path.c_str());
        return std::make_tuple(out, jobEnds, cellEnds);
    };

    const auto [one, jobEnds1, cellEnds1] = runWith(1);
    const auto [four, jobEnds4, cellEnds4] = runWith(4);
    ASSERT_EQ(four.results.size(), spec.cells.size());
    for (std::size_t c = 0; c < spec.cells.size(); ++c)
        expectResultsEqual(four.at(c), one.at(c));
    EXPECT_EQ(jobEnds1.size(), 9u);
    EXPECT_EQ(jobEnds4, jobEnds1);
    EXPECT_EQ(cellEnds1.size(), spec.cells.size());
    EXPECT_EQ(cellEnds4, cellEnds1);
}

TEST(SweepRunner, WallTimeAndCellsRecorded)
{
    SweepSpec spec;
    spec.cfg = smallConfig();
    spec.addTiming("gzip", MachineConfig::monolithic(),
                   PolicyKind::ModN);
    SweepRunner runner(1);
    const SweepOutcome out = runner.run(spec);
    ASSERT_EQ(out.cells.size(), 1u);
    EXPECT_EQ(out.cells[0].label(), "gzip/1x8w/mod-n");
    EXPECT_GE(out.wallSeconds, 0.0);
    EXPECT_GT(out.at(0).instructions, 0u);
}

// ---------------------------------------------------------------- //
// One-cluster machines never forward

TEST(MonolithicMachine, JobsDoNotDependOnFwdLatency)
{
    // bench_paper's latency sweep runs each 1x8w baseline once for
    // all four forwarding latencies. That is sound only if every job
    // the golden digests pin (cycles and statsDigest, timing and
    // ideal cells, checked as the golden run is) is the same at any
    // latency.
    ExperimentConfig cfg = smallConfig();
    cfg.verify.checker = true;
    cfg.verify.oracle = true;
    TraceCache cache;
    for (const char *wl : {"bzip2", "gzip", "mcf"}) {
        for (std::uint64_t seed : cfg.seeds) {
            SCOPED_TRACE(std::string(wl) + " seed " +
                         std::to_string(seed));
            auto trace = cache.get(wl, smallWorkload(seed));
            auto jobs = [&](unsigned lat) {
                MachineConfig mono = MachineConfig::monolithic();
                mono.fwdLatency = lat;
                std::vector<AggregateResult> out;
                for (PolicyKind kind :
                     {PolicyKind::FocusedLoc,
                      PolicyKind::FocusedLocStallProactive})
                    out.push_back(
                        runPolicyCell(*trace, mono, kind, cfg));
                for (auto prio :
                     {ListSchedOptions::Priority::DataflowHeight,
                      ListSchedOptions::Priority::Loc})
                    out.push_back(runIdealCell(*trace, mono, cfg, prio));
                return out;
            };
            const std::vector<AggregateResult> ref =
                jobs(MachineConfig::monolithic().fwdLatency);
            for (unsigned lat : {1u, 3u, 4u, 9u}) {
                const std::vector<AggregateResult> got = jobs(lat);
                ASSERT_EQ(got.size(), ref.size());
                for (std::size_t j = 0; j < ref.size(); ++j) {
                    SCOPED_TRACE("latency " + std::to_string(lat) +
                                 " job " + std::to_string(j));
                    EXPECT_EQ(got[j].cycles, ref[j].cycles);
                    EXPECT_EQ(statsDigest(got[j].stats),
                              statsDigest(ref[j].stats));
                }
            }
        }
    }
}

TEST(SweepRunner, DefaultThreadsReadsEnv)
{
    ASSERT_EQ(setenv("CSIM_THREADS", "3", 1), 0);
    EXPECT_EQ(SweepRunner::defaultThreads(), 3u);
    ASSERT_EQ(unsetenv("CSIM_THREADS"), 0);
    EXPECT_GE(SweepRunner::defaultThreads(), 1u);
}

TEST(SweepRunnerDeathTest, MalformedEnvThreadCountIsFatal)
{
    // A malformed CSIM_THREADS must never silently fall back to a
    // default thread count.
    ASSERT_EQ(setenv("CSIM_THREADS", "junk", 1), 0);
    EXPECT_DEATH(SweepRunner::defaultThreads(), "CSIM_THREADS");
    ASSERT_EQ(setenv("CSIM_THREADS", "0", 1), 0);
    EXPECT_DEATH(SweepRunner::defaultThreads(), "CSIM_THREADS");
    ASSERT_EQ(setenv("CSIM_THREADS", "-2", 1), 0);
    EXPECT_DEATH(SweepRunner::defaultThreads(), "CSIM_THREADS");
    ASSERT_EQ(unsetenv("CSIM_THREADS"), 0);
}

TEST(ParseThreadCount, AcceptsPositiveDecimals)
{
    EXPECT_EQ(parseThreadCount("1", "--threads"), 1u);
    EXPECT_EQ(parseThreadCount("48", "--threads"), 48u);
    EXPECT_EQ(parseThreadCount("65536", "--threads"), 65536u);
}

TEST(ParseThreadCountDeathTest, RejectsGarbage)
{
    EXPECT_DEATH(parseThreadCount("", "--threads"), "--threads");
    EXPECT_DEATH(parseThreadCount("0", "--threads"), "--threads");
    EXPECT_DEATH(parseThreadCount("-1", "--threads"), "--threads");
    EXPECT_DEATH(parseThreadCount("+4", "--threads"), "--threads");
    EXPECT_DEATH(parseThreadCount("4x", "--threads"), "--threads");
    EXPECT_DEATH(parseThreadCount("0x10", "--threads"), "--threads");
    EXPECT_DEATH(parseThreadCount(" 4", "--threads"), "--threads");
    EXPECT_DEATH(parseThreadCount("65537", "--threads"), "65537");
    EXPECT_DEATH(parseThreadCount("99999999999999999999", "src"),
                 "src");
}

// ---------------------------------------------------------------- //
// BenchContext front end

TEST(BenchContextThreads, FlagOverridesDefault)
{
    const char *argv[] = {"bench", "--threads", "5"};
    BenchContext ctx("bench", 3, const_cast<char **>(argv));
    EXPECT_EQ(ctx.threads(), 5u);
    EXPECT_EQ(ctx.runner().threads(), 5u);
    EXPECT_EQ(&ctx.runner().cache(), &ctx.traceCache());
}

TEST(BenchContextThreads, EnvDefaultWhenFlagAbsent)
{
    ASSERT_EQ(setenv("CSIM_THREADS", "2", 1), 0);
    const char *argv[] = {"bench"};
    BenchContext ctx("bench", 1, const_cast<char **>(argv));
    EXPECT_EQ(ctx.threads(), 2u);
    ASSERT_EQ(unsetenv("CSIM_THREADS"), 0);
}

} // anonymous namespace
} // namespace csim
