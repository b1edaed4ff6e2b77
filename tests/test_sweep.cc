/**
 * @file
 * Sweep engine tests: TraceCache build-once/hit/eviction semantics,
 * SweepRunner determinism across thread counts (bit-identical
 * aggregates, including the merged stats snapshots), equivalence with
 * the legacy sequential entry points, BenchContext's --threads front
 * end, and the fwdLatency independence of one-cluster jobs that
 * bench_latency_sweep's shared 1x8w baselines rest on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/json_report.hh"
#include "harness/sweep.hh"
#include "harness/trace_cache.hh"
#include "obs/run_ledger.hh"
#include "trace/trace_soa.hh"

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

TEST(TraceCache, EvictsLruByByteBudget)
{
    // Capacity of one trace: the second insert evicts the first.
    TraceCache probe;
    auto first = probe.get("gzip", smallWorkload(1));
    const std::size_t one = probe.bytesHeld();
    ASSERT_GT(one, 0u);

    TraceCache cache(one);
    auto a = cache.get("gzip", smallWorkload(1));
    EXPECT_EQ(cache.evictions(), 0u);
    auto b = cache.get("gzip", smallWorkload(2));
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_LE(cache.bytesHeld(), one);

    // The evicted trace stays alive through the held shared_ptr, and
    // re-requesting it is a rebuild, not a hit.
    EXPECT_GT(a->size(), 0u);
    auto a2 = cache.get("gzip", smallWorkload(1));
    EXPECT_EQ(cache.builds(), 3u);
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(TraceCache, SpillsEvictionsAndRehydratesByMmap)
{
    // Size the budget to exactly one trace so the second insert
    // evicts (and, with a spill dir, spills) the first.
    TraceCache probe;
    (void)probe.get("gzip", smallWorkload(1));
    const std::size_t one = probe.bytesHeld();
    ASSERT_GT(one, 0u);

    const std::string dir = ::testing::TempDir();
    TraceCache cache(one, dir);
    auto a = cache.get("gzip", smallWorkload(1));
    auto b = cache.get("gzip", smallWorkload(2));
    {
        const StatsSnapshot snap = cache.statsSnapshot();
        EXPECT_EQ(snap.value("traceCache.evictions"), 1.0);
        EXPECT_EQ(snap.value("traceCache.spill.writes"), 1.0);
        EXPECT_GT(snap.value("traceCache.spill.bytes"), 0.0);
        EXPECT_EQ(snap.value("traceCache.mmap.loads"), 0.0);
    }

    // A miss on the spilled key re-mmaps the store file instead of
    // re-running the build pipeline, and the rehydrated trace is
    // bit-identical to a fresh build.
    auto a2 = cache.get("gzip", smallWorkload(1));
    {
        const StatsSnapshot snap = cache.statsSnapshot();
        EXPECT_EQ(snap.value("traceCache.builds"), 2.0);
        EXPECT_EQ(snap.value("traceCache.mmap.loads"), 1.0);
        EXPECT_GT(snap.value("traceCache.mmap.bytes"), 0.0);
    }
    const Trace fresh = buildAnnotatedTrace("gzip", smallWorkload(1));
    ASSERT_EQ(a2->size(), fresh.size());
    for (std::uint64_t i = 0; i < fresh.size(); ++i) {
        ASSERT_EQ((*a2)[i].pc, fresh[i].pc) << i;
        ASSERT_EQ((*a2)[i].prod, fresh[i].prod) << i;
        ASSERT_EQ((*a2)[i].mispredicted, fresh[i].mispredicted) << i;
        ASSERT_EQ((*a2)[i].l1Miss, fresh[i].l1Miss) << i;
    }
}

TEST(TraceCache, BytesHeldIsColumnBytesOfCachedInstructions)
{
    // One copy per trace: 47 bytes per cached instruction, counted by
    // the byte budget and the stats alike.
    TraceCache cache;
    std::uint64_t instructions = 0;
    instructions += cache.get("gzip", smallWorkload(1))->size();
    instructions += cache.get("mcf", smallWorkload(1, 3000))->size();
    instructions += cache.get("eon", smallWorkload(2, 2500))->size();
    (void)cache.get("gzip", smallWorkload(1));  // a hit adds nothing
    EXPECT_EQ(cache.bytesHeld(), 47 * instructions);
    const StatsSnapshot snap = cache.statsSnapshot();
    EXPECT_EQ(snap.value("traceCache.bytesHeld"),
              static_cast<double>(47 * instructions));
    EXPECT_EQ(snap.value("traceCache.bytesBuilt"),
              static_cast<double>(47 * instructions));
}

TEST(TraceCache, SpilledEntryReloadKeepsFootprintAndColumns)
{
    TraceCache probe;
    const auto original = probe.get("vpr", smallWorkload(5));
    const std::size_t one = probe.bytesHeld();
    ASSERT_EQ(one, original->footprintBytes());

    const std::string dir = ::testing::TempDir();
    TraceCache cache(one, dir);
    (void)cache.get("vpr", smallWorkload(5));
    (void)cache.get("vpr", smallWorkload(6));  // spills the first
    const auto reloaded = cache.get("vpr", smallWorkload(5));
    ASSERT_EQ(cache.statsSnapshot().value("traceCache.mmap.loads"), 1.0);

    EXPECT_EQ(reloaded->footprintBytes(), original->footprintBytes());
    EXPECT_EQ(cache.bytesHeld(), one);
    const TraceSoA got = reloaded->soa();
    const TraceSoA want = original->soa();
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(std::ranges::equal(got.pc(), want.pc()));
    EXPECT_TRUE(std::ranges::equal(got.memAddr(), want.memAddr()));
    for (int slot = 0; slot < numSrcSlots; ++slot)
        EXPECT_TRUE(std::ranges::equal(got.prod(slot), want.prod(slot)));
    EXPECT_TRUE(std::ranges::equal(got.op(), want.op()));
    EXPECT_TRUE(std::ranges::equal(got.cls(), want.cls()));
    EXPECT_TRUE(std::ranges::equal(got.execLat(), want.execLat()));
    EXPECT_TRUE(std::ranges::equal(got.flags(), want.flags()));
    EXPECT_TRUE(std::ranges::equal(got.dest(), want.dest()));
    EXPECT_TRUE(std::ranges::equal(got.src1(), want.src1()));
    EXPECT_TRUE(std::ranges::equal(got.src2(), want.src2()));
}

TEST(TraceCache, NoSpillDirMeansPlainEviction)
{
    TraceCache probe;
    (void)probe.get("gzip", smallWorkload(1));
    const std::size_t one = probe.bytesHeld();

    TraceCache cache(one);  // no spill dir
    (void)cache.get("gzip", smallWorkload(1));
    (void)cache.get("gzip", smallWorkload(2));
    (void)cache.get("gzip", smallWorkload(1));  // full rebuild
    const StatsSnapshot snap = cache.statsSnapshot();
    EXPECT_EQ(snap.value("traceCache.builds"), 3.0);
    EXPECT_EQ(snap.value("traceCache.spill.writes"), 0.0);
    EXPECT_EQ(snap.value("traceCache.mmap.loads"), 0.0);
}

TEST(TraceCache, UnlimitedCapacityNeverEvicts)
{
    TraceCache cache;  // capacity 0 = unlimited
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        cache.get("gzip", smallWorkload(seed));
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.entries(), 4u);
}

TEST(TraceCache, ClearDropsEntries)
{
    TraceCache cache;
    cache.get("gzip", smallWorkload(1));
    cache.clear();
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.bytesHeld(), 0u);
    cache.get("gzip", smallWorkload(1));
    EXPECT_EQ(cache.builds(), 2u);
}

TEST(TraceCache, StatsSnapshotCarriesRegistry)
{
    TraceCache cache;
    cache.get("gzip", smallWorkload(1));
    cache.get("gzip", smallWorkload(1));
    StatsSnapshot snap = cache.statsSnapshot();
    EXPECT_GE(snap.size(), 10u);  // CI validates --min-stats 10
    EXPECT_EQ(snap.value("traceCache.requests"), 2.0);
    EXPECT_EQ(snap.value("traceCache.builds"), 1.0);
    EXPECT_EQ(snap.value("traceCache.hits"), 1.0);
    EXPECT_DOUBLE_EQ(snap.value("traceCache.hitRate"), 0.5);
    EXPECT_GT(snap.value("traceCache.bytesHeld"), 0.0);
    EXPECT_GT(snap.value("traceCache.peakBytes"), 0.0);
    EXPECT_EQ(snap.value("traceCache.entriesHeld"), 1.0);
    EXPECT_EQ(snap.value("traceCache.evictions"), 0.0);
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

TEST(SweepRunner, ParallelForCoversAllIndicesOnce)
{
    SweepRunner runner(4);
    std::vector<int> touched(257, 0);
    runner.parallelFor(touched.size(), [&](std::size_t i) {
        ++touched[i];  // each index owned by exactly one job
    });
    for (std::size_t i = 0; i < touched.size(); ++i)
        EXPECT_EQ(touched[i], 1) << i;
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
    // bench_latency_sweep runs each 1x8w baseline once for all four
    // forwarding latencies. That is sound only if every job the
    // golden digests pin (cycles and statsDigest, timing and ideal
    // cells, checked as the golden run is) is the same at any latency.
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
