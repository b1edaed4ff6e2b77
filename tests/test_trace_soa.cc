/**
 * @file
 * Tests for the column trace and its view, and the event-driven
 * skip-ahead that consumes it: record <-> column round-trips over
 * every registered workload, footprint accounting, copy independence,
 * and skip-vs-dense equality on synthetic sparse traces where the skip
 * path must actually engage and on every proxy with the checker and
 * the interval profiler observing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "trace/trace_soa.hh"

#include "core/timing_sim.hh"
#include "emu/emulator.hh"
#include "frontend/branch_annotator.hh"
#include "harness/experiment.hh"
#include "mem/latency_annotator.hh"
#include "policy/scheduling.hh"
#include "policy/steering.hh"
#include "sim_checks.hh"
#include "workloads/registry.hh"

namespace csim {
namespace {

const auto r = Program::r;

void
expectRecordEq(const TraceRecord &a, const TraceRecord &b,
               std::size_t i)
{
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.cls, b.cls);
    EXPECT_EQ(a.dest, b.dest);
    EXPECT_EQ(a.src1, b.src1);
    EXPECT_EQ(a.src2, b.src2);
    EXPECT_EQ(a.memAddr, b.memAddr);
    for (int s = 0; s < numSrcSlots; ++s)
        EXPECT_EQ(a.prod[s], b.prod[s]) << "slot " << s;
    EXPECT_EQ(a.execLat, b.execLat);
    EXPECT_EQ(a.isBranch, b.isBranch);
    EXPECT_EQ(a.isCondBranch, b.isCondBranch);
    EXPECT_EQ(a.taken, b.taken);
    EXPECT_EQ(a.mispredicted, b.mispredicted);
    EXPECT_EQ(a.l1Miss, b.l1Miss);
}

void
expectStatsEq(const TraceStats &a, const TraceStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.mispredicted, b.mispredicted);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.fpOps, b.fpOps);
}

TEST(TraceSoA, RoundTripsEveryRegisteredWorkload)
{
    for (const std::string &name : workloadNames()) {
        SCOPED_TRACE(name);
        WorkloadConfig wcfg;
        wcfg.targetInstructions = 2000;
        wcfg.seed = 1;
        const Trace built = buildAnnotatedTrace(name, wcfg);
        ASSERT_TRUE(built.wellFormed());

        // Gather every record with operator[], scatter them into a
        // fresh trace with append(), and gather them back.
        std::vector<TraceRecord> records;
        Trace trace;
        for (std::size_t i = 0; i < built.size(); ++i) {
            records.push_back(built[i]);
            trace.append(records.back());
        }
        ASSERT_EQ(trace.size(), records.size());
        EXPECT_TRUE(trace.wellFormed());

        const TraceSoA soa = trace.soa();
        ASSERT_EQ(soa.size(), records.size());
        for (int s = 0; s < numSrcSlots; ++s)
            EXPECT_TRUE(std::ranges::equal(soa.prod(s),
                                           built.soa().prod(s)));
        for (std::size_t i = 0; i < records.size(); ++i) {
            const TraceRecord &rec = records[i];
            expectRecordEq(trace[i], rec, i);
            // Each column holds the record's field; the packed flags
            // agree with the record, including the precomputed
            // hasDest.
            EXPECT_EQ(soa.pc()[i], rec.pc);
            EXPECT_EQ(soa.cls()[i], rec.cls);
            EXPECT_EQ(soa.execLat()[i], rec.execLat);
            EXPECT_EQ(soa.hasDest(i), rec.hasDest());
            EXPECT_EQ(soa.isLoad(i), rec.isLoad());
            EXPECT_EQ(soa.isStore(i), rec.isStore());
            EXPECT_EQ(soa.isBranch(i), rec.isBranch);
            EXPECT_EQ(soa.taken(i), rec.taken);
            EXPECT_EQ(soa.mispredicted(i), rec.mispredicted);
            EXPECT_EQ(soa.l1Miss(i), rec.l1Miss);
            for (int s = 0; s < numSrcSlots; ++s)
                EXPECT_EQ(soa.prod(s)[i], rec.prod[s]);
        }
        EXPECT_EQ(soa.flags().size(), built.soa().flags().size());
        EXPECT_TRUE(std::ranges::equal(soa.flags(), built.soa().flags()));
        expectStatsEq(trace.stats(), built.stats());
    }
}

TEST(TraceSoA, FootprintIsColumnBytesOnEveryProxy)
{
    // Five 8-byte columns (pc, memAddr, three producers) and seven
    // 1-byte ones: one copy, nothing else. A simulation-only trace
    // holds four of each: memAddr, dest, src1 and src2 are gone.
    EXPECT_EQ(Trace::bytesPerInstruction, 47u);
    EXPECT_EQ(Trace::simulationBytesPerInstruction, 36u);
    for (const std::string &name : workloadNames()) {
        SCOPED_TRACE(name);
        WorkloadConfig wcfg;
        wcfg.targetInstructions = 1500;
        wcfg.seed = 2;
        const Trace trace = buildAnnotatedTrace(name, wcfg);
        ASSERT_GT(trace.size(), 0u);
        EXPECT_EQ(trace.footprintBytes(), 47 * trace.size());
        // Taking a view costs nothing.
        (void)trace.soa();
        EXPECT_EQ(trace.footprintBytes(), 47 * trace.size());

        const Trace sim = buildSimulationTrace(name, wcfg);
        ASSERT_EQ(sim.size(), trace.size());
        EXPECT_EQ(sim.footprintBytes(), 36 * sim.size());
        (void)sim.soa();
        EXPECT_EQ(sim.footprintBytes(), 36 * sim.size());
    }
}

TEST(TraceSoA, ReannotatedCopyLeavesOriginalColumnsUnchanged)
{
    WorkloadConfig wcfg;
    wcfg.targetInstructions = 3000;
    wcfg.seed = 4;
    const Trace original = buildAnnotatedTrace("mcf", wcfg);
    const std::vector<std::uint8_t> flags(original.soa().flags().begin(),
                                          original.soa().flags().end());
    const std::vector<std::uint8_t> lats(original.soa().execLat().begin(),
                                         original.soa().execLat().end());
    std::vector<std::vector<InstId>> prods;
    for (int s = 0; s < numSrcSlots; ++s)
        prods.emplace_back(original.soa().prod(s).begin(),
                           original.soa().prod(s).end());

    // Re-annotate a copy with a tiny predictor, an extra-slow L2 and
    // no producer links at all: every column the passes own changes.
    Trace copy = original;
    annotateBranches(copy, 2);
    MemoryModelConfig slow;
    slow.l2Latency = 90;
    annotateMemory(copy, slow);
    for (std::size_t i = 0; i < copy.size(); ++i)
        copy.setProducers(i, {invalidInstId, invalidInstId,
                              invalidInstId});
    for (int s = 0; s < numSrcSlots; ++s)
        EXPECT_TRUE(std::ranges::all_of(
            copy.soa().prod(s),
            [](InstId p) { return p == invalidInstId; }));
    EXPECT_FALSE(std::ranges::equal(copy.soa().execLat(), lats));
    EXPECT_FALSE(std::ranges::equal(copy.soa().flags(), flags));

    EXPECT_TRUE(std::ranges::equal(original.soa().flags(), flags));
    EXPECT_TRUE(std::ranges::equal(original.soa().execLat(), lats));
    for (int s = 0; s < numSrcSlots; ++s)
        EXPECT_TRUE(std::ranges::equal(original.soa().prod(s), prods[s]));
    EXPECT_NE(original.soa().pc().data(), copy.soa().pc().data());
}

/** A serial dependence chain of uniformly long-latency instructions:
 *  between one completion and the next wakeup the machine is fully
 *  idle, so the event-driven core must skip, not step. */
Trace
sparseSerialChain(unsigned length, std::uint8_t lat)
{
    Program p;
    for (unsigned i = 0; i < length; ++i)
        p.addi(r(1), r(1), 1);
    p.halt();
    p.finalize();
    Emulator emu(p);
    Trace t = emu.run(100000);
    t.linkProducers();
    annotateBranches(t);
    annotateMemory(t);
    for (std::size_t i = 0; i < t.size(); ++i)
        t.setExecLat(i, lat);
    return t;
}

void
expectTimingEq(const SimResult &skip, const SimResult &dense)
{
    ASSERT_EQ(skip.cycles, dense.cycles);
    ASSERT_EQ(skip.instructions, dense.instructions);
    ASSERT_EQ(skip.timing.size(), dense.timing.size());
    for (std::size_t i = 0; i < skip.timing.size(); ++i) {
        SCOPED_TRACE("instruction " + std::to_string(i));
        const InstTiming &s = skip.timing[i];
        const InstTiming &d = dense.timing[i];
        EXPECT_EQ(s.fetch, d.fetch);
        EXPECT_EQ(s.dispatch, d.dispatch);
        EXPECT_EQ(s.ready, d.ready);
        EXPECT_EQ(s.issue, d.issue);
        EXPECT_EQ(s.complete, d.complete);
        EXPECT_EQ(s.commit, d.commit);
        EXPECT_EQ(s.cluster, d.cluster);
        EXPECT_EQ(s.reason, d.reason);
        EXPECT_EQ(s.crossMask, d.crossMask);
    }
}

void
checkSkipMatchesDense(const Trace &trace, const MachineConfig &config)
{
    UnifiedSteering skip_steer(UnifiedSteeringOptions{}, nullptr,
                               nullptr);
    AgeScheduling skip_sched;
    TimingSim skip_sim(config, trace, skip_steer, skip_sched);
    const SimResult skip = skip_sim.run();
    // The whole point of the sparse chain: the skip path must engage.
    EXPECT_GT(skip_sim.skipCycles(), 0u);
    EXPECT_GT(skip_sim.skipSpans(), 0u);

    SimOptions dense_options;
    dense_options.legacyStep = true;
    UnifiedSteering dense_steer(UnifiedSteeringOptions{}, nullptr,
                                nullptr);
    AgeScheduling dense_sched;
    TimingSim dense_sim(config, trace, dense_steer, dense_sched,
                        nullptr, dense_options);
    const SimResult dense = dense_sim.run();
    EXPECT_EQ(dense_sim.skipCycles(), 0u);
    EXPECT_EQ(dense_sim.skipSpans(), 0u);

    expectTimingEq(skip, dense);
    validateTiming(trace, skip, config);
}

TEST(SkipAhead, MatchesDenseOnSparseChainMonolithic)
{
    const Trace trace = sparseSerialChain(200, 20);
    checkSkipMatchesDense(trace, MachineConfig::monolithic());
}

TEST(SkipAhead, MatchesDenseOnSparseChainClustered)
{
    const Trace trace = sparseSerialChain(200, 20);
    checkSkipMatchesDense(trace, MachineConfig::clustered(4));
}

TEST(SkipAhead, MatchesDenseOnMaxLatencyChain)
{
    // The widest idle gap a single dependence edge can produce.
    const Trace trace = sparseSerialChain(64, 255);
    checkSkipMatchesDense(trace, MachineConfig::clustered(8));
}

void
expectSnapshotsEq(const StatsSnapshot &skip, const StatsSnapshot &dense)
{
    const auto &se = skip.entries();
    const auto &de = dense.entries();
    ASSERT_EQ(se.size(), de.size());
    for (std::size_t i = 0; i < se.size(); ++i) {
        SCOPED_TRACE(se[i].first);
        EXPECT_EQ(se[i].first, de[i].first);
        EXPECT_EQ(se[i].second.value, de[i].second.value);
        EXPECT_EQ(se[i].second.buckets, de[i].second.buckets);
    }
}

/**
 * Run one observed cell (live checker + interval profiler) on the
 * skip-ahead loop and again with the idle probe off; observers must
 * see the same cycles either way. Returns the cycles the observed run
 * skipped.
 */
std::uint64_t
checkObservedSkipMatchesDense(const Trace &trace,
                              const MachineConfig &config)
{
    ExperimentConfig cfg;
    cfg.verify.checker = true;
    cfg.verify.panicOnViolation = false;
    cfg.profile.enabled = true;
    cfg.profile.intervalCycles = 500;
    const PolicyRun skip =
        runPolicy(trace, config, PolicyKind::FocusedLocStall, cfg);
    cfg.simOptions.legacyStep = true;
    const PolicyRun dense =
        runPolicy(trace, config, PolicyKind::FocusedLocStall, cfg);

    EXPECT_EQ(skip.checkerViolations, 0u) << skip.checkerDetail;
    EXPECT_EQ(dense.checkerViolations, 0u) << dense.checkerDetail;
    EXPECT_EQ(dense.skipCycles, 0u);
    expectTimingEq(skip.sim, dense.sim);
    expectSnapshotsEq(skip.sim.stats, dense.sim.stats);
    EXPECT_FALSE(skip.intervals.empty());
    EXPECT_TRUE(skip.intervals.records == dense.intervals.records);
    return skip.skipCycles;
}

TEST(SkipAhead, ObservedRunsMatchDenseOnEveryProxy)
{
    for (const std::string &name : workloadNames()) {
        WorkloadConfig wcfg;
        wcfg.targetInstructions = 4000;
        wcfg.seed = 1;
        const Trace trace = buildAnnotatedTrace(name, wcfg);
        for (unsigned clusters : {4u, 8u}) {
            const MachineConfig config =
                MachineConfig::clustered(clusters);
            SCOPED_TRACE(name + "/" + config.name());
            // Attached observers must not stop the skip-ahead.
            EXPECT_GT(checkObservedSkipMatchesDense(trace, config), 0u);
        }
    }
}

} // anonymous namespace
} // namespace csim
