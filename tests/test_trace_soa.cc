/**
 * @file
 * Tests for the structure-of-arrays trace view and the event-driven
 * skip-ahead that consumes it: AoS <-> SoA round-trips over every
 * registered workload, footprint accounting, and skip-vs-dense
 * equality on synthetic sparse traces where the skip path must
 * actually engage and on every proxy with the checker, the interval
 * profiler and the adaptive manager observing.
 */

#include <gtest/gtest.h>

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
        const Trace trace = buildAnnotatedTrace(name, wcfg);
        ASSERT_TRUE(trace.wellFormed());

        const TraceSoA &soa = trace.soa();
        ASSERT_EQ(soa.size(), trace.size());

        std::uint64_t links = 0;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            // Per-field columns and the reassembled record agree with
            // the AoS source.
            expectRecordEq(soa.record(i), trace[i], i);
            EXPECT_EQ(soa.pc()[i], trace[i].pc);
            EXPECT_EQ(soa.cls()[i], trace[i].cls);
            EXPECT_EQ(soa.execLat()[i], trace[i].execLat);
            EXPECT_EQ(soa.hasDest(i), trace[i].hasDest());
            EXPECT_EQ(soa.isLoad(i), trace[i].isLoad());
            EXPECT_EQ(soa.isStore(i), trace[i].isStore());
            EXPECT_EQ(soa.isBranch(i), trace[i].isBranch);
            EXPECT_EQ(soa.mispredicted(i), trace[i].mispredicted);
            EXPECT_EQ(soa.l1Miss(i), trace[i].l1Miss);
            for (int s = 0; s < numSrcSlots; ++s) {
                EXPECT_EQ(soa.prod(s)[i], trace[i].prod[s]);
                if (trace[i].prod[s] != invalidInstId)
                    ++links;
            }
        }
        EXPECT_EQ(soa.producerLinks(), links);

        // Whole-trace round trip preserves every record and the
        // aggregate statistics.
        const Trace back = soa.toTrace();
        ASSERT_EQ(back.size(), trace.size());
        for (std::size_t i = 0; i < trace.size(); ++i)
            expectRecordEq(back[i], trace[i], i);
        expectStatsEq(soa.stats(), trace.stats());
        expectStatsEq(back.stats(), trace.stats());
    }
}

TEST(TraceSoA, FootprintCountsRecordsAndArena)
{
    WorkloadConfig wcfg;
    wcfg.targetInstructions = 1000;
    wcfg.seed = 1;
    Trace trace = buildAnnotatedTrace(workloadNames().front(), wcfg);

    const std::size_t aos_bytes =
        trace.size() * sizeof(TraceRecord);
    EXPECT_EQ(trace.footprintBytes(), aos_bytes);

    const TraceSoA &soa = trace.soa();
    EXPECT_GT(soa.arenaBytes(), 0u);
    EXPECT_EQ(trace.footprintBytes(), aos_bytes + soa.arenaBytes());

    // Mutation drops the cached view (and its bytes) again.
    trace[0].execLat = trace[0].execLat;
    EXPECT_EQ(trace.footprintBytes(), aos_bytes);
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
        t[i].execLat = lat;
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
 * Run one observed cell (live checker + interval profiler, plus
 * whatever `cfg` adds) on the skip-ahead loop and again with the idle
 * probe off; observers must see the same cycles either way. Returns
 * the cycles the observed run skipped.
 */
std::uint64_t
checkObservedSkipMatchesDense(const Trace &trace,
                              const MachineConfig &config,
                              ExperimentConfig cfg)
{
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
            EXPECT_GT(
                checkObservedSkipMatchesDense(trace, config, {}), 0u);
        }
    }
}

TEST(SkipAhead, AdaptiveRunMatchesDense)
{
    // The manager retunes live policy knobs at interval closes, so any
    // hook a skipped span dropped or reordered would change decisions.
    WorkloadConfig wcfg;
    wcfg.targetInstructions = 4000;
    wcfg.seed = 1;
    const Trace trace = buildAnnotatedTrace("mcf", wcfg);
    ExperimentConfig cfg;
    cfg.adaptive.enabled = true;
    cfg.adaptive.intervalCycles = 256;
    cfg.adaptive.reactionIntervals = 1;
    cfg.adaptive.minDwellIntervals = 1;
    EXPECT_GT(checkObservedSkipMatchesDense(
                  trace, MachineConfig::clustered(4), cfg),
              0u);
}

} // anonymous namespace
} // namespace csim
