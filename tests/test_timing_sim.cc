/**
 * @file
 * Targeted unit tests for the clustered timing simulator: latency,
 * bandwidth, forwarding, fetch and misprediction behaviour on small
 * hand-built programs, pinned results across ROB geometries, and the
 * bound on what a run allocates per instruction.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "core/timing_sim.hh"

#include "emu/emulator.hh"
#include "frontend/branch_annotator.hh"
#include "harness/experiment.hh"
#include "mem/latency_annotator.hh"
#include "obs/run_ledger.hh"
#include "policy/scheduling.hh"
#include "policy/steering.hh"
#include "sim_checks.hh"
#include "workloads/registry.hh"

namespace csim {
namespace {

const auto r = Program::r;
const auto f = Program::f;

Trace
prepare(const Program &p, std::uint64_t n = 100000)
{
    Emulator emu(p);
    Trace t = emu.run(n);
    t.linkProducers();
    annotateBranches(t);
    annotateMemory(t);
    return t;
}

SimResult
runOn(const Trace &trace, const MachineConfig &config,
      SteeringPolicy &steer)
{
    AgeScheduling age;
    return TimingSim(config, trace, steer, age).run();
}

SimResult
runMono(const Trace &trace)
{
    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    return runOn(trace, MachineConfig::monolithic(), steer);
}

TEST(TimingSim, EmptyTrace)
{
    Trace t;
    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    AgeScheduling age;
    SimResult res =
        TimingSim(MachineConfig::monolithic(), t, steer, age).run();
    EXPECT_EQ(res.cycles, 0u);
    EXPECT_EQ(res.instructions, 0u);
}

TEST(TimingSim, SerialChainIssuesBackToBack)
{
    Program p;
    for (int i = 0; i < 64; ++i)
        p.addi(r(1), r(1), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    SimResult res = runMono(t);
    validateTiming(t, res, MachineConfig::monolithic());

    // Dependent single-cycle adds issue one per cycle.
    for (std::size_t i = 20; i < 60; ++i) {
        EXPECT_EQ(res.timing[i].issue, res.timing[i - 1].issue + 1)
            << "at " << i;
    }
}

TEST(TimingSim, IndependentAddsReachFullWidth)
{
    Program p;
    for (int i = 0; i < 16; ++i)
        for (int j = 1; j <= 8; ++j)
            p.addi(r(j), r(j), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    SimResult res = runMono(t);
    validateTiming(t, res, MachineConfig::monolithic());

    // 128 instructions in 8 independent chains of 16: the execution
    // portion is ~16 cycles, so total runtime is pipeline fill + ~16.
    const MachineConfig mc = MachineConfig::monolithic();
    EXPECT_LT(res.cycles, mc.frontendDepth + 16 + 16);
}

TEST(TimingSim, LoadToUseIsThreeCycles)
{
    Program p;
    p.lui(r(1), 0x1000);
    p.lui(r(2), 5);
    p.st(r(2), r(1), 0);
    p.ld(r(3), r(1), 0);
    p.ld(r(3), r(1), 0);            // warm load (hit)
    p.addi(r(4), r(3), 1);          // consumer of the hit load
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    ASSERT_EQ(t[4].execLat, 3u);
    SimResult res = runMono(t);
    validateTiming(t, res, MachineConfig::monolithic());
    EXPECT_EQ(res.timing[5].issue, res.timing[4].issue + 3);
}

TEST(TimingSim, L1MissAddsL2Latency)
{
    Program p;
    p.lui(r(1), 0x1000);
    p.ld(r(3), r(1), 0);            // cold miss
    p.addi(r(4), r(3), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    ASSERT_EQ(t[1].execLat, 23u);
    SimResult res = runMono(t);
    EXPECT_EQ(res.timing[2].issue, res.timing[1].issue + 23);
}

TEST(TimingSim, CrossClusterForwardingDelay)
{
    // Mod-N steering alternates clusters, so a dependent pair lands
    // on different clusters and pays the 2-cycle bypass.
    Program p;
    p.addi(r(1), r(1), 1);          // 0 -> cluster 0
    p.addi(r(2), r(1), 1);          // 1 -> cluster 1, reads 0
    p.halt();
    p.finalize();
    Trace t = prepare(p);

    ModNSteering modn;
    MachineConfig mc = MachineConfig::clustered(2);
    SimResult res = runOn(t, mc, modn);
    validateTiming(t, res, mc);

    ASSERT_NE(res.timing[0].cluster, res.timing[1].cluster);
    EXPECT_EQ(res.timing[1].issue,
              res.timing[0].complete + mc.fwdLatency);
    EXPECT_EQ(res.globalValues, 1u);
    EXPECT_NE(res.timing[1].crossMask, 0);
}

TEST(TimingSim, LocalConsumerAvoidsForwarding)
{
    Program p;
    p.addi(r(1), r(1), 1);
    p.addi(r(2), r(1), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);

    // Dependence steering collocates the pair.
    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    MachineConfig mc = MachineConfig::clustered(2);
    SimResult res = runOn(t, mc, steer);
    EXPECT_EQ(res.timing[0].cluster, res.timing[1].cluster);
    EXPECT_EQ(res.timing[1].issue, res.timing[0].complete);
    EXPECT_EQ(res.globalValues, 0u);
}

TEST(TimingSim, MemoryDependenceDoesNotPayBypass)
{
    Program p;
    p.lui(r(1), 0x1000);
    p.lui(r(2), 9);
    p.st(r(2), r(1), 0);            // 2
    p.ld(r(3), r(1), 0);            // 3: store-to-load dep
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    ASSERT_EQ(t[3].prod[srcSlotMem], 2u);

    ModNSteering modn;  // force the pair apart
    MachineConfig mc = MachineConfig::clustered(2);
    SimResult res = runOn(t, mc, modn);
    // The load waits for the store via the shared L1 but pays no
    // forwarding latency for the memory dependence itself.
    EXPECT_GE(res.timing[3].issue, res.timing[2].complete);
}

TEST(TimingSim, MispredictedBranchStallsFetch)
{
    Program p;
    Label skip = p.newLabel();
    p.lui(r(1), 0);
    p.beq(r(1), skip);              // always taken
    p.nop();
    p.bind(skip);
    for (int i = 0; i < 20; ++i)
        p.addi(r(2), r(2), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);

    // Force the branch to be a misprediction.
    for (std::size_t i = 0; i < t.size(); ++i)
        if (t[i].isCondBranch)
            t.setMispredicted(i, true);
    ASSERT_TRUE(t[1].mispredicted);

    SimResult res = runMono(t);
    // The instruction after the branch is fetched only once the
    // branch resolves.
    EXPECT_EQ(res.timing[2].fetch, res.timing[1].complete + 1);
    EXPECT_GE(res.timing[2].dispatch,
              res.timing[2].fetch +
                  MachineConfig::monolithic().frontendDepth);
}

TEST(TimingSim, CorrectlyPredictedBranchDoesNotStall)
{
    Program p;
    Label skip = p.newLabel();
    p.lui(r(1), 0);
    p.beq(r(1), skip);
    p.nop();
    p.bind(skip);
    p.addi(r(2), r(2), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    for (std::size_t i = 0; i < t.size(); ++i)
        t.setMispredicted(i, false);

    SimResult res = runMono(t);
    // Taken branch ends the fetch group; the target comes next cycle.
    EXPECT_EQ(res.timing[2].fetch, res.timing[1].fetch + 1);
}

TEST(TimingSim, FpPortLimitThrottlesIssue)
{
    // 16 independent FP adds on the monolithic machine (4 fp ports):
    // at least 4 issue cycles.
    Program p;
    for (int i = 0; i < 16; ++i)
        p.fadd(f(i % 8), f(8 + (i % 8)), f(16 + (i % 8)));
    p.halt();
    p.finalize();
    // Break the false output-dependences: use distinct destinations.
    Program q;
    for (int i = 0; i < 16; ++i)
        q.fadd(f(i), f(16 + (i % 8)), f(24 + (i % 4)));
    q.halt();
    q.finalize();
    Trace t = prepare(q);
    SimResult res = runMono(t);
    validateTiming(t, res, MachineConfig::monolithic());

    Cycle first = res.timing[0].issue;
    Cycle last = res.timing[15].issue;
    EXPECT_GE(last - first + 1, 4u);
}

TEST(TimingSim, DeterministicAcrossRuns)
{
    Program p;
    Label loop = p.newLabel();
    p.lui(r(1), 500);
    p.bind(loop);
    p.addi(r(1), r(1), -1);
    p.addi(r(2), r(2), 3);
    p.bne(r(1), loop);
    p.halt();
    p.finalize();
    Trace t = prepare(p);

    UnifiedSteering s1(UnifiedSteeringOptions{}, nullptr, nullptr);
    UnifiedSteering s2(UnifiedSteeringOptions{}, nullptr, nullptr);
    MachineConfig mc = MachineConfig::clustered(4);
    SimResult r1 = runOn(t, mc, s1);
    SimResult r2 = runOn(t, mc, s2);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.globalValues, r2.globalValues);
}

TEST(TimingSim, IlpAccountingSumsMatch)
{
    Program p;
    Label loop = p.newLabel();
    p.lui(r(1), 300);
    p.bind(loop);
    p.addi(r(1), r(1), -1);
    p.addi(r(2), r(2), 3);
    p.addi(r(3), r(3), 5);
    p.bne(r(1), loop);
    p.halt();
    p.finalize();
    Trace t = prepare(p);

    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    AgeScheduling age;
    MachineConfig mc = MachineConfig::clustered(8);
    SimResult res = TimingSim(mc, t, steer, age).run();

    ASSERT_EQ(res.ilpCycles.size(), ilpMaxAvailable + 1);
    ASSERT_EQ(res.ilpIssuedSum.size(), ilpMaxAvailable + 1);
    std::uint64_t cycles = 0, issued = 0;
    for (std::size_t a = 0; a < res.ilpCycles.size(); ++a) {
        cycles += res.ilpCycles[a];
        issued += res.ilpIssuedSum[a];
    }
    EXPECT_EQ(cycles, res.cycles);
    EXPECT_EQ(issued, res.instructions);
}

/** A policy that always stalls: the core must detect the deadlock. */
class AlwaysStall : public SteeringPolicy
{
  public:
    SteerDecision
    steer(const CoreView &, const SteerRequest &) override
    {
        SteerDecision d;
        d.stall = true;
        return d;
    }
    const char *name() const override { return "always-stall"; }
};

TEST(TimingSimDeath, PolicyDeadlockIsCaught)
{
    Program p;
    p.addi(r(1), r(1), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    AlwaysStall stall;
    AgeScheduling age;
    SimOptions opts;
    opts.maxCpi = 10;
    TimingSim sim(MachineConfig::clustered(2), t, stall, age, nullptr,
                  opts);
    EXPECT_DEATH(sim.run(), "cycle limit");
}

TEST(CycleStamp, RoundTripsEveryStorableCycle)
{
    EXPECT_EQ(CycleStamp::maxCycle, (Cycle{1} << 32) - 2);
    EXPECT_EQ(Cycle{CycleStamp{}}, invalidCycle);
    for (const Cycle c :
         {Cycle{0}, Cycle{1}, CycleStamp::maxCycle, invalidCycle}) {
        CycleStamp s;
        s = c;
        EXPECT_EQ(Cycle{s}, c);
        EXPECT_EQ(Cycle{CycleStamp{c}}, c);
        EXPECT_EQ(s, CycleStamp{c});
    }
    EXPECT_FALSE(CycleStamp{Cycle{0}} == CycleStamp{});
}

TEST(CycleStampDeath, WritePastTheLimitPanics)
{
    // The all-ones pattern is invalidCycle's; every cycle from there
    // up, save invalidCycle itself, has no stamp and must not wrap.
    for (const Cycle c : {Cycle{UINT32_MAX}, Cycle{UINT32_MAX} + 1,
                          Cycle{1} << 40, invalidCycle - 1}) {
        CycleStamp s;
        EXPECT_DEATH(s = c, "CycleStamp: cycle " + std::to_string(c) +
                     " is past the 32-bit stamp limit 4294967294");
        EXPECT_DEATH(CycleStamp{c}, "past the 32-bit stamp limit");
    }
}

TEST(TimingSimDeath, StampPastTheLimitPanicsAtTheWrite)
{
    // With a bypass of nearly 2^32 cycles, the cross-cluster consumer
    // becomes ready past the last storable cycle. The run must stop
    // at that wakeup, a few cycles in, not finish with wrapped stamps.
    Program p;
    p.addi(r(1), r(1), 1);          // 0 -> cluster 0
    p.addi(r(2), r(1), 1);          // 1 -> cluster 1, reads 0
    p.halt();
    p.finalize();
    Trace t = prepare(p);

    ModNSteering modn;
    MachineConfig mc = MachineConfig::clustered(2);
    mc.fwdLatency = UINT32_MAX;
    EXPECT_DEATH(runOn(t, mc, modn),
                 "CycleStamp: cycle [0-9]+ is past the 32-bit stamp "
                 "limit 4294967294");
}

TEST(TimingSim, FetchQueueBoundLimitsRunahead)
{
    // A 23-cycle load miss blocks issue/commit; fetch may run ahead
    // only by the front-end buffer (depth x width + one group).
    Program p;
    p.lui(r(1), 0x1000);
    p.ld(r(2), r(1), 0);            // cold miss (23 cycles)
    p.addi(r(2), r(2), 1);          // serialise behind it
    for (int i = 0; i < 400; ++i)
        p.addi(r(3), r(3), 1);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    SimResult res = runMono(t);

    const MachineConfig mc = MachineConfig::monolithic();
    const std::uint64_t bound =
        static_cast<std::uint64_t>(mc.frontendDepth) * mc.fetchWidth +
        mc.fetchWidth;
    // While the miss is outstanding (first ~23 cycles), no
    // instruction more than `bound` past the (stalled) steering point
    // may have been fetched: check instruction 300 was fetched well
    // after the load.
    EXPECT_GT(res.timing[300].fetch, res.timing[1].fetch + 2);
    (void)bound;
}

TEST(TimingSim, RobCapsInFlightInstructions)
{
    // A long miss at the head: younger instructions cannot dispatch
    // past the 256-entry ROB.
    Program p;
    p.lui(r(1), 0x1000);
    p.ld(r(2), r(1), 0);            // miss, commits late
    for (int i = 0; i < 500; ++i)
        p.addi(r(3), r(3), 1);      // independent filler
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    SimResult res = runMono(t);

    const MachineConfig mc = MachineConfig::monolithic();
    // Instruction at ROB distance beyond the miss cannot dispatch
    // before the miss commits.
    const std::size_t beyond = 1 + mc.robEntries;
    ASSERT_LT(beyond, t.size());
    EXPECT_GE(res.timing[beyond].dispatch, res.timing[1].commit);
}

TEST(TimingSim, MonolithicNeverForwards)
{
    Program p;
    Label loop = p.newLabel();
    p.lui(r(1), 200);
    p.bind(loop);
    p.addi(r(1), r(1), -1);
    p.addi(r(2), r(2), 1);
    p.bne(r(1), loop);
    p.halt();
    p.finalize();
    Trace t = prepare(p);
    SimResult res = runMono(t);
    EXPECT_EQ(res.globalValues, 0u);
    for (const InstTiming &ti : res.timing)
        EXPECT_EQ(ti.crossMask, 0);
}

// ---------------------------------------------------------------------
// ROB geometry. The core's in-flight side tables are rings sized by
// the ROB (bit_ceil(min(robEntries, n)) slots), and no golden bench
// varies robEntries, so these cells pin odd, tiny, power-of-two-
// adjacent and larger-than-trace-window ROBs. The numbers were recorded
// with per-instruction side tables, before the rings: an aliased ring
// slot can still yield a legal schedule, which only a pinned number
// catches.

struct RobPin
{
    const char *workload;
    /** 1 = 1x8w, 4 = 4x2w, 8 = 8x1w. */
    unsigned clusters;
    unsigned fwdLatency;
    unsigned robEntries;
    std::uint64_t cycles;
    const char *statsDigest;
};

// {gcc, mcf, vpr, bzip2} x {1x8w, 4x2w, 8x1w} x fwdLatency {0, 5} x
// robEntries {1, 2, 3, 7, 100, 255, 256, 257, 300, 600}: 6000
// instructions at seed 7, focused+loc+stall (+proactive on 8x1w).
const RobPin robPins[] = {
    {"gcc", 1, 0, 1, 23243, "2915efbb4e0daf6e"},
    {"gcc", 1, 0, 2, 14262, "e22dd2b3d5e1d34e"},
    {"gcc", 1, 0, 3, 11567, "751340a2221e95d9"},
    {"gcc", 1, 0, 7, 8529, "01f15c40399a5bda"},
    {"gcc", 1, 0, 100, 5430, "07b63088ea7d72c1"},
    {"gcc", 1, 0, 255, 5407, "779582b3ae770f73"},
    {"gcc", 1, 0, 256, 5407, "779582b3ae770f73"},
    {"gcc", 1, 0, 257, 5407, "779582b3ae770f73"},
    {"gcc", 1, 0, 300, 5407, "779582b3ae770f73"},
    {"gcc", 1, 0, 600, 5407, "779582b3ae770f73"},
    {"gcc", 1, 5, 1, 23243, "2915efbb4e0daf6e"},
    {"gcc", 1, 5, 2, 14262, "e22dd2b3d5e1d34e"},
    {"gcc", 1, 5, 3, 11567, "751340a2221e95d9"},
    {"gcc", 1, 5, 7, 8529, "01f15c40399a5bda"},
    {"gcc", 1, 5, 100, 5430, "07b63088ea7d72c1"},
    {"gcc", 1, 5, 255, 5407, "779582b3ae770f73"},
    {"gcc", 1, 5, 256, 5407, "779582b3ae770f73"},
    {"gcc", 1, 5, 257, 5407, "779582b3ae770f73"},
    {"gcc", 1, 5, 300, 5407, "779582b3ae770f73"},
    {"gcc", 1, 5, 600, 5407, "779582b3ae770f73"},
    {"gcc", 4, 0, 1, 23243, "b609fd19b8ca917a"},
    {"gcc", 4, 0, 2, 14262, "1c3736db19f2539b"},
    {"gcc", 4, 0, 3, 11567, "0f714589dca0ea54"},
    {"gcc", 4, 0, 7, 8692, "d26f7fafe7842511"},
    {"gcc", 4, 0, 100, 5455, "dfb018df4679ff55"},
    {"gcc", 4, 0, 255, 5423, "0957eac553cc5ffd"},
    {"gcc", 4, 0, 256, 5423, "0957eac553cc5ffd"},
    {"gcc", 4, 0, 257, 5423, "0957eac553cc5ffd"},
    {"gcc", 4, 0, 300, 5423, "0957eac553cc5ffd"},
    {"gcc", 4, 0, 600, 5423, "0957eac553cc5ffd"},
    {"gcc", 4, 5, 1, 23243, "b609fd19b8ca917a"},
    {"gcc", 4, 5, 2, 14262, "1c3736db19f2539b"},
    {"gcc", 4, 5, 3, 11605, "345b0dc5cf936295"},
    {"gcc", 4, 5, 7, 10575, "90ef45698f6ae83e"},
    {"gcc", 4, 5, 100, 5592, "b241a6d118a6e61c"},
    {"gcc", 4, 5, 255, 5477, "1f8fe34d5141cd32"},
    {"gcc", 4, 5, 256, 5477, "1f8fe34d5141cd32"},
    {"gcc", 4, 5, 257, 5477, "1f8fe34d5141cd32"},
    {"gcc", 4, 5, 300, 5477, "1f8fe34d5141cd32"},
    {"gcc", 4, 5, 600, 5477, "1f8fe34d5141cd32"},
    {"gcc", 8, 0, 1, 23243, "bd6f0409e7d0c36a"},
    {"gcc", 8, 0, 2, 14262, "fe9f16365969c475"},
    {"gcc", 8, 0, 3, 11567, "d04fb3b3fbeae3c3"},
    {"gcc", 8, 0, 7, 8920, "93bb85a4d489f8ef"},
    {"gcc", 8, 0, 100, 5522, "ba4ac7efb4cd7cb3"},
    {"gcc", 8, 0, 255, 5472, "74af8f64e7971853"},
    {"gcc", 8, 0, 256, 5472, "74af8f64e7971853"},
    {"gcc", 8, 0, 257, 5472, "74af8f64e7971853"},
    {"gcc", 8, 0, 300, 5472, "74af8f64e7971853"},
    {"gcc", 8, 0, 600, 5472, "74af8f64e7971853"},
    {"gcc", 8, 5, 1, 23243, "bd6f0409e7d0c36a"},
    {"gcc", 8, 5, 2, 14262, "fe9f16365969c475"},
    {"gcc", 8, 5, 3, 11605, "6e54a715374b08c0"},
    {"gcc", 8, 5, 7, 10576, "256c33d3769bddb1"},
    {"gcc", 8, 5, 100, 5787, "6a05a246ec2df1d9"},
    {"gcc", 8, 5, 255, 5614, "9132eb4d10e735d5"},
    {"gcc", 8, 5, 256, 5612, "242c37a38955fee9"},
    {"gcc", 8, 5, 257, 5617, "69f5b29d8f1da846"},
    {"gcc", 8, 5, 300, 5608, "bf7ec581d6edcfd4"},
    {"gcc", 8, 5, 600, 5586, "11b6af04ec8b702e"},
    {"mcf", 1, 0, 1, 46474, "26015a4f079dd90a"},
    {"mcf", 1, 0, 2, 36977, "2941388aa3e7463a"},
    {"mcf", 1, 0, 3, 34568, "a81538d97e0f565c"},
    {"mcf", 1, 0, 7, 31789, "85bba085cdebc1f3"},
    {"mcf", 1, 0, 100, 18031, "9f8c42867a05bd9c"},
    {"mcf", 1, 0, 255, 18031, "4939a1b5c731d982"},
    {"mcf", 1, 0, 256, 18031, "4939a1b5c731d982"},
    {"mcf", 1, 0, 257, 18031, "4939a1b5c731d982"},
    {"mcf", 1, 0, 300, 18031, "4939a1b5c731d982"},
    {"mcf", 1, 0, 600, 18031, "4939a1b5c731d982"},
    {"mcf", 1, 5, 1, 46474, "26015a4f079dd90a"},
    {"mcf", 1, 5, 2, 36977, "2941388aa3e7463a"},
    {"mcf", 1, 5, 3, 34568, "a81538d97e0f565c"},
    {"mcf", 1, 5, 7, 31789, "85bba085cdebc1f3"},
    {"mcf", 1, 5, 100, 18031, "9f8c42867a05bd9c"},
    {"mcf", 1, 5, 255, 18031, "4939a1b5c731d982"},
    {"mcf", 1, 5, 256, 18031, "4939a1b5c731d982"},
    {"mcf", 1, 5, 257, 18031, "4939a1b5c731d982"},
    {"mcf", 1, 5, 300, 18031, "4939a1b5c731d982"},
    {"mcf", 1, 5, 600, 18031, "4939a1b5c731d982"},
    {"mcf", 4, 0, 1, 46474, "1230e83a5db4aa12"},
    {"mcf", 4, 0, 2, 36977, "3eeb730036e84d65"},
    {"mcf", 4, 0, 3, 34568, "998c13c4c5ebcc9a"},
    {"mcf", 4, 0, 7, 31789, "a8016fa3b824b3a1"},
    {"mcf", 4, 0, 100, 18031, "92567f64ce256644"},
    {"mcf", 4, 0, 255, 18031, "4614fc00905b649e"},
    {"mcf", 4, 0, 256, 18031, "4614fc00905b649e"},
    {"mcf", 4, 0, 257, 18031, "4614fc00905b649e"},
    {"mcf", 4, 0, 300, 18031, "4614fc00905b649e"},
    {"mcf", 4, 0, 600, 18031, "4614fc00905b649e"},
    {"mcf", 4, 5, 1, 46474, "1230e83a5db4aa12"},
    {"mcf", 4, 5, 2, 37019, "62fda24cf89371ff"},
    {"mcf", 4, 5, 3, 36735, "5829d75b2d3badef"},
    {"mcf", 4, 5, 7, 31789, "b4a67248f38b6c1f"},
    {"mcf", 4, 5, 100, 18221, "192d6086b17b6bb7"},
    {"mcf", 4, 5, 255, 18311, "2c6602540735df87"},
    {"mcf", 4, 5, 256, 18311, "2c6602540735df87"},
    {"mcf", 4, 5, 257, 18311, "2c6602540735df87"},
    {"mcf", 4, 5, 300, 18311, "2c6602540735df87"},
    {"mcf", 4, 5, 600, 18311, "2c6602540735df87"},
    {"mcf", 8, 0, 1, 46474, "d96137204ca3f04c"},
    {"mcf", 8, 0, 2, 36977, "f12ecbe545329eff"},
    {"mcf", 8, 0, 3, 34568, "ab201bfee0bcc393"},
    {"mcf", 8, 0, 7, 32856, "1009f5c56a55d5c0"},
    {"mcf", 8, 0, 100, 18032, "49aceec008f843c9"},
    {"mcf", 8, 0, 255, 18032, "85468de15503ce58"},
    {"mcf", 8, 0, 256, 18032, "85468de15503ce58"},
    {"mcf", 8, 0, 257, 18032, "85468de15503ce58"},
    {"mcf", 8, 0, 300, 18032, "85468de15503ce58"},
    {"mcf", 8, 0, 600, 18032, "85468de15503ce58"},
    {"mcf", 8, 5, 1, 46474, "d96137204ca3f04c"},
    {"mcf", 8, 5, 2, 37019, "5c71ba17c00e4878"},
    {"mcf", 8, 5, 3, 34603, "a99a3990bd8bda05"},
    {"mcf", 8, 5, 7, 32856, "e9f646dea58b758e"},
    {"mcf", 8, 5, 100, 18332, "bd11918ee707a88a"},
    {"mcf", 8, 5, 255, 18412, "a02ccc8530d09691"},
    {"mcf", 8, 5, 256, 18412, "a02ccc8530d09691"},
    {"mcf", 8, 5, 257, 18412, "a02ccc8530d09691"},
    {"mcf", 8, 5, 300, 18412, "a02ccc8530d09691"},
    {"mcf", 8, 5, 600, 18412, "a02ccc8530d09691"},
    {"vpr", 1, 0, 1, 21297, "44be2de2aa5f4fd5"},
    {"vpr", 1, 0, 2, 12356, "f84fa8ac5e6b1e31"},
    {"vpr", 1, 0, 3, 9381, "1ff2c27d5b64adc7"},
    {"vpr", 1, 0, 7, 6753, "1df4dc7f3b892e18"},
    {"vpr", 1, 0, 100, 2290, "56bfa2ffce3edf8d"},
    {"vpr", 1, 0, 255, 2009, "18f332e2891ee8cc"},
    {"vpr", 1, 0, 256, 2009, "18f332e2891ee8cc"},
    {"vpr", 1, 0, 257, 2009, "18f332e2891ee8cc"},
    {"vpr", 1, 0, 300, 2009, "18f332e2891ee8cc"},
    {"vpr", 1, 0, 600, 2009, "18f332e2891ee8cc"},
    {"vpr", 1, 5, 1, 21297, "44be2de2aa5f4fd5"},
    {"vpr", 1, 5, 2, 12356, "f84fa8ac5e6b1e31"},
    {"vpr", 1, 5, 3, 9381, "1ff2c27d5b64adc7"},
    {"vpr", 1, 5, 7, 6753, "1df4dc7f3b892e18"},
    {"vpr", 1, 5, 100, 2290, "56bfa2ffce3edf8d"},
    {"vpr", 1, 5, 255, 2009, "18f332e2891ee8cc"},
    {"vpr", 1, 5, 256, 2009, "18f332e2891ee8cc"},
    {"vpr", 1, 5, 257, 2009, "18f332e2891ee8cc"},
    {"vpr", 1, 5, 300, 2009, "18f332e2891ee8cc"},
    {"vpr", 1, 5, 600, 2009, "18f332e2891ee8cc"},
    {"vpr", 4, 0, 1, 21297, "8f3096e8cb5aa05a"},
    {"vpr", 4, 0, 2, 12356, "8a761f1375f58a0e"},
    {"vpr", 4, 0, 3, 9381, "f10330ebb845c228"},
    {"vpr", 4, 0, 7, 6755, "e45cfa1392ea2b0f"},
    {"vpr", 4, 0, 100, 2333, "4568622049660c8e"},
    {"vpr", 4, 0, 255, 2011, "5ae35180f45861c2"},
    {"vpr", 4, 0, 256, 2011, "24b438c547743714"},
    {"vpr", 4, 0, 257, 2011, "44928c962bb50dbd"},
    {"vpr", 4, 0, 300, 2011, "0d60c0a2c7357b01"},
    {"vpr", 4, 0, 600, 2011, "0d60c0a2c7357b01"},
    {"vpr", 4, 5, 1, 21297, "8f3096e8cb5aa05a"},
    {"vpr", 4, 5, 2, 12356, "8a761f1375f58a0e"},
    {"vpr", 4, 5, 3, 9417, "eb289cea3b5a4203"},
    {"vpr", 4, 5, 7, 7789, "1ffab8cd4bbae0c5"},
    {"vpr", 4, 5, 100, 2711, "d8a15d7fb55da8aa"},
    {"vpr", 4, 5, 255, 2178, "13fe930c646ba6fa"},
    {"vpr", 4, 5, 256, 2187, "dd7c9d56d09bf923"},
    {"vpr", 4, 5, 257, 2187, "ba05ca12d09a4759"},
    {"vpr", 4, 5, 300, 2184, "ce4e39356218f698"},
    {"vpr", 4, 5, 600, 2177, "d52a23874645635b"},
    {"vpr", 8, 0, 1, 21297, "088de0c4c6e478e1"},
    {"vpr", 8, 0, 2, 12356, "6754ff32a0743b38"},
    {"vpr", 8, 0, 3, 9381, "a3af338ce6475552"},
    {"vpr", 8, 0, 7, 7262, "1de0f739910b199d"},
    {"vpr", 8, 0, 100, 2538, "dc527393a190944f"},
    {"vpr", 8, 0, 255, 2044, "fe7f0995d10ca5f2"},
    {"vpr", 8, 0, 256, 2096, "71fb509f94e28a28"},
    {"vpr", 8, 0, 257, 2037, "edfed62b9c074771"},
    {"vpr", 8, 0, 300, 2094, "40850f8b14d5f5cc"},
    {"vpr", 8, 0, 600, 2094, "40850f8b14d5f5cc"},
    {"vpr", 8, 5, 1, 21297, "088de0c4c6e478e1"},
    {"vpr", 8, 5, 2, 12356, "6754ff32a0743b38"},
    {"vpr", 8, 5, 3, 9417, "d4324bf4950939d3"},
    {"vpr", 8, 5, 7, 7756, "218ee624852e45ef"},
    {"vpr", 8, 5, 100, 2945, "80047f7f5615bbcd"},
    {"vpr", 8, 5, 255, 2403, "ff5669f6b37788f3"},
    {"vpr", 8, 5, 256, 2402, "9d33f8af5c86f431"},
    {"vpr", 8, 5, 257, 2418, "ed8a0c53f0b519ac"},
    {"vpr", 8, 5, 300, 2456, "a9803b3007904ae8"},
    {"vpr", 8, 5, 600, 2457, "ef720fc7d38541c2"},
    {"bzip2", 1, 0, 1, 27467, "c5a92bf90ba23a08"},
    {"bzip2", 1, 0, 2, 18202, "3849fedbe6eb9f9a"},
    {"bzip2", 1, 0, 3, 14557, "6fd868edd66413e8"},
    {"bzip2", 1, 0, 7, 9815, "a6ff63e4936896db"},
    {"bzip2", 1, 0, 100, 3280, "5d921620cd691be5"},
    {"bzip2", 1, 0, 255, 2604, "99eaa782c24f6ecf"},
    {"bzip2", 1, 0, 256, 2605, "fdacf24121f840b0"},
    {"bzip2", 1, 0, 257, 2605, "69ddd971a85b79b8"},
    {"bzip2", 1, 0, 300, 2586, "90aa77c61116c829"},
    {"bzip2", 1, 0, 600, 2578, "9b82a9e222b3d2f5"},
    {"bzip2", 1, 5, 1, 27467, "c5a92bf90ba23a08"},
    {"bzip2", 1, 5, 2, 18202, "3849fedbe6eb9f9a"},
    {"bzip2", 1, 5, 3, 14557, "6fd868edd66413e8"},
    {"bzip2", 1, 5, 7, 9815, "a6ff63e4936896db"},
    {"bzip2", 1, 5, 100, 3280, "5d921620cd691be5"},
    {"bzip2", 1, 5, 255, 2604, "99eaa782c24f6ecf"},
    {"bzip2", 1, 5, 256, 2605, "fdacf24121f840b0"},
    {"bzip2", 1, 5, 257, 2605, "69ddd971a85b79b8"},
    {"bzip2", 1, 5, 300, 2586, "90aa77c61116c829"},
    {"bzip2", 1, 5, 600, 2578, "9b82a9e222b3d2f5"},
    {"bzip2", 4, 0, 1, 27467, "63877cb295521597"},
    {"bzip2", 4, 0, 2, 18202, "5a5a0c1f1d35d9c3"},
    {"bzip2", 4, 0, 3, 14557, "3bb34b2ee2a80b03"},
    {"bzip2", 4, 0, 7, 9815, "a4de566a1e7caf50"},
    {"bzip2", 4, 0, 100, 3337, "6504432be393fb90"},
    {"bzip2", 4, 0, 255, 2657, "36a99d5da99f1f97"},
    {"bzip2", 4, 0, 256, 2650, "70fb09d592906d2d"},
    {"bzip2", 4, 0, 257, 2649, "e5fd42f4e8323151"},
    {"bzip2", 4, 0, 300, 2634, "5687d4f4be224347"},
    {"bzip2", 4, 0, 600, 2624, "b9bf055a84e24dc6"},
    {"bzip2", 4, 5, 1, 27467, "63877cb295521597"},
    {"bzip2", 4, 5, 2, 18202, "5a5a0c1f1d35d9c3"},
    {"bzip2", 4, 5, 3, 14573, "2ae705f1231b874b"},
    {"bzip2", 4, 5, 7, 12110, "42cc2d57292362f1"},
    {"bzip2", 4, 5, 100, 3614, "aa5026a6e36cc256"},
    {"bzip2", 4, 5, 255, 2963, "51cbebe5e10d4a7a"},
    {"bzip2", 4, 5, 256, 2947, "4b17eb6e3fb84f8f"},
    {"bzip2", 4, 5, 257, 2949, "a41049d122abae15"},
    {"bzip2", 4, 5, 300, 2953, "3dc2e882f4946de6"},
    {"bzip2", 4, 5, 600, 2988, "f230596570553730"},
    {"bzip2", 8, 0, 1, 27467, "030c3dbe379a1d9c"},
    {"bzip2", 8, 0, 2, 18202, "ae7042160132f23f"},
    {"bzip2", 8, 0, 3, 14557, "66036de595cb92c4"},
    {"bzip2", 8, 0, 7, 9815, "2a6ce64a3096c8ef"},
    {"bzip2", 8, 0, 100, 3469, "44f6c33eeea62ec3"},
    {"bzip2", 8, 0, 255, 2819, "609eba79f71caea9"},
    {"bzip2", 8, 0, 256, 2767, "7696340c7ea8a3ad"},
    {"bzip2", 8, 0, 257, 2771, "d07336d62da3e7cb"},
    {"bzip2", 8, 0, 300, 2755, "0288a6a70966f5b7"},
    {"bzip2", 8, 0, 600, 2776, "8f1a5369b815f3be"},
    {"bzip2", 8, 5, 1, 27467, "030c3dbe379a1d9c"},
    {"bzip2", 8, 5, 2, 18202, "ae7042160132f23f"},
    {"bzip2", 8, 5, 3, 14573, "748552c1e16d870f"},
    {"bzip2", 8, 5, 7, 12110, "fb992d344fa57688"},
    {"bzip2", 8, 5, 100, 3756, "c67fbcaa5241ff54"},
    {"bzip2", 8, 5, 255, 3195, "963cd6effe0d2ee5"},
    {"bzip2", 8, 5, 256, 3188, "bf0fee1bf6711162"},
    {"bzip2", 8, 5, 257, 3208, "3fd699107660b00f"},
    {"bzip2", 8, 5, 300, 3235, "d2a46012195a8793"},
    {"bzip2", 8, 5, 600, 3258, "be2d5e9ed7e48064"},
};

TEST(TimingSimRob, OddAndTinyRobGeometriesArePinned)
{
    ExperimentConfig cfg;
    cfg.instructions = 6000;
    cfg.seeds = {7};
    cfg.verify.checker = true;
    cfg.verify.panicOnViolation = false;

    std::string built;
    Trace trace;
    for (const RobPin &pin : robPins) {
        SCOPED_TRACE(std::string(pin.workload) + " clusters=" +
                     std::to_string(pin.clusters) + " fwd=" +
                     std::to_string(pin.fwdLatency) + " rob=" +
                     std::to_string(pin.robEntries));
        if (built != pin.workload) {
            WorkloadConfig wcfg;
            wcfg.targetInstructions = cfg.instructions;
            wcfg.seed = cfg.seeds.front();
            trace = buildAnnotatedTrace(pin.workload, wcfg);
            built = pin.workload;
        }
        MachineConfig mc = pin.clusters == 1 ?
            MachineConfig::monolithic() :
            MachineConfig::clustered(pin.clusters);
        mc.robEntries = pin.robEntries;
        mc.fwdLatency = pin.fwdLatency;
        const PolicyKind kind = pin.clusters == 8 ?
            PolicyKind::FocusedLocStallProactive :
            PolicyKind::FocusedLocStall;
        const PolicyRun run = runPolicy(trace, mc, kind, cfg);
        EXPECT_EQ(run.checkerViolations, 0u) << run.checkerDetail;
        EXPECT_EQ(run.sim.cycles, pin.cycles);
        EXPECT_EQ(statsDigest(run.sim.stats), pin.statsDigest);
    }
}

// ---------------------------------------------------------------------
// Memory bound. A timing run allocates two things per instruction:
// its 32 B timing record (the output) and the 2 B delivered-cluster
// mask, which must outlive the producer because a value can be
// consumed arbitrarily late. Everything else is sized by the machine.

TEST(TimingSimMemory, ScratchIsBoundedByTheMachineNotTheTrace)
{
    WorkloadConfig wcfg;
    wcfg.targetInstructions = 200000;
    wcfg.seed = 1;
    const Trace trace = buildAnnotatedTrace("gcc", wcfg);
    const auto n = static_cast<std::int64_t>(trace.size());
    ASSERT_GE(n, 200000);
    const std::int64_t bound = 36 * n + (std::int64_t{1} << 20);

    UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
    AgeScheduling age;
    const std::optional<std::int64_t> before = heapInUse();
    if (!before)
        GTEST_SKIP() << "mallinfo2 unavailable";
    TimingSim sim(MachineConfig::clustered(4), trace, steer, age);
    const std::int64_t built = *heapInUse() - *before;
    // An interposed allocator (ASan's, say) bypasses glibc's counters;
    // a reading below the timing output itself measures nothing.
    const auto output =
        static_cast<std::int64_t>(sizeof(InstTiming)) * n;
    if (built < output)
        GTEST_SKIP() << "mallinfo2 saw " << built
                     << " B, below the " << output << " B output";
    EXPECT_LE(built, bound) << built / n << " B/inst";

    // The run itself adds nothing per instruction: the output moves
    // out of the sim, and a steering policy without proactive
    // load-balancing keeps no per-instruction tables.
    const SimResult res = sim.run();
    ASSERT_EQ(res.instructions, trace.size());
    const std::int64_t after_run = *heapInUse() - *before;
    EXPECT_LE(after_run, bound) << after_run / n << " B/inst";
}

} // anonymous namespace
} // namespace csim
