/**
 * @file
 * Unit tests for the trace module: producer linkage (register and
 * memory dependences), trace statistics and structural well-formedness.
 */

#include <gtest/gtest.h>

#include "emu/emulator.hh"
#include "trace/trace.hh"
#include "workloads/registry.hh"

namespace csim {
namespace {

const auto r = Program::r;

Trace
traceOf(const Program &p, std::uint64_t n = 1000)
{
    Emulator emu(p);
    Trace t = emu.run(n);
    t.linkProducers();
    return t;
}

TEST(TraceLink, RegisterDependences)
{
    Program p;
    p.lui(r(1), 1);                 // 0
    p.lui(r(2), 2);                 // 1
    p.add(r(3), r(1), r(2));        // 2: reads 0 and 1
    p.add(r(4), r(3), r(1));        // 3: reads 2 and 0
    p.halt();
    p.finalize();
    Trace t = traceOf(p);

    EXPECT_EQ(t[2].prod[srcSlot1], 0u);
    EXPECT_EQ(t[2].prod[srcSlot2], 1u);
    EXPECT_EQ(t[3].prod[srcSlot1], 2u);
    EXPECT_EQ(t[3].prod[srcSlot2], 0u);
}

TEST(TraceLink, LastWriterWins)
{
    Program p;
    p.lui(r(1), 1);                 // 0
    p.lui(r(1), 2);                 // 1: rewrites r1
    p.addi(r(2), r(1), 0);          // 2: must read from 1
    p.halt();
    p.finalize();
    Trace t = traceOf(p);
    EXPECT_EQ(t[2].prod[srcSlot1], 1u);
}

TEST(TraceLink, UnwrittenSourceHasNoProducer)
{
    Program p;
    p.addi(r(2), r(1), 5);          // r1 never written in-trace
    p.halt();
    p.finalize();
    Trace t = traceOf(p);
    EXPECT_EQ(t[0].prod[srcSlot1], invalidInstId);
}

TEST(TraceLink, ZeroRegisterNeverProduces)
{
    Program p;
    p.lui(r(31), 7);                // dropped write
    p.add(r(1), r(31), r(31));
    p.halt();
    p.finalize();
    Trace t = traceOf(p);
    EXPECT_EQ(t[1].prod[srcSlot1], invalidInstId);
    EXPECT_EQ(t[1].prod[srcSlot2], invalidInstId);
}

TEST(TraceLink, StoreToLoadForwarding)
{
    Program p;
    p.lui(r(1), 0x1000);
    p.lui(r(2), 9);
    p.st(r(2), r(1), 0);            // 2
    p.ld(r(3), r(1), 0);            // 3: same word -> dep on 2
    p.ld(r(4), r(1), 8);            // 4: different word -> none
    p.halt();
    p.finalize();
    Trace t = traceOf(p);
    EXPECT_EQ(t[3].prod[srcSlotMem], 2u);
    EXPECT_EQ(t[4].prod[srcSlotMem], invalidInstId);
}

TEST(TraceLink, LaterStoreShadowsEarlier)
{
    Program p;
    p.lui(r(1), 0x1000);
    p.lui(r(2), 1);
    p.st(r(2), r(1), 0);            // 2
    p.st(r(2), r(1), 0);            // 3
    p.ld(r(3), r(1), 0);            // 4: dep on 3, not 2
    p.halt();
    p.finalize();
    Trace t = traceOf(p);
    EXPECT_EQ(t[4].prod[srcSlotMem], 3u);
}

TEST(TraceLink, StoreReadsDataRegister)
{
    Program p;
    p.lui(r(1), 0x1000);
    p.lui(r(2), 5);                 // 1: produces store data
    p.st(r(2), r(1), 0);            // 2
    p.halt();
    p.finalize();
    Trace t = traceOf(p);
    EXPECT_EQ(t[2].prod[srcSlot1], 0u);   // base
    EXPECT_EQ(t[2].prod[srcSlot2], 1u);   // data
}

TEST(TraceStats, Counts)
{
    Program p;
    Label l = p.newLabel();
    p.lui(r(1), 3);
    p.lui(r(2), 0x1000);
    p.bind(l);
    p.ld(r(3), r(2), 0);
    p.st(r(3), r(2), 8);
    p.addi(r(1), r(1), -1);
    p.bne(r(1), l);
    p.halt();
    p.finalize();
    Trace t = traceOf(p);
    TraceStats s = t.stats();
    EXPECT_EQ(s.instructions, t.size());
    EXPECT_EQ(s.loads, 3u);
    EXPECT_EQ(s.stores, 3u);
    EXPECT_EQ(s.condBranches, 3u);
    EXPECT_EQ(s.branches, 3u);
}

TEST(TraceStats, EmptyTrace)
{
    Trace t;
    TraceStats s = t.stats();
    EXPECT_EQ(s.instructions, 0u);
    EXPECT_DOUBLE_EQ(s.mispredictRate(), 0.0);
    EXPECT_DOUBLE_EQ(s.l1MissRate(), 0.0);
}

TEST(TraceWellFormed, DetectsCorruptLinks)
{
    WorkloadConfig cfg;
    cfg.targetInstructions = 200;
    cfg.seed = 1;
    Trace t = buildAnnotatedTrace("vpr", cfg);
    ASSERT_TRUE(t.wellFormed());

    // Forward-pointing producer: malformed.
    t.setProducers(10, {150, invalidInstId, invalidInstId});
    EXPECT_FALSE(t.wellFormed());
    // So is a link to the consumer itself.
    t.setProducers(10, {10, invalidInstId, invalidInstId});
    EXPECT_FALSE(t.wellFormed());
}

TEST(TraceWellFormed, DetectsClassMismatchAndZeroLatency)
{
    WorkloadConfig cfg;
    cfg.targetInstructions = 100;
    cfg.seed = 1;
    const Trace t = buildAnnotatedTrace("vpr", cfg);

    // No pass writes the op class, so rebuild the trace with row 5's
    // class flipped.
    Trace t2;
    for (std::size_t i = 0; i < t.size(); ++i) {
        TraceRecord rec = t[i];
        if (i == 5)
            rec.cls = rec.cls == OpClass::Load ? OpClass::IntAlu
                                               : OpClass::Load;
        t2.append(rec);
    }
    EXPECT_FALSE(t2.wellFormed());

    Trace t3 = t;
    t3.setExecLat(5, 0);
    EXPECT_FALSE(t3.wellFormed());
}

} // anonymous namespace
} // namespace csim
