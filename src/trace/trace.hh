/**
 * @file
 * Dynamic instruction traces.
 *
 * A Trace is the interchange format between the functional emulator, the
 * annotation passes (branch prediction, cache latency), the clustered
 * timing simulator and the idealized list scheduler. Each record carries
 * the dataflow producers of its source operands so the timing models
 * never have to re-derive register renaming.
 */

#ifndef CSIM_TRACE_TRACE_HH
#define CSIM_TRACE_TRACE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "isa/opcode.hh"

namespace csim {

class TraceSoA;

/** Source operand slots: two register sources plus a memory dependence. */
enum SrcSlot { srcSlot1 = 0, srcSlot2 = 1, srcSlotMem = 2, numSrcSlots = 3 };

/** Packed per-instruction boolean annotations (the flags column). */
enum TraceFlag : std::uint8_t
{
    flagIsBranch = 1u << 0,
    flagIsCondBranch = 1u << 1,
    flagTaken = 1u << 2,
    flagMispredicted = 1u << 3,
    flagL1Miss = 1u << 4,
    /** writesDest(op) && dest != zeroReg, precomputed. */
    flagHasDest = 1u << 5,
};

/**
 * One dynamic instruction. Producers refer to older trace records by
 * index; invalidInstId means the operand was ready at dispatch (produced
 * before the trace window or by an immediate).
 */
struct TraceRecord
{
    Addr pc = 0;
    Opcode op = Opcode::Nop;
    OpClass cls = OpClass::IntAlu;
    RegIndex dest = zeroReg;
    RegIndex src1 = zeroReg;
    RegIndex src2 = zeroReg;
    /** Effective byte address for Ld/St. */
    Addr memAddr = 0;

    /** Dataflow producers (dynamic indices), one per SrcSlot. */
    std::array<InstId, numSrcSlots> prod =
        {invalidInstId, invalidInstId, invalidInstId};

    /** Execution latency in cycles (loads updated by the cache pass). */
    std::uint8_t execLat = 1;

    bool isBranch = false;
    bool isCondBranch = false;
    /** Branch outcome (conditional branches only). */
    bool taken = false;
    /** Set by the branch annotation pass. */
    bool mispredicted = false;
    /** Set by the cache annotation pass. */
    bool l1Miss = false;

    bool hasDest() const { return writesDest(op) && dest != zeroReg; }
    bool isLoad() const { return cls == OpClass::Load; }
    bool isStore() const { return cls == OpClass::Store; }
};

/** Aggregate statistics over a trace (reported by examples/tests). */
struct TraceStats
{
    std::uint64_t instructions = 0;
    std::uint64_t branches = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t mispredicted = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t fpOps = 0;

    double
    mispredictRate() const
    {
        return condBranches ?
            static_cast<double>(mispredicted) /
            static_cast<double>(condBranches) : 0.0;
    }

    double
    l1MissRate() const
    {
        return loads ? static_cast<double>(l1Misses) /
            static_cast<double>(loads) : 0.0;
    }
};

/**
 * A dynamic trace, held as per-field columns in two groups:
 *
 * - the eight *simulation columns* (pc, the three producer columns, op,
 *   cls, execLat and the packed flags; 36 B/inst), which the timing
 *   core, the policies and the analyses read;
 * - the four *build columns* (memAddr, dest, src1 and src2; 11 B/inst),
 *   which only the producer linker, the memory annotator and the store
 *   writer read.
 *
 * A built trace holds all twelve, the layout the v2 trace store writes.
 * Once linking and annotation are done the build columns are dead, and
 * dropBuildColumns() frees them: the simulation-only trace that is left
 * is what TraceCache holds and what extractRegion copies out. append()
 * scatters a record into the columns; operator[] gathers one back. The
 * passes that annotate a built trace write only the columns they own,
 * through the setters below.
 */
class Trace
{
  public:
    /** Host bytes per instruction of the simulation columns: four
     *  8-byte (pc, three producers) and four 1-byte. */
    static constexpr std::size_t simulationBytesPerInstruction =
        sizeof(Addr) + numSrcSlots * sizeof(InstId) + sizeof(Opcode) +
        sizeof(OpClass) + 2 * sizeof(std::uint8_t);
    /** Host bytes per instruction of the build columns: memAddr and
     *  three register names. */
    static constexpr std::size_t buildBytesPerInstruction =
        sizeof(Addr) + 3 * sizeof(RegIndex);
    /** Host bytes per instruction of a trace holding both groups: five
     *  8-byte and seven 1-byte columns. */
    static constexpr std::size_t bytesPerInstruction =
        simulationBytesPerInstruction + buildBytesPerInstruction;

    /** Scatter one record into the columns (packing its flags). */
    void
    append(const TraceRecord &rec)
    {
        requireBuildColumns("Trace::append");
        const std::size_t i = pc_.size();
        if (i == memAddr_.size())
            sizeColumns(2 * i + 16);
        pc_.push_back(rec.pc);
        memAddr_[i] = rec.memAddr;
        for (int slot = 0; slot < numSrcSlots; ++slot)
            prod_[slot][i] = rec.prod[slot];
        op_[i] = rec.op;
        cls_[i] = rec.cls;
        execLat_[i] = rec.execLat;
        flags_[i] = static_cast<std::uint8_t>(
            (rec.isBranch ? flagIsBranch : 0) |
            (rec.isCondBranch ? flagIsCondBranch : 0) |
            (rec.taken ? flagTaken : 0) |
            (rec.mispredicted ? flagMispredicted : 0) |
            (rec.l1Miss ? flagL1Miss : 0) |
            (rec.hasDest() ? flagHasDest : 0));
        dest_[i] = rec.dest;
        src1_[i] = rec.src1;
        src2_[i] = rec.src2;
    }

    /** Drop every instruction but keep the capacity, so a reused
     *  chunk buffer refills without reallocating. */
    void clear() { pc_.clear(); }

    /** Make room for n instructions up front (no regrowth while they
     *  are appended). */
    void reserve(std::size_t n);
    std::size_t capacity() const { return pc_.capacity(); }

    std::size_t size() const { return pc_.size(); }
    bool empty() const { return pc_.empty(); }

    /** Instruction i, gathered from the columns. */
    TraceRecord operator[](std::size_t i) const;

    /**
     * Read-only view of the columns. It builds nothing; it stays valid
     * until the trace grows, is cleared, or is destroyed.
     */
    TraceSoA soa() const;

    /** Host bytes of the columns this trace holds (what TraceCache
     *  reports as bytesHeld). */
    std::size_t
    footprintBytes() const
    {
        return size() * (buildColumns_ ? bytesPerInstruction
                                       : simulationBytesPerInstruction);
    }

    /** Whether the build columns are held (false once dropped). */
    bool hasBuildColumns() const { return buildColumns_; }

    /**
     * Free the four build columns, leaving a simulation-only trace.
     * Nothing can append records to it, link it, annotate its memory
     * or store it afterwards; every reader of the simulation columns
     * is unaffected.
     */
    void dropBuildColumns();

    /**
     * Append `chunk`'s eight simulation columns onto this
     * simulation-only trace: the in-memory sink of a streaming build,
     * whose chunks carry global producer links.
     */
    void appendSimulationColumns(const Trace &chunk);

    /** Panic, naming `pass`, unless the build columns are held: the
     *  guard of every pass that reads or writes them. */
    void
    requireBuildColumns(const char *pass) const
    {
        if (!buildColumns_)
            CSIM_PANIC_F("%s: the trace is simulation-only; its build "
                         "columns (memAddr, dest, src1, src2) were "
                         "dropped",
                         pass);
    }

    // Column writers of the passes that annotate a built trace.
    /** Producer links of instruction i (the linker's column). */
    void
    setProducers(std::size_t i,
                 const std::array<InstId, numSrcSlots> &prod)
    {
        for (int slot = 0; slot < numSrcSlots; ++slot)
            prod_[slot][i] = prod[slot];
    }
    /** Branch outcome of instruction i (the branch annotator's). */
    void
    setMispredicted(std::size_t i, bool mispredicted)
    {
        setFlag(i, flagMispredicted, mispredicted);
    }
    /** L1 outcome and latency of instruction i (the cache
     *  annotator's). */
    void
    setL1Miss(std::size_t i, bool miss)
    {
        setFlag(i, flagL1Miss, miss);
    }
    void setExecLat(std::size_t i, std::uint8_t lat) { execLat_[i] = lat; }

    /**
     * Fill in the producer links: for each register source, the most
     * recent older record writing that register; for each load, the most
     * recent older store to the same 8-byte word (store-to-load
     * forwarding under perfect memory disambiguation).
     */
    void linkProducers();

    /** Compute aggregate statistics. */
    TraceStats stats() const;

    /**
     * Structural sanity of the producer links and annotations: every
     * producer index strictly precedes its consumer, op classes match
     * opcodes, latencies are nonzero and the branch flags agree with
     * the opcode. Generators and tests assert it; the timing core
     * separately rejects a producer link that does not precede its
     * consumer.
     */
    bool wellFormed() const;

  private:
    friend Trace extractRegion(const TraceSoA &soa, std::uint64_t base,
                               std::uint64_t len);

    void
    setFlag(std::size_t i, std::uint8_t flag, bool on)
    {
        flags_[i] = static_cast<std::uint8_t>(
            on ? flags_[i] | flag : flags_[i] & ~flag);
    }

    /** Grow every column but pc_ to at least n rows (a trace holding
     *  its build columns). */
    void sizeColumns(std::size_t n);

    // pc_ holds exactly the rows, so its size is the trace's; the
    // other held columns are sized ahead (zero-filled) to at least
    // that, which lets append() write them by index behind a single
    // bounds check instead of eleven more push_backs. Copies and moves
    // stay element-wise, so no two traces share a column. The four
    // build columns are empty once buildColumns_ is false; a
    // simulation-only trace grows by appendSimulationColumns() alone,
    // which appends to every column.
    bool buildColumns_ = true;
    std::vector<Addr> pc_;
    std::vector<Addr> memAddr_;
    std::array<std::vector<InstId>, numSrcSlots> prod_;
    std::vector<Opcode> op_;
    std::vector<OpClass> cls_;
    std::vector<std::uint8_t> execLat_;
    std::vector<std::uint8_t> flags_;
    std::vector<RegIndex> dest_;
    std::vector<RegIndex> src1_;
    std::vector<RegIndex> src2_;
};

/**
 * The producer-linkage pass with state that persists across chunks:
 * linking a trace chunk by chunk through one linker (passing each
 * chunk's global base id) writes exactly the links
 * Trace::linkProducers() would over the concatenated trace — the
 * streaming-build form. Links are *global* ids, so a chunk linked
 * with base > 0 is not wellFormed() on its own; it becomes so again
 * when the ids are region-remapped (extractRegion) or the chunks are
 * stored and reloaded as one trace.
 */
class StreamingProducerLinker
{
  public:
    StreamingProducerLinker() { lastWriter_.fill(invalidInstId); }

    /** Link chunk's producers; `base` is chunk[0]'s global id. The
     *  chunk must hold its build columns. */
    void link(Trace &chunk, InstId base);

  private:
    /** Last dynamic writer of each architectural register. */
    std::array<InstId, numArchRegs> lastWriter_;
    /** Last store to each 8-byte word. */
    std::unordered_map<Addr, InstId> lastStore_;
};

} // namespace csim

#endif // CSIM_TRACE_TRACE_HH
