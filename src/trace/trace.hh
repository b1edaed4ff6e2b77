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
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "isa/opcode.hh"

namespace csim {

class TraceSoA;

/** Source operand slots: two register sources plus a memory dependence. */
enum SrcSlot { srcSlot1 = 0, srcSlot2 = 1, srcSlotMem = 2, numSrcSlots = 3 };

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
 * A dynamic trace plus the producer-linkage pass.
 *
 * The AoS record vector is the build/annotation format; soa() derives
 * (and caches) the column-oriented TraceSoA the timing core consumes.
 * Any mutation drops the cached SoA, so a stale view can never be
 * observed through this object.
 */
class Trace
{
  public:
    Trace();
    ~Trace();

    // The cached SoA (and its guarding mutex) is derived state: copies
    // and moves transfer only the records and rebuild it on demand.
    // Out of line: their bodies need TraceSoA complete.
    Trace(const Trace &other);
    Trace(Trace &&other) noexcept;
    Trace &operator=(const Trace &other);
    Trace &operator=(Trace &&other) noexcept;

    void
    append(TraceRecord rec)
    {
        invalidateSoA();
        records_.push_back(rec);
    }

    /** Drop every record but keep the capacity, so a reused chunk
     *  buffer refills without reallocating. */
    void
    clear()
    {
        invalidateSoA();
        records_.clear();
    }

    /** Make room for n records up front (no regrowth while they are
     *  appended). */
    void reserve(std::size_t n) { records_.reserve(n); }
    std::size_t capacity() const { return records_.capacity(); }

    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }
    const TraceRecord &operator[](std::size_t i) const
    {
        return records_[i];
    }
    TraceRecord &
    operator[](std::size_t i)
    {
        // Handing out a mutable reference may change any field, so the
        // derived columns cannot be trusted afterwards.
        invalidateSoA();
        return records_[i];
    }

    auto begin() const { return records_.begin(); }
    auto end() const { return records_.end(); }

    /**
     * The structure-of-arrays view of this trace, built lazily on
     * first use and cached (thread-safe: concurrent sweep cells share
     * one immutable trace). The reference stays valid until the trace
     * is mutated or destroyed.
     */
    const TraceSoA &soa() const;

    /**
     * Host bytes held by this trace: the AoS records plus the SoA
     * arena when the column view has been materialized. This is what
     * the TraceCache byte budget accounts.
     */
    std::size_t footprintBytes() const;

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
     * opcodes, and latencies are nonzero. Used to vet traces loaded
     * from disk before feeding them to the timing models.
     */
    bool wellFormed() const;

  private:
    void invalidateSoA();

    std::vector<TraceRecord> records_;

    /** Lazily built column view; guarded by soaMutex_. */
    mutable std::unique_ptr<TraceSoA> soa_;
    mutable std::mutex soaMutex_;
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

    /** Link chunk's producers; `base` is chunk[0]'s global id. */
    void link(Trace &chunk, InstId base);

  private:
    /** Last dynamic writer of each architectural register. */
    std::array<InstId, numArchRegs> lastWriter_;
    /** Last store to each 8-byte word. */
    std::unordered_map<Addr, InstId> lastStore_;
};

} // namespace csim

#endif // CSIM_TRACE_TRACE_HH
