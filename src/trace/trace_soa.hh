/**
 * @file
 * Read-only column view of an annotated trace.
 *
 * The timing core walks a handful of per-instruction fields (op class,
 * latency, producers, branch flags, pc) millions of times per run; as
 * dense per-field columns each hot loop streams exactly the bytes it
 * needs, where a 56-byte TraceRecord would drag cold fields through
 * the cache with them. A view of a simulation-only trace (Trace's
 * class comment) has the eight simulation columns alone: its four
 * build columns are empty spans. A TraceSoA points at columns it does
 * not own:
 * either a Trace's (Trace::soa(), valid until that trace grows, is
 * cleared or is destroyed) or an mmap-ed trace store's (kept alive by
 * the view's keepalive). Copying a view copies the pointers, never the
 * columns.
 */

#ifndef CSIM_TRACE_TRACE_SOA_HH
#define CSIM_TRACE_TRACE_SOA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "common/logging.hh"
#include "common/types.hh"
#include "isa/opcode.hh"
#include "trace/trace.hh"

namespace csim {

class TraceSoA
{
  public:
    /** The twelve columns a view reads; the four build columns
     *  (memAddr, dest, src1, src2) are null in a simulation-only
     *  view. */
    struct Columns
    {
        std::size_t size = 0;
        const Addr *pc = nullptr;
        const Addr *memAddr = nullptr;
        const InstId *prod[numSrcSlots] = {nullptr, nullptr, nullptr};
        const Opcode *op = nullptr;
        const OpClass *cls = nullptr;
        const std::uint8_t *execLat = nullptr;
        const std::uint8_t *flags = nullptr;
        const RegIndex *dest = nullptr;
        const RegIndex *src1 = nullptr;
        const RegIndex *src2 = nullptr;
    };

    /** Empty view (no columns). */
    TraceSoA() = default;

    /**
     * View columns owned elsewhere. `keepalive`, when given, is
     * retained for the view's lifetime and keeps the backing storage
     * (e.g. a store mapping) alive; `mapped` names that mapping's
     * bytes when the columns live in one.
     */
    explicit TraceSoA(const Columns &cols,
                      std::shared_ptr<const void> keepalive = nullptr,
                      std::span<const std::byte> mapped = {})
        : c_(cols), keepalive_(std::move(keepalive)), mapped_(mapped)
    {}

    std::size_t size() const { return c_.size; }
    bool empty() const { return c_.size == 0; }

    /** Whether the view has the build columns; a simulation-only
     *  trace's view has not. */
    bool hasBuildColumns() const { return c_.memAddr != nullptr; }

    // Simulation columns, one entry per dynamic instruction.
    std::span<const Addr> pc() const { return {c_.pc, c_.size}; }
    /** Producer column for one SrcSlot. */
    std::span<const InstId>
    prod(int slot) const
    {
        return {c_.prod[slot], c_.size};
    }
    std::span<const Opcode> op() const { return {c_.op, c_.size}; }
    std::span<const OpClass> cls() const { return {c_.cls, c_.size}; }
    std::span<const std::uint8_t>
    execLat() const
    {
        return {c_.execLat, c_.size};
    }
    std::span<const std::uint8_t>
    flags() const
    {
        return {c_.flags, c_.size};
    }

    // Build columns: one entry per instruction, or none in a
    // simulation-only view.
    std::span<const Addr> memAddr() const { return buildSpan(c_.memAddr); }
    std::span<const RegIndex> dest() const { return buildSpan(c_.dest); }
    std::span<const RegIndex> src1() const { return buildSpan(c_.src1); }
    std::span<const RegIndex> src2() const { return buildSpan(c_.src2); }

    /** The whole file mapping the columns live in (an mmap-ed store);
     *  empty for a Trace's view. */
    std::span<const std::byte> mapped() const { return mapped_; }

    bool
    isBranch(std::size_t i) const
    {
        return c_.flags[i] & flagIsBranch;
    }
    bool
    isCondBranch(std::size_t i) const
    {
        return c_.flags[i] & flagIsCondBranch;
    }
    bool taken(std::size_t i) const { return c_.flags[i] & flagTaken; }
    bool
    mispredicted(std::size_t i) const
    {
        return c_.flags[i] & flagMispredicted;
    }
    bool l1Miss(std::size_t i) const { return c_.flags[i] & flagL1Miss; }
    bool
    hasDest(std::size_t i) const
    {
        return c_.flags[i] & flagHasDest;
    }
    bool
    isLoad(std::size_t i) const
    {
        return c_.cls[i] == OpClass::Load;
    }
    bool
    isStore(std::size_t i) const
    {
        return c_.cls[i] == OpClass::Store;
    }

    /**
     * Gather one record from the columns. A simulation-only view leaves
     * the build fields at their defaults (zero, zeroReg), so such a
     * record reads hasDest() false; appending it to a full trace would
     * clear that trace's flagHasDest.
     */
    TraceRecord
    record(std::size_t i) const
    {
        CSIM_ASSERT(i < c_.size);
        TraceRecord rec;
        rec.pc = c_.pc[i];
        rec.op = c_.op[i];
        rec.cls = c_.cls[i];
        if (hasBuildColumns()) {
            rec.dest = c_.dest[i];
            rec.src1 = c_.src1[i];
            rec.src2 = c_.src2[i];
            rec.memAddr = c_.memAddr[i];
        }
        for (int slot = 0; slot < numSrcSlots; ++slot)
            rec.prod[slot] = c_.prod[slot][i];
        rec.execLat = c_.execLat[i];
        rec.isBranch = isBranch(i);
        rec.isCondBranch = isCondBranch(i);
        rec.taken = taken(i);
        rec.mispredicted = mispredicted(i);
        rec.l1Miss = l1Miss(i);
        return rec;
    }

  private:
    template <class T>
    std::span<const T>
    buildSpan(const T *col) const
    {
        return {col, hasBuildColumns() ? c_.size : 0};
    }

    Columns c_;
    /** Backing storage the columns point into, when the view owns a
     *  share of it (a store mapping); null for a Trace's view. */
    std::shared_ptr<const void> keepalive_;
    std::span<const std::byte> mapped_;
};

} // namespace csim

#endif // CSIM_TRACE_TRACE_SOA_HH
