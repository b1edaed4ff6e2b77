#include "trace/trace.hh"

#include <unordered_map>

#include "common/logging.hh"
#include "trace/trace_soa.hh"

namespace csim {

void
Trace::sizeColumns(std::size_t n)
{
    if (memAddr_.size() >= n)
        return;
    memAddr_.resize(n);
    for (auto &col : prod_)
        col.resize(n);
    op_.resize(n);
    cls_.resize(n);
    execLat_.resize(n);
    flags_.resize(n);
    dest_.resize(n);
    src1_.resize(n);
    src2_.resize(n);
}

void
Trace::reserve(std::size_t n)
{
    pc_.reserve(n);
    if (buildColumns_) {
        sizeColumns(n);
        return;
    }
    // appendSimulationColumns() appends to every column, so capacity
    // is all it needs; zero-filling ahead would only fault the pages
    // in early, on the thread the build waits for.
    for (auto &col : prod_)
        col.reserve(n);
    op_.reserve(n);
    cls_.reserve(n);
    execLat_.reserve(n);
    flags_.reserve(n);
}

void
Trace::dropBuildColumns()
{
    // Swapped out, not cleared: clear() would keep the capacity.
    std::vector<Addr>().swap(memAddr_);
    std::vector<RegIndex>().swap(dest_);
    std::vector<RegIndex>().swap(src1_);
    std::vector<RegIndex>().swap(src2_);
    buildColumns_ = false;
}

void
Trace::appendSimulationColumns(const Trace &chunk)
{
    if (buildColumns_)
        CSIM_PANIC("Trace::appendSimulationColumns: the target holds "
                   "build columns, which would be left unfilled");
    const std::size_t i = size();
    const std::size_t n = chunk.size();
    // Rows sized ahead past the end (a trace that dropped its build
    // columns after append()) are cut before the chunk's rows go on.
    const auto put = [&](auto &dst, const auto &src) {
        dst.resize(i);
        dst.insert(dst.end(), src.begin(), src.begin() + n);
    };
    put(pc_, chunk.pc_);
    for (int slot = 0; slot < numSrcSlots; ++slot)
        put(prod_[slot], chunk.prod_[slot]);
    put(op_, chunk.op_);
    put(cls_, chunk.cls_);
    put(execLat_, chunk.execLat_);
    put(flags_, chunk.flags_);
}

TraceRecord
Trace::operator[](std::size_t i) const
{
    return soa().record(i);
}

TraceSoA
Trace::soa() const
{
    TraceSoA::Columns cols;
    cols.size = size();
    cols.pc = pc_.data();
    for (int slot = 0; slot < numSrcSlots; ++slot)
        cols.prod[slot] = prod_[slot].data();
    cols.op = op_.data();
    cols.cls = cls_.data();
    cols.execLat = execLat_.data();
    cols.flags = flags_.data();
    if (buildColumns_) {
        cols.memAddr = memAddr_.data();
        cols.dest = dest_.data();
        cols.src1 = src1_.data();
        cols.src2 = src2_.data();
    }
    return TraceSoA(cols);
}

namespace {

struct SrcRegs
{
    int n;
    RegIndex s1;
    RegIndex s2;
};

// Mirror Instruction::numSrcs() without materialising an Instruction.
SrcRegs
srcsOf(Opcode op, RegIndex src1, RegIndex src2)
{
    switch (op) {
      case Opcode::Lui:
      case Opcode::Jmp:
      case Opcode::Nop:
      case Opcode::Halt:
        return {0, zeroReg, zeroReg};
      case Opcode::Addi:
      case Opcode::Ld:
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Itof:
        return {1, src1, zeroReg};
      default:
        return {2, src1, src2};
    }
}

} // anonymous namespace

void
Trace::linkProducers()
{
    StreamingProducerLinker linker;
    linker.link(*this, 0);
}

void
StreamingProducerLinker::link(Trace &chunk, InstId base)
{
    chunk.requireBuildColumns("StreamingProducerLinker::link");
    const TraceSoA view = chunk.soa();
    for (std::size_t i = 0; i < view.size(); ++i) {
        const InstId id = base + i;
        std::array<InstId, numSrcSlots> prod = {
            invalidInstId, invalidInstId, invalidInstId};

        const SrcRegs srcs =
            srcsOf(view.op()[i], view.src1()[i], view.src2()[i]);
        if (srcs.n >= 1 && srcs.s1 != zeroReg)
            prod[srcSlot1] = lastWriter_[srcs.s1];
        if (srcs.n >= 2 && srcs.s2 != zeroReg)
            prod[srcSlot2] = lastWriter_[srcs.s2];

        if (view.isLoad(i)) {
            auto it = lastStore_.find(view.memAddr()[i] >> 3);
            if (it != lastStore_.end())
                prod[srcSlotMem] = it->second;
        } else if (view.isStore(i)) {
            lastStore_[view.memAddr()[i] >> 3] = id;
        }

        if (view.hasDest(i))
            lastWriter_[view.dest()[i]] = id;
        chunk.setProducers(i, prod);
    }
}

bool
Trace::wellFormed() const
{
    for (std::size_t i = 0; i < size(); ++i) {
        const Opcode op = op_[i];
        if (op >= Opcode::NumOpcodes)
            return false;
        if (cls_[i] != opClass(op))
            return false;
        if (execLat_[i] == 0)
            return false;
        const std::uint8_t f = flags_[i];
        if (bool(f & flagIsBranch) != isBranch(op) ||
            bool(f & flagIsCondBranch) != isCondBranch(op))
            return false;
        for (int slot = 0; slot < numSrcSlots; ++slot) {
            const InstId p = prod_[slot][i];
            if (p != invalidInstId && p >= i)
                return false;
        }
    }
    return true;
}

TraceStats
Trace::stats() const
{
    TraceStats s;
    s.instructions = size();
    for (std::size_t i = 0; i < size(); ++i) {
        const std::uint8_t f = flags_[i];
        if (f & flagIsBranch) {
            ++s.branches;
            if (f & flagIsCondBranch) {
                ++s.condBranches;
                if (f & flagMispredicted)
                    ++s.mispredicted;
            }
        }
        if (cls_[i] == OpClass::Load) {
            ++s.loads;
            if (f & flagL1Miss)
                ++s.l1Misses;
        }
        if (cls_[i] == OpClass::Store)
            ++s.stores;
        if (isFpClass(cls_[i]))
            ++s.fpOps;
    }
    return s;
}

} // namespace csim
