/**
 * @file
 * Functional emulator: executes a Program and records the dynamic trace
 * the timing models consume.
 */

#ifndef CSIM_EMU_EMULATOR_HH
#define CSIM_EMU_EMULATOR_HH

#include <array>
#include <cstdint>

#include "emu/memory.hh"
#include "isa/program.hh"
#include "trace/trace.hh"

namespace csim {

/**
 * Interprets a finalized Program, producing a Trace of committed
 * (correct-path) instructions. Integer registers hold int64; floating
 * point registers hold doubles stored in a separate file. The PC of a
 * dynamic record is codeBase + 4 * static index, so static instruction
 * identity (used by the PC-indexed predictors) is the instruction
 * address.
 */
class Emulator
{
  public:
    explicit Emulator(const Program &prog);

    /** Pre-set an integer register before the run. */
    void setReg(RegIndex reg, std::int64_t value);

    /** Pre-set a memory word before the run. */
    void poke(Addr addr, std::int64_t value);

    /** Read a memory word after (or during) the run. */
    std::int64_t peek(Addr addr) const { return mem_.read(addr); }

    /** Read an integer register. */
    std::int64_t reg(RegIndex r) const { return intRegs_.at(r); }

    /**
     * Run until Halt or until maxInstrs dynamic instructions have
     * committed; Halt/Nop/trace bookkeeping do not enter the trace.
     * Room for maxInstrs records is reserved up front.
     * @return the committed trace (producers not yet linked).
     */
    Trace run(std::uint64_t maxInstrs);

    /**
     * Resumable slice of run(): append up to maxInstrs committed
     * records to `out` and suspend, preserving the PC and all
     * architectural state for the next chunk. Chunked execution
     * produces exactly the record sequence one big run() would.
     * @return records appended (less than maxInstrs only at Halt or
     * end of program, after which done() is true).
     */
    std::uint64_t runChunk(Trace &out, std::uint64_t maxInstrs);

    /** True once execution hit Halt or fell off the program. */
    bool done() const { return done_; }

    /** Base address of the code segment. */
    static constexpr Addr codeBase = 0x1000;

  private:
    std::int64_t readInt(RegIndex r) const;
    void writeInt(RegIndex r, std::int64_t v);
    double readFp(RegIndex r) const;
    void writeFp(RegIndex r, double v);

    const Program &prog_;
    SparseMemory mem_;
    std::array<std::int64_t, numIntRegs> intRegs_ = {};
    std::array<double, numFpRegs> fpRegs_ = {};
    /** Static index of the next instruction (resumable execution). */
    std::uint64_t pcIndex_ = 0;
    bool done_ = false;
};

} // namespace csim

#endif // CSIM_EMU_EMULATOR_HH
