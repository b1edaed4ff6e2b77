#include "emu/emulator.hh"

#include "common/logging.hh"

namespace csim {

namespace {

// Guest integer arithmetic wraps modulo 2^64. It is computed in
// uint64_t, where overflow is defined, and converted back (a
// two's-complement conversion since C++20).
std::int64_t
wrapAdd(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
}

std::int64_t
wrapSub(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                     static_cast<std::uint64_t>(b));
}

std::int64_t
wrapMul(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                     static_cast<std::uint64_t>(b));
}

} // anonymous namespace

Emulator::Emulator(const Program &prog)
    : prog_(prog)
{
    if (!prog.finalized())
        CSIM_FATAL("Emulator: program must be finalized");
}

void
Emulator::setReg(RegIndex reg, std::int64_t value)
{
    writeInt(reg, value);
}

void
Emulator::poke(Addr addr, std::int64_t value)
{
    mem_.write(addr, value);
}

std::int64_t
Emulator::readInt(RegIndex r) const
{
    CSIM_ASSERT(r < numIntRegs);
    return r == zeroReg ? 0 : intRegs_[r];
}

void
Emulator::writeInt(RegIndex r, std::int64_t v)
{
    CSIM_ASSERT(r < numIntRegs);
    if (r != zeroReg)
        intRegs_[r] = v;
}

double
Emulator::readFp(RegIndex r) const
{
    if (r >= numIntRegs)
        return fpRegs_[r - numIntRegs];
    return static_cast<double>(readInt(r));
}

void
Emulator::writeFp(RegIndex r, double v)
{
    if (r >= numIntRegs)
        fpRegs_[r - numIntRegs] = v;
    else
        writeInt(r, static_cast<std::int64_t>(v));
}

Trace
Emulator::run(std::uint64_t maxInstrs)
{
    Trace trace;
    runChunk(trace, maxInstrs);
    return trace;
}

std::uint64_t
Emulator::runChunk(Trace &out, std::uint64_t maxInstrs)
{
    std::uint64_t committed = 0;

    while (committed < maxInstrs && !done_) {
        if (pcIndex_ >= prog_.size()) {
            done_ = true;  // fell off the end of the program
            break;
        }
        const Instruction &inst = prog_.at(pcIndex_);
        if (inst.op == Opcode::Halt) {
            done_ = true;
            break;
        }

        TraceRecord rec;
        rec.pc = codeBase + 4 * pcIndex_;
        rec.op = inst.op;
        rec.cls = opClass(inst.op);
        rec.dest = inst.dest;
        rec.src1 = inst.src1;
        rec.src2 = inst.src2;
        rec.execLat = static_cast<std::uint8_t>(opLatency(inst.op));
        rec.isBranch = isBranch(inst.op);
        rec.isCondBranch = isCondBranch(inst.op);

        std::uint64_t next_pc = pcIndex_ + 1;

        switch (inst.op) {
          case Opcode::Add:
            writeInt(inst.dest,
                     wrapAdd(readInt(inst.src1), readInt(inst.src2)));
            break;
          case Opcode::Sub:
            writeInt(inst.dest,
                     wrapSub(readInt(inst.src1), readInt(inst.src2)));
            break;
          case Opcode::And:
            writeInt(inst.dest, readInt(inst.src1) & readInt(inst.src2));
            break;
          case Opcode::Or:
            writeInt(inst.dest, readInt(inst.src1) | readInt(inst.src2));
            break;
          case Opcode::Xor:
            writeInt(inst.dest, readInt(inst.src1) ^ readInt(inst.src2));
            break;
          case Opcode::Sll:
            writeInt(inst.dest,
                     readInt(inst.src1) << (readInt(inst.src2) & 63));
            break;
          case Opcode::Srl:
            writeInt(inst.dest, static_cast<std::int64_t>(
                static_cast<std::uint64_t>(readInt(inst.src1)) >>
                (readInt(inst.src2) & 63)));
            break;
          case Opcode::Cmpeq:
            writeInt(inst.dest,
                     readInt(inst.src1) == readInt(inst.src2) ? 1 : 0);
            break;
          case Opcode::Cmplt:
            writeInt(inst.dest,
                     readInt(inst.src1) < readInt(inst.src2) ? 1 : 0);
            break;
          case Opcode::Cmple:
            writeInt(inst.dest,
                     readInt(inst.src1) <= readInt(inst.src2) ? 1 : 0);
            break;
          case Opcode::Mul:
            writeInt(inst.dest,
                     wrapMul(readInt(inst.src1), readInt(inst.src2)));
            break;
          case Opcode::Addi:
            writeInt(inst.dest, wrapAdd(readInt(inst.src1), inst.imm));
            break;
          case Opcode::Lui:
            writeInt(inst.dest, inst.imm);
            break;
          case Opcode::Itof:
            writeFp(inst.dest,
                    static_cast<double>(readInt(inst.src1)));
            break;
          case Opcode::Fadd:
            writeFp(inst.dest, readFp(inst.src1) + readFp(inst.src2));
            break;
          case Opcode::Fmul:
            writeFp(inst.dest, readFp(inst.src1) * readFp(inst.src2));
            break;
          case Opcode::Fdiv: {
            double denom = readFp(inst.src2);
            writeFp(inst.dest,
                    denom == 0.0 ? 0.0 : readFp(inst.src1) / denom);
            break;
          }
          case Opcode::Fcmp:
            writeFp(inst.dest,
                    readFp(inst.src1) < readFp(inst.src2) ? 1.0 : 0.0);
            break;
          case Opcode::Ld: {
            Addr ea = static_cast<Addr>(
                wrapAdd(readInt(inst.src1), inst.imm));
            rec.memAddr = ea;
            writeInt(inst.dest, mem_.read(ea));
            break;
          }
          case Opcode::St: {
            Addr ea = static_cast<Addr>(
                wrapAdd(readInt(inst.src1), inst.imm));
            rec.memAddr = ea;
            mem_.write(ea, readInt(inst.src2));
            break;
          }
          case Opcode::Beq:
            rec.taken = readInt(inst.src1) == 0;
            if (rec.taken)
                next_pc = static_cast<std::uint64_t>(inst.imm);
            break;
          case Opcode::Bne:
            rec.taken = readInt(inst.src1) != 0;
            if (rec.taken)
                next_pc = static_cast<std::uint64_t>(inst.imm);
            break;
          case Opcode::Jmp:
            rec.taken = true;
            next_pc = static_cast<std::uint64_t>(inst.imm);
            break;
          case Opcode::Nop:
            break;
          default:
            CSIM_PANIC("Emulator: bad opcode");
        }

        out.append(rec);
        ++committed;
        pcIndex_ = next_pc;
    }

    return committed;
}

} // namespace csim
