#include "isa/program.hh"

#include <sstream>

#include "common/logging.hh"

namespace csim {

Label
Program::newLabel()
{
    labelTargets_.push_back(-1);
    return Label{static_cast<int>(labelTargets_.size()) - 1};
}

void
Program::bind(Label l)
{
    checkMutable();
    CSIM_ASSERT(l.id >= 0 &&
                l.id < static_cast<int>(labelTargets_.size()));
    CSIM_ASSERT(labelTargets_[l.id] == -1);
    labelTargets_[l.id] = static_cast<std::int64_t>(instrs_.size());
}

void
Program::emitRRR(Opcode op, RegIndex d, RegIndex a, RegIndex b)
{
    checkMutable();
    instrs_.push_back(Instruction{op, d, a, b, 0});
}

void
Program::addi(RegIndex d, RegIndex a, std::int64_t imm)
{
    checkMutable();
    instrs_.push_back(Instruction{Opcode::Addi, d, a, zeroReg, imm});
}

void
Program::lui(RegIndex d, std::int64_t imm)
{
    checkMutable();
    instrs_.push_back(Instruction{Opcode::Lui, d, zeroReg, zeroReg, imm});
}

void
Program::itof(RegIndex d, RegIndex a)
{
    checkMutable();
    instrs_.push_back(Instruction{Opcode::Itof, d, a, zeroReg, 0});
}

void
Program::ld(RegIndex d, RegIndex base, std::int64_t disp)
{
    checkMutable();
    instrs_.push_back(Instruction{Opcode::Ld, d, base, zeroReg, disp});
}

void
Program::st(RegIndex value, RegIndex base, std::int64_t disp)
{
    checkMutable();
    instrs_.push_back(
        Instruction{Opcode::St, zeroReg, base, value, disp});
}

void
Program::emitBranch(Opcode op, RegIndex src, Label l)
{
    checkMutable();
    CSIM_ASSERT(l.id >= 0 &&
                l.id < static_cast<int>(labelTargets_.size()));
    fixups_.emplace_back(instrs_.size(), l.id);
    instrs_.push_back(Instruction{op, zeroReg, src, zeroReg, 0});
}

void
Program::beq(RegIndex src, Label l)
{
    emitBranch(Opcode::Beq, src, l);
}

void
Program::bne(RegIndex src, Label l)
{
    emitBranch(Opcode::Bne, src, l);
}

void
Program::jmp(Label l)
{
    emitBranch(Opcode::Jmp, zeroReg, l);
}

void
Program::nop()
{
    checkMutable();
    instrs_.push_back(Instruction{});
}

void
Program::halt()
{
    checkMutable();
    instrs_.push_back(
        Instruction{Opcode::Halt, zeroReg, zeroReg, zeroReg, 0});
}

void
Program::finalize()
{
    checkMutable();
    for (const auto &[index, label] : fixups_) {
        std::int64_t target = labelTargets_.at(label);
        if (target < 0)
            CSIM_FATAL("Program::finalize: unbound label");
        if (target > static_cast<std::int64_t>(instrs_.size()))
            CSIM_FATAL("Program::finalize: label past end of program");
        instrs_[index].imm = target;
    }
    finalized_ = true;
}

void
Program::checkMutable() const
{
    if (finalized_)
        CSIM_PANIC("Program modified after finalize()");
}

std::string
Program::disassemble() const
{
    std::ostringstream out;
    for (std::size_t i = 0; i < instrs_.size(); ++i) {
        const Instruction &inst = instrs_[i];
        out << i << ":\t" << opName(inst.op);
        auto reg = [](RegIndex x) {
            // Appending to a one-char string, not `"f" + to_string`:
            // GCC 12 at -O3 flags the latter with a false -Wrestrict.
            const bool fp = x >= numIntRegs;
            std::string s(1, fp ? 'f' : 'r');
            s += std::to_string(fp ? x - numIntRegs : x);
            return s;
        };
        switch (inst.op) {
          case Opcode::Addi:
            out << ' ' << reg(inst.dest) << ", " << reg(inst.src1)
                << ", " << inst.imm;
            break;
          case Opcode::Lui:
            out << ' ' << reg(inst.dest) << ", " << inst.imm;
            break;
          case Opcode::Itof:
            out << ' ' << reg(inst.dest) << ", " << reg(inst.src1);
            break;
          case Opcode::Ld:
            out << ' ' << reg(inst.dest) << ", " << inst.imm << '('
                << reg(inst.src1) << ')';
            break;
          case Opcode::St:
            out << ' ' << reg(inst.src2) << ", " << inst.imm << '('
                << reg(inst.src1) << ')';
            break;
          case Opcode::Beq:
          case Opcode::Bne:
            out << ' ' << reg(inst.src1) << ", " << inst.imm;
            break;
          case Opcode::Jmp:
            out << ' ' << inst.imm;
            break;
          case Opcode::Nop:
          case Opcode::Halt:
            break;
          default:
            out << ' ' << reg(inst.dest) << ", " << reg(inst.src1)
                << ", " << reg(inst.src2);
            break;
        }
        out << '\n';
    }
    return out.str();
}

} // namespace csim
