#include "verify/random_trace.hh"

#include <vector>

#include "common/logging.hh"
#include "isa/opcode.hh"

namespace csim {

MachineConfig
randomMachineConfig(Rng &rng)
{
    MachineConfig config;
    // Favour the paper's cluster counts but visit every legal one.
    static const unsigned cluster_counts[] = {1, 2, 3, 4, 6, 8, 16};
    config.numClusters = cluster_counts[rng.below(7)];
    config.cluster.issueWidth =
        1 + static_cast<unsigned>(rng.below(4));
    config.cluster.intPorts =
        1 + static_cast<unsigned>(rng.below(config.cluster.issueWidth));
    config.cluster.fpPorts =
        1 + static_cast<unsigned>(rng.below(config.cluster.issueWidth));
    config.cluster.memPorts =
        1 + static_cast<unsigned>(rng.below(config.cluster.issueWidth));
    config.windowPerCluster =
        1 + static_cast<unsigned>(rng.below(32));
    // 1..600 crosses every power-of-two ring size the core's
    // in-flight tables take, from 1 to 1024 slots.
    config.robEntries = 1 + static_cast<unsigned>(rng.below(600));
    config.fetchWidth = 1 + static_cast<unsigned>(rng.below(8));
    config.dispatchWidth = 1 + static_cast<unsigned>(rng.below(8));
    config.commitWidth = 1 + static_cast<unsigned>(rng.below(8));
    config.frontendDepth = 1 + static_cast<unsigned>(rng.below(13));
    config.fwdLatency = static_cast<unsigned>(rng.below(5));
    config.fetchStopAtTaken = rng.chance(1, 2);
    CSIM_ASSERT(config.validationError().empty());
    return config;
}

Trace
randomTrace(Rng &rng, std::uint64_t instructions)
{
    // Weighted opcode mix: int-heavy with real shares of memory,
    // floating point and control, like the synthetic workloads.
    struct Pick
    {
        Opcode op;
        unsigned weight;
    };
    static const Pick mix[] = {
        {Opcode::Add, 22}, {Opcode::Addi, 10}, {Opcode::Xor, 6},
        {Opcode::Cmplt, 4}, {Opcode::Mul, 4},  {Opcode::Ld, 18},
        {Opcode::St, 8},   {Opcode::Fadd, 8},  {Opcode::Fmul, 4},
        {Opcode::Fdiv, 2}, {Opcode::Beq, 6},   {Opcode::Bne, 5},
        {Opcode::Jmp, 3},
    };
    unsigned total_weight = 0;
    for (const Pick &p : mix)
        total_weight += p.weight;

    Trace trace;
    std::vector<InstId> recent_stores;
    for (std::uint64_t i = 0; i < instructions; ++i) {
        std::uint64_t roll = rng.below(total_weight);
        Opcode op = mix[0].op;
        for (const Pick &p : mix) {
            if (roll < p.weight) {
                op = p.op;
                break;
            }
            roll -= p.weight;
        }

        TraceRecord rec;
        rec.pc = 0x1000 + i * 4;
        rec.op = op;
        rec.cls = opClass(op);
        rec.execLat = static_cast<std::uint8_t>(opLatency(op));
        rec.isBranch = isBranch(op);
        rec.isCondBranch = isCondBranch(op);
        if (rec.isCondBranch) {
            rec.taken = rng.chance(2, 5);
            rec.mispredicted = rng.chance(1, 12);
        } else if (rec.isBranch) {
            rec.taken = true;
        }
        if (rec.isLoad() && rng.chance(1, 10)) {
            rec.l1Miss = true;
            rec.execLat = static_cast<std::uint8_t>(
                8 + rng.below(32));
        }

        const bool fp = isFpClass(rec.cls);
        rec.dest = static_cast<RegIndex>(
            fp ? numIntRegs + rng.below(numFpRegs)
               : rng.below(zeroReg));
        rec.src1 = static_cast<RegIndex>(rng.below(numIntRegs));
        rec.src2 = static_cast<RegIndex>(rng.below(numIntRegs));
        rec.memAddr = isMem(op) ? 0x8000 + rng.below(64) * 8 : 0;

        // Register operands wired straight to random recent
        // producers: dependence chains dense enough to exercise the
        // bypass, shallow enough to leave parallelism.
        if (i > 0) {
            for (int slot = 0; slot < 2; ++slot) {
                if (!rng.chance(3, 5))
                    continue;
                const std::uint64_t back =
                    1 + rng.below(std::min<std::uint64_t>(i, 24));
                rec.prod[slot] = i - back;
            }
        }
        if (rec.isLoad() && !recent_stores.empty() &&
            rng.chance(3, 10))
            rec.prod[srcSlotMem] =
                recent_stores[recent_stores.size() - 1 -
                              rng.below(std::min<std::uint64_t>(
                                  recent_stores.size(), 8))];
        if (rec.isStore())
            recent_stores.push_back(i);

        trace.append(rec);
    }
    CSIM_ASSERT(trace.wellFormed());
    return trace;
}

} // namespace csim
