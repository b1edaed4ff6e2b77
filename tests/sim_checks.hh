/**
 * @file
 * Shared test helpers: machine-invariant validation of a timing-sim
 * result, used by the unit, integration and property suites, and the
 * heap reading the memory-bound tests take.
 */

#ifndef CSIM_TESTS_SIM_CHECKS_HH
#define CSIM_TESTS_SIM_CHECKS_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>

#if __has_include(<malloc.h>)
#include <malloc.h>
#endif

#include "core/machine_config.hh"
#include "core/timing.hh"
#include "isa/opcode.hh"
#include "trace/trace.hh"

namespace csim {

/** Heap bytes in use, small chunks plus mmap-ed blocks; nullopt where
 *  glibc's mallinfo2 is unavailable. */
inline std::optional<std::int64_t>
heapInUse()
{
#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
    const struct mallinfo2 mi = ::mallinfo2();
    return static_cast<std::int64_t>(mi.uordblks + mi.hblkhd);
#else
    return std::nullopt;
#endif
}

/**
 * Check every microarchitectural invariant the clustered machine must
 * honour, per instruction and per cycle:
 *  - pipeline ordering: fetch <= dispatch (>= fetch+depth), ready >=
 *    dispatch+1, issue >= ready, complete == issue + latency, commit >
 *    complete;
 *  - in-order dispatch and commit, commit width respected;
 *  - operands available at issue (producer complete + forwarding);
 *  - per-cluster issue width and int/fp/mem port limits per cycle;
 *  - cluster ids within range.
 */
inline void
validateTiming(const Trace &trace, const SimResult &result,
               const MachineConfig &config)
{
    ASSERT_EQ(result.timing.size(), trace.size());

    struct CycleUse
    {
        unsigned total = 0;
        unsigned intU = 0;
        unsigned fpU = 0;
        unsigned memU = 0;
    };
    // (cluster, cycle) -> usage
    std::map<std::pair<ClusterId, Cycle>, CycleUse> usage;
    std::map<Cycle, unsigned> commits_per_cycle;

    Cycle prev_dispatch = 0;
    Cycle prev_commit = 0;

    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceRecord &rec = trace[i];
        const InstTiming &t = result.timing[i];
        SCOPED_TRACE("instruction " + std::to_string(i));

        ASSERT_NE(t.fetch, invalidCycle);
        ASSERT_NE(t.dispatch, invalidCycle);
        ASSERT_NE(t.issue, invalidCycle);
        ASSERT_NE(t.complete, invalidCycle);
        ASSERT_NE(t.commit, invalidCycle);
        ASSERT_LT(t.cluster, config.numClusters);

        EXPECT_GE(t.dispatch, t.fetch + config.frontendDepth);
        EXPECT_GE(t.ready, t.dispatch + 1);
        EXPECT_GE(t.issue, t.ready);
        EXPECT_EQ(t.complete, t.issue + rec.execLat);
        EXPECT_GT(t.commit, t.complete);

        // In-order dispatch and commit.
        EXPECT_GE(t.dispatch, prev_dispatch);
        EXPECT_GE(t.commit, prev_commit);
        prev_dispatch = t.dispatch;
        prev_commit = t.commit;
        ++commits_per_cycle[t.commit];

        // Operand availability at issue.
        for (int slot = 0; slot < numSrcSlots; ++slot) {
            const InstId p = rec.prod[slot];
            if (p == invalidInstId)
                continue;
            const InstTiming &pt = result.timing[p];
            Cycle avail = pt.complete;
            if (slot != srcSlotMem && pt.cluster != t.cluster)
                avail += config.fwdLatency;
            EXPECT_GE(t.issue, avail)
                << "operand " << slot << " from " << p
                << " not available at issue";
        }

        CycleUse &u = usage[{t.cluster, t.issue}];
        ++u.total;
        if (isIntClass(rec.cls))
            ++u.intU;
        else if (isFpClass(rec.cls))
            ++u.fpU;
        else
            ++u.memU;
    }

    for (const auto &[key, u] : usage) {
        SCOPED_TRACE("cluster " + std::to_string(key.first) +
                     " cycle " + std::to_string(key.second));
        EXPECT_LE(u.total, config.cluster.issueWidth);
        EXPECT_LE(u.intU, config.cluster.intPorts);
        EXPECT_LE(u.fpU, config.cluster.fpPorts);
        EXPECT_LE(u.memU, config.cluster.memPorts);
    }

    for (const auto &[cycle, n] : commits_per_cycle) {
        SCOPED_TRACE("commit cycle " + std::to_string(cycle));
        EXPECT_LE(n, config.commitWidth);
    }

    EXPECT_EQ(result.instructions, trace.size());
    if (!trace.empty()) {
        EXPECT_EQ(result.cycles, result.timing.back().commit + 1);
    }
}

} // namespace csim

#endif // CSIM_TESTS_SIM_CHECKS_HH
