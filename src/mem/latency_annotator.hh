/**
 * @file
 * Cache latency annotation pass: replays the trace's memory accesses
 * through the L1 model in program order and rewrites each load's
 * execution latency with its hit/miss outcome.
 */

#ifndef CSIM_MEM_LATENCY_ANNOTATOR_HH
#define CSIM_MEM_LATENCY_ANNOTATOR_HH

#include "mem/cache.hh"
#include "trace/trace.hh"

namespace csim {

struct MemoryModelConfig
{
    CacheConfig l1 = CacheConfig{};
    /** Load-to-use latency on an L1 hit (Alpha 21264: 3 cycles). */
    unsigned loadToUse = 3;
    /** Additional latency on an L1 miss (infinite 20-cycle L2). */
    unsigned l2Latency = 20;
};

struct MemAnnotateResult
{
    CacheStats l1;
    std::uint64_t loadMisses = 0;
};

/**
 * Annotate rec.execLat and rec.l1Miss for every load; stores access the
 * cache (write-allocate) but keep their 1-cycle occupancy. The trace
 * must hold its build columns (it reads memAddr); a simulation-only
 * trace panics.
 */
MemAnnotateResult annotateMemory(Trace &trace,
                                 const MemoryModelConfig &config =
                                     MemoryModelConfig{});

/**
 * Same pass against a caller-owned L1 whose contents persist across
 * calls — the streaming-build form: annotating chunk by chunk through
 * one cache yields exactly the monolithic pass's outcomes. The
 * returned l1 stats cover the cache's whole lifetime so far.
 */
MemAnnotateResult annotateMemory(Trace &trace, Cache &l1,
                                 const MemoryModelConfig &config =
                                     MemoryModelConfig{});

} // namespace csim

#endif // CSIM_MEM_LATENCY_ANNOTATOR_HH
