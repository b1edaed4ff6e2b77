/**
 * @file
 * Shared annotated-trace cache for experiment sweeps.
 *
 * Every (workload, seed, instructions, memory-config, gshare-bits)
 * combination maps to exactly one annotated trace, which is built once
 * and then shared immutably (shared_ptr<const Trace>) across all
 * experiment cells that need it — the trace-build passes (emulation,
 * producer linking, branch and cache annotation) are deterministic, so
 * a cached trace is bit-identical to a fresh build. The cache is
 * thread-safe: concurrent requests for a trace that is still being
 * built block on the in-flight build instead of duplicating it.
 *
 * An optional byte budget evicts least-recently-used entries; evicted
 * traces stay alive for as long as any cell still holds its
 * shared_ptr. Cache activity (builds, hits, evictions, bytes held) is
 * reported through a StatsRegistry so bench JSON reports can show how
 * much redundant work the cache removed.
 *
 * Host-side latency (wall time spent building entries, waiting for the
 * cache lock, or blocking on another thread's in-flight build) lives in
 * a separate time registry ("traceCache.time.*", timeSnapshot()). Wall
 * times vary run to run, so they are surfaced only under the report's
 * "host" block, never mixed into the deterministic simulation stats.
 */

#ifndef CSIM_HARNESS_TRACE_CACHE_HH
#define CSIM_HARNESS_TRACE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/stats_registry.hh"
#include "workloads/registry.hh"

namespace csim {

class TraceCache
{
  public:
    /**
     * @param capacity_bytes LRU byte budget; 0 means unlimited.
     * @param spill_dir When non-empty, entries evicted by the byte
     *        budget are written to this directory as columnar trace
     *        stores (one file per cache key, named by a content hash
     *        of the key) instead of being discarded. A later miss on
     *        a spilled key mmaps the store back instead of re-running
     *        the whole build pipeline — the trace-build passes are
     *        deterministic, so the rehydrated trace is bit-identical.
     *        The directory must exist and files left in it belong to
     *        the caller (a temp dir in the bench binaries).
     */
    explicit TraceCache(std::size_t capacity_bytes = 0,
                        std::string spill_dir = "");

    TraceCache(const TraceCache &) = delete;
    TraceCache &operator=(const TraceCache &) = delete;

    /**
     * The annotated trace for this cell key, building it on first use.
     * Blocks if another thread is currently building the same trace.
     */
    std::shared_ptr<const Trace>
    get(const std::string &workload, const WorkloadConfig &cfg,
        const MemoryModelConfig &mem = MemoryModelConfig{},
        unsigned gshare_bits = 16);

    /** Drop every cached entry (in-flight builds must have finished). */
    void clear();

    // Activity counters (all monotonic except bytesHeld/entries).
    std::uint64_t requests() const;
    std::uint64_t builds() const;
    std::uint64_t hits() const;
    std::uint64_t evictions() const;
    std::size_t bytesHeld() const;
    std::size_t entries() const;

    /** Frozen view of the cache's stats registry ("traceCache.*"). */
    StatsSnapshot statsSnapshot() const;

    /** Frozen view of the host-latency registry ("traceCache.time.*").
     *  Nondeterministic wall times; report under "host" only. */
    StatsSnapshot timeSnapshot() const;

    /**
     * Content identity of every trace this cache has seen (held or
     * spilled), as key-sorted (cacheKey, fnv1a64 hex) pairs — the same
     * FNV-1a digest the spill files are named by. The key encodes every
     * deterministic build input, so the hash commits to the trace
     * content; provenance manifests embed this list.
     */
    std::vector<std::pair<std::string, std::string>>
    contentHashes() const;

  private:
    struct Slot
    {
        std::shared_future<std::shared_ptr<const Trace>> future;
        /** Trace::footprintBytes(); known once the build finished. */
        std::size_t bytes = 0;
        bool ready = false;
        std::uint64_t lastUse = 0;
    };

    /** Evict ready LRU entries beyond the byte budget (lock held).
     *  The entry named by protect_key is never evicted. */
    void evictLocked(const std::string &protect_key);

    const std::size_t capacityBytes_;
    const std::string spillDir_;

    /** A spilled entry: its store file and the in-memory footprint it
     *  had (the rehydrated size, for the byte budget on reload). */
    struct SpillEntry
    {
        std::string path;
        std::size_t fileBytes = 0;
    };
    std::unordered_map<std::string, SpillEntry> spilled_;

    mutable std::mutex mutex_;
    std::unordered_map<std::string, Slot> slots_;
    std::uint64_t tick_ = 0;
    std::size_t bytesHeld_ = 0;
    std::size_t peakBytes_ = 0;

    StatsRegistry registry_;
    Counter *statRequests_ = nullptr;
    Counter *statBuilds_ = nullptr;
    Counter *statHits_ = nullptr;
    Counter *statEvictions_ = nullptr;
    Counter *statBytesBuilt_ = nullptr;
    Counter *statBytesEvicted_ = nullptr;
    Counter *statSpillWrites_ = nullptr;
    Counter *statSpillBytes_ = nullptr;
    Counter *statMmapLoads_ = nullptr;
    Counter *statMmapBytes_ = nullptr;

    StatsRegistry timeRegistry_;
    Counter *statBuildNs_ = nullptr;
    Counter *statLockWaitNs_ = nullptr;
    Counter *statHitWaitNs_ = nullptr;
};

} // namespace csim

#endif // CSIM_HARNESS_TRACE_CACHE_HH
