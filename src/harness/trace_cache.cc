#include "harness/trace_cache.hh"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/fnv.hh"
#include "common/logging.hh"
#include "obs/host_prof.hh"
#include "trace/trace_store.hh"

namespace csim {

namespace {

std::uint64_t
wallNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::string
cacheKey(const std::string &workload, const WorkloadConfig &cfg,
         const MemoryModelConfig &mem, unsigned gshare_bits)
{
    std::ostringstream key;
    key << workload << '|' << cfg.seed << '|' << cfg.targetInstructions
        << '|' << mem.l1.sizeBytes << ',' << mem.l1.assoc << ','
        << mem.l1.lineBytes << '|' << mem.loadToUse << ','
        << mem.l2Latency << '|' << gshare_bits;
    return key.str();
}

/** Spill file name: FNV-1a 64 over the cache key (the key encodes
 *  every build input, so equal hashes mean equal content). */
std::string
spillFileName(const std::string &key)
{
    return fnvHex(fnv1a64(key)) + ".trc2";
}

std::size_t
fileSizeBytes(const std::string &path)
{
    struct ::stat st;
    return ::stat(path.c_str(), &st) == 0 ?
        static_cast<std::size_t>(st.st_size) : 0;
}

} // anonymous namespace

TraceCache::TraceCache(std::size_t capacity_bytes,
                       std::string spill_dir)
    : capacityBytes_(capacity_bytes), spillDir_(std::move(spill_dir))
{
    statRequests_ = &registry_.addCounter(
        "traceCache.requests", "trace lookups (hits + builds)");
    statBuilds_ = &registry_.addCounter(
        "traceCache.builds", "annotated traces built");
    statHits_ = &registry_.addCounter(
        "traceCache.hits", "lookups served from the cache");
    statEvictions_ = &registry_.addCounter(
        "traceCache.evictions", "entries evicted by the byte budget");
    statBytesBuilt_ = &registry_.addCounter(
        "traceCache.bytesBuilt", "total bytes of traces built");
    statBytesEvicted_ = &registry_.addCounter(
        "traceCache.bytesEvicted", "total bytes evicted");
    statSpillWrites_ = &registry_.addCounter(
        "traceCache.spill.writes",
        "evicted traces written to the spill directory");
    statSpillBytes_ = &registry_.addCounter(
        "traceCache.spill.bytes",
        "total file bytes of spilled trace stores");
    statMmapLoads_ = &registry_.addCounter(
        "traceCache.mmap.loads",
        "misses served by mmap-ing a spilled store back");
    statMmapBytes_ = &registry_.addCounter(
        "traceCache.mmap.bytes",
        "total file bytes mmap-ed back from spilled stores");
    registry_.addFormula(
        "traceCache.bytesHeld", [this] {
            return static_cast<double>(bytesHeld_);
        },
        "bytes currently held");
    registry_.addFormula(
        "traceCache.peakBytes", [this] {
            return static_cast<double>(peakBytes_);
        },
        "high-water mark of bytes held");
    registry_.addFormula(
        "traceCache.entriesHeld", [this] {
            return static_cast<double>(slots_.size());
        },
        "entries currently held");
    registry_.addFormula(
        "traceCache.hitRate", [this] {
            const double reqs =
                static_cast<double>(statRequests_->value());
            return reqs > 0.0 ?
                static_cast<double>(statHits_->value()) / reqs : 0.0;
        },
        "fraction of lookups served without a build");

    statBuildNs_ = &timeRegistry_.addCounter(
        "traceCache.time.buildNs",
        "wall nanoseconds spent building annotated traces");
    statLockWaitNs_ = &timeRegistry_.addCounter(
        "traceCache.time.lockWaitNs",
        "wall nanoseconds spent acquiring the cache lock");
    statHitWaitNs_ = &timeRegistry_.addCounter(
        "traceCache.time.hitWaitNs",
        "wall nanoseconds blocked on another thread's in-flight build");
    timeRegistry_.addFormula(
        "traceCache.time.buildMsMean", [this] {
            const double builds =
                static_cast<double>(statBuilds_->value());
            return builds > 0.0 ?
                static_cast<double>(statBuildNs_->value()) / builds /
                    1e6 : 0.0;
        },
        "mean milliseconds per trace build");
}

std::shared_ptr<const Trace>
TraceCache::get(const std::string &workload, const WorkloadConfig &cfg,
                const MemoryModelConfig &mem, unsigned gshare_bits)
{
    const std::string key = cacheKey(workload, cfg, mem, gshare_bits);

    std::promise<std::shared_ptr<const Trace>> promise;
    std::string spill_path;
    {
        const std::uint64_t lock_start = wallNs();
        std::unique_lock<std::mutex> lock(mutex_);
        *statLockWaitNs_ += wallNs() - lock_start;
        ++*statRequests_;
        auto it = slots_.find(key);
        if (it != slots_.end()) {
            ++*statHits_;
            it->second.lastUse = ++tick_;
            auto future = it->second.future;
            if (it->second.ready)
                return future.get();
            // Still in flight on another thread: wait on the shared
            // future outside the lock and charge the blocked time.
            const std::uint64_t wait_start = wallNs();
            lock.unlock();
            std::shared_ptr<const Trace> trace = future.get();
            const std::uint64_t wait_ns = wallNs() - wait_start;
            lock.lock();
            *statHitWaitNs_ += wait_ns;
            return trace;
        }
        // A spilled entry is rehydrated from its store file instead
        // of re-running the whole build pipeline.
        auto sp = spilled_.find(key);
        if (sp != spilled_.end())
            spill_path = sp->second.path;
        if (spill_path.empty())
            ++*statBuilds_;
        Slot slot;
        slot.future = promise.get_future().share();
        slot.lastUse = ++tick_;
        slots_.emplace(key, std::move(slot));
    }

    // Build (or reload) outside the lock so unrelated builds proceed
    // in parallel.
    bool spill_fallback = false;
    std::size_t mmap_bytes = 0;
    const std::uint64_t build_start = wallNs();
    std::shared_ptr<const Trace> trace = [&] {
        if (!spill_path.empty()) {
            HOST_PROF_SCOPE("traceCache.mmapLoad");
            TraceSoA soa;
            TraceStoreInfo info;
            if (loadTraceStore(soa, spill_path, &info) ==
                TraceIoStatus::Ok) {
                mmap_bytes = info.fileBytes;
                // Copy the columns into an owning trace (base 0: the
                // links stay as they are), releasing the mapping when
                // `soa` goes out of scope.
                return std::make_shared<const Trace>(
                    extractRegion(soa, 0, soa.size()));
            }
            // Unreadable spill file: fall back to a fresh build.
            spill_fallback = true;
        }
        HOST_PROF_SCOPE("traceCache.build");
        return buildSharedAnnotatedTrace(workload, cfg, mem,
                                         gshare_bits);
    }();
    const std::uint64_t build_ns = wallNs() - build_start;
    promise.set_value(trace);

    {
        const std::uint64_t lock_start = wallNs();
        std::lock_guard<std::mutex> lock(mutex_);
        *statLockWaitNs_ += wallNs() - lock_start;
        if (spill_path.empty() || spill_fallback)
            *statBuildNs_ += build_ns;
        if (spill_fallback) {
            ++*statBuilds_;
            spilled_.erase(key);
        } else if (!spill_path.empty()) {
            ++*statMmapLoads_;
            *statMmapBytes_ += mmap_bytes;
        }
        auto it = slots_.find(key);
        CSIM_ASSERT(it != slots_.end()); // in-flight: never evicted
        it->second.ready = true;
        it->second.bytes = trace->footprintBytes();
        bytesHeld_ += it->second.bytes;
        peakBytes_ = std::max(peakBytes_, bytesHeld_);
        *statBytesBuilt_ += it->second.bytes;
        evictLocked(key);
    }
    return trace;
}

void
TraceCache::evictLocked(const std::string &protect_key)
{
    if (capacityBytes_ == 0)
        return;
    while (bytesHeld_ > capacityBytes_) {
        auto victim = slots_.end();
        for (auto it = slots_.begin(); it != slots_.end(); ++it) {
            if (!it->second.ready || it->first == protect_key)
                continue;
            if (victim == slots_.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (victim == slots_.end())
            return; // only the protected / in-flight entries remain
        // Spill the victim to disk before dropping it so a later miss
        // mmaps it back instead of re-running the build pipeline. A
        // previously spilled key's file is still valid (entries are
        // immutable), so it is never rewritten.
        if (!spillDir_.empty() && !spilled_.count(victim->first)) {
            const std::string path =
                spillDir_ + "/" + spillFileName(victim->first);
            if (saveTraceStore(*victim->second.future.get(), path)) {
                SpillEntry entry;
                entry.path = path;
                entry.fileBytes = fileSizeBytes(path);
                ++*statSpillWrites_;
                *statSpillBytes_ += entry.fileBytes;
                spilled_.emplace(victim->first, std::move(entry));
            }
        }
        bytesHeld_ -= victim->second.bytes;
        ++*statEvictions_;
        *statBytesEvicted_ += victim->second.bytes;
        slots_.erase(victim);
    }
}

void
TraceCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[key, slot] : slots_)
        CSIM_ASSERT(slot.ready);
    slots_.clear();
    bytesHeld_ = 0;
}

std::uint64_t
TraceCache::requests() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return statRequests_->value();
}

std::uint64_t
TraceCache::builds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return statBuilds_->value();
}

std::uint64_t
TraceCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return statHits_->value();
}

std::uint64_t
TraceCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return statEvictions_->value();
}

std::size_t
TraceCache::bytesHeld() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bytesHeld_;
}

std::size_t
TraceCache::entries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return slots_.size();
}

StatsSnapshot
TraceCache::statsSnapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return registry_.snapshot();
}

StatsSnapshot
TraceCache::timeSnapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return timeRegistry_.snapshot();
}

std::vector<std::pair<std::string, std::string>>
TraceCache::contentHashes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, std::string>> hashes;
    hashes.reserve(slots_.size() + spilled_.size());
    for (const auto &[key, slot] : slots_)
        hashes.emplace_back(key, fnvHex(fnv1a64(key)));
    for (const auto &[key, entry] : spilled_)
        if (!slots_.count(key))
            hashes.emplace_back(key, fnvHex(fnv1a64(key)));
    std::sort(hashes.begin(), hashes.end());
    return hashes;
}

} // namespace csim
