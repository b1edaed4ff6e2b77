#include "harness/trace_cache.hh"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "common/fnv.hh"
#include "obs/host_prof.hh"

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

} // anonymous namespace

TraceCache::TraceCache()
{
    statRequests_ = &registry_.addCounter(
        "traceCache.requests", "trace lookups (hits + builds)");
    statBuilds_ = &registry_.addCounter(
        "traceCache.builds", "annotated traces built");
    statHits_ = &registry_.addCounter(
        "traceCache.hits", "lookups served from the cache");
    registry_.addFormula(
        "traceCache.bytesHeld", [this] {
            return static_cast<double>(bytesHeld_);
        },
        "bytes currently held");
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
    {
        const std::uint64_t lock_start = wallNs();
        std::unique_lock<std::mutex> lock(mutex_);
        *statLockWaitNs_ += wallNs() - lock_start;
        ++*statRequests_;
        auto it = slots_.find(key);
        if (it != slots_.end()) {
            ++*statHits_;
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
        ++*statBuilds_;
        Slot slot;
        slot.future = promise.get_future().share();
        slots_.emplace(key, std::move(slot));
    }

    // Build outside the lock so unrelated builds proceed in parallel.
    const std::uint64_t build_start = wallNs();
    std::shared_ptr<const Trace> trace = [&] {
        HOST_PROF_SCOPE("traceCache.build");
        return std::make_shared<const Trace>(
            buildSimulationTrace(workload, cfg, mem, gshare_bits));
    }();
    const std::uint64_t build_ns = wallNs() - build_start;
    promise.set_value(trace);

    {
        const std::uint64_t lock_start = wallNs();
        std::lock_guard<std::mutex> lock(mutex_);
        *statLockWaitNs_ += wallNs() - lock_start;
        *statBuildNs_ += build_ns;
        slots_.at(key).ready = true;
        bytesHeld_ += trace->footprintBytes();
    }
    return trace;
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
    hashes.reserve(slots_.size());
    for (const auto &[key, slot] : slots_)
        hashes.emplace_back(key, fnvHex(fnv1a64(key)));
    std::sort(hashes.begin(), hashes.end());
    return hashes;
}

} // namespace csim
