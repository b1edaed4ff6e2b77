#include "listsched/list_scheduler.hh"

#include <algorithm>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/logging.hh"
#include "core/cluster.hh"
#include "trace/trace_soa.hh"

namespace csim {

namespace {

/** Priority bonus for the mispredicted branch's backward slice. */
constexpr std::int64_t sliceBonus = std::int64_t{1} << 20;

/** Per-cluster schedule grid: port usage per cycle from the region
 *  base. */
class ResourceGrid
{
  public:
    ResourceGrid(unsigned num_clusters, const ClusterPorts &ports)
        : ports_(ports), grid_(num_clusters)
    {}

    /** First cycle >= t where cluster c can issue an op of class cls. */
    Cycle
    findSlot(ClusterId c, Cycle t, Cycle base, OpClass cls)
    {
        auto &lane = grid_[c];
        while (true) {
            const std::size_t off = static_cast<std::size_t>(t - base);
            if (off >= lane.size())
                lane.resize(off + 64);
            Cluster::PortUse probe = lane[off];
            if (probe.claim(cls, ports_))
                return t;
            ++t;
        }
    }

    void
    claim(ClusterId c, Cycle t, Cycle base, OpClass cls)
    {
        auto &lane = grid_[c];
        const std::size_t off = static_cast<std::size_t>(t - base);
        CSIM_ASSERT(off < lane.size());
        const bool ok = lane[off].claim(cls, ports_);
        CSIM_ASSERT(ok);
    }

    void
    resetAll()
    {
        for (auto &lane : grid_)
            lane.clear();
    }

  private:
    ClusterPorts ports_;
    std::vector<std::vector<Cluster::PortUse>> grid_;
};

} // anonymous namespace

ListSchedResult
listSchedule(const Trace &trace,
             const std::vector<InstTiming> &ref_timing,
             const MachineConfig &config,
             const ListSchedOptions &options)
{
    const std::uint64_t n = trace.size();
    CSIM_ASSERT(ref_timing.size() == n);
    if (options.priority == ListSchedOptions::Priority::Loc)
        CSIM_ASSERT(options.locPred != nullptr);
    if (options.priority == ListSchedOptions::Priority::BinaryCritical)
        CSIM_ASSERT(options.critPred != nullptr);

    ListSchedResult result;
    result.instructions = n;
    if (n == 0)
        return result;

    const std::vector<Region> regions =
        splitRegions(trace, options.maxRegion);
    const TraceSoA view = trace.soa();
    result.regions = regions.size();

    std::vector<Cycle> completion(n, 0);
    std::vector<ClusterId> cluster_of(n, 0);
    ResourceGrid grid(config.numClusters, config.cluster);

    Cycle clock = 0;
    Cycle makespan = 0;

    // Region-local scratch, sized once.
    std::vector<std::int64_t> prio;
    std::vector<std::int64_t> chain_best;
    std::vector<bool> on_slice;
    std::vector<unsigned> pending;
    std::vector<std::vector<std::uint32_t>> consumers;

    for (const Region &region : regions) {
        const std::uint64_t b = region.begin;
        const std::uint64_t e = region.end;
        const std::uint64_t m = e - b;

        prio.assign(m, 0);
        pending.assign(m, 0);
        consumers.assign(m, {});
        grid.resetAll();

        // Region-internal consumer lists and pending-producer counts.
        for (std::uint64_t i = b; i < e; ++i) {
            for (int slot = 0; slot < numSrcSlots; ++slot) {
                const InstId p = view.prod(slot)[i];
                if (p == invalidInstId || p < b)
                    continue;
                consumers[p - b].push_back(
                    static_cast<std::uint32_t>(i - b));
                ++pending[i - b];
            }
        }

        // Priorities.
        switch (options.priority) {
          case ListSchedOptions::Priority::DataflowHeight: {
            chain_best.assign(m, 0);
            on_slice.assign(m, false);
            if (region.endsWithMispredict)
                on_slice[m - 1] = true;
            for (std::uint64_t k = m; k-- > 0;) {
                const std::uint64_t i = b + k;
                const std::int64_t h =
                    view.execLat()[i] + chain_best[k];
                prio[k] = h + (on_slice[k] ? sliceBonus : 0);
                for (int slot = 0; slot < numSrcSlots; ++slot) {
                    const InstId p = view.prod(slot)[i];
                    if (p == invalidInstId || p < b)
                        continue;
                    chain_best[p - b] =
                        std::max(chain_best[p - b], h);
                    if (on_slice[k])
                        on_slice[p - b] = true;
                }
            }
            break;
          }
          case ListSchedOptions::Priority::Loc:
            for (std::uint64_t k = 0; k < m; ++k)
                prio[k] = options.locPred->level(view.pc()[b + k]);
            break;
          case ListSchedOptions::Priority::BinaryCritical:
            for (std::uint64_t k = 0; k < m; ++k)
                prio[k] = options.critPred->predict(view.pc()[b + k])
                    ? 1 : 0;
            break;
        }

        // Ready heap: highest priority first, then oldest.
        using HeapEntry = std::pair<std::int64_t, std::int64_t>;
        std::priority_queue<HeapEntry> ready;
        for (std::uint64_t k = 0; k < m; ++k)
            if (pending[k] == 0)
                ready.emplace(prio[k],
                              -static_cast<std::int64_t>(k));

        const Cycle disp_base = ref_timing[b].dispatch;
        std::unordered_set<std::uint64_t> delivered;

        std::uint64_t scheduled = 0;
        while (!ready.empty()) {
            const std::uint64_t k =
                static_cast<std::uint64_t>(-ready.top().second);
            ready.pop();
            const std::uint64_t i = b + k;
            const OpClass cls = view.cls()[i];
            const unsigned exec_lat = view.execLat()[i];
            InstId prod[numSrcSlots];
            for (int slot = 0; slot < numSrcSlots; ++slot)
                prod[slot] = view.prod(slot)[i];

            // The fetch constraint: no earlier than the cycle the 1x8w
            // machine dispatched it, rebased to this region's start.
            const Cycle disp_rel =
                ref_timing[i].dispatch - disp_base;
            const Cycle fetch_floor = clock + disp_rel;

            Cycle best_completion = invalidCycle;
            Cycle best_start = 0;
            ClusterId best_cluster = 0;
            bool best_is_producer_cluster = false;

            for (unsigned cu = 0; cu < config.numClusters; ++cu) {
                const ClusterId c = static_cast<ClusterId>(cu);
                Cycle est = fetch_floor;
                bool producer_here = false;
                for (int slot = 0; slot < numSrcSlots; ++slot) {
                    const InstId p = prod[slot];
                    if (p == invalidInstId)
                        continue;
                    Cycle avail = completion[p];
                    if (slot != srcSlotMem) {
                        if (cluster_of[p] != c)
                            avail += config.fwdLatency;
                        else
                            producer_here = true;
                    }
                    est = std::max(est, avail);
                }
                const Cycle t = grid.findSlot(c, est, clock, cls);
                const Cycle done = t + exec_lat;
                const bool better = done < best_completion ||
                    (done == best_completion && producer_here &&
                     !best_is_producer_cluster);
                if (better) {
                    best_completion = done;
                    best_start = t;
                    best_cluster = c;
                    best_is_producer_cluster = producer_here;
                }
            }

            grid.claim(best_cluster, best_start, clock, cls);
            completion[i] = best_completion;
            cluster_of[i] = best_cluster;
            makespan = std::max(makespan, best_completion);
            ++scheduled;

            // Count cross-cluster value deliveries (deduplicated per
            // producer and destination cluster).
            for (int slot = srcSlot1; slot <= srcSlot2; ++slot) {
                const InstId p = prod[slot];
                if (p == invalidInstId || cluster_of[p] == best_cluster)
                    continue;
                const std::uint64_t key =
                    (p << 4) | best_cluster;
                if (delivered.insert(key).second)
                    ++result.globalValues;
            }

            for (std::uint32_t ck : consumers[k]) {
                CSIM_ASSERT(pending[ck] > 0);
                if (--pending[ck] == 0)
                    ready.emplace(prio[ck],
                                  -static_cast<std::int64_t>(ck));
            }
        }
        CSIM_ASSERT(scheduled == m);

        // Advance the clock to the next region's start.
        if (region.endsWithMispredict) {
            clock = completion[e - 1] + 1 + config.frontendDepth;
        } else if (e < n) {
            // Artificial split: pure front-end pacing.
            clock += ref_timing[e].dispatch - disp_base;
        }
    }

    result.cycles = makespan + 1;
    return result;
}

} // namespace csim
