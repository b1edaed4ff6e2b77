#include "critpath/depgraph.hh"

#include "common/logging.hh"
#include "trace/trace_soa.hh"

namespace csim {

const char *
cpCategoryName(CpCategory cat)
{
    switch (cat) {
      case CpCategory::Fetch: return "fetch";
      case CpCategory::BrMispredict: return "br. mispr.";
      case CpCategory::Window: return "window";
      case CpCategory::Execute: return "execute";
      case CpCategory::MemLatency: return "mem. latency";
      case CpCategory::FwdDelay: return "fwd. delay";
      case CpCategory::Contention: return "contention";
      default:
        CSIM_PANIC("cpCategoryName: bad category");
    }
}

namespace {

enum class NodeKind { Commit, Execute, Dispatch };

} // anonymous namespace

CriticalPathResult
analyzeCriticalPath(const Trace &trace,
                    std::span<const InstTiming> timing,
                    const MachineConfig &config, std::uint64_t begin)
{
    CriticalPathResult res;
    const std::uint64_t n = timing.size();
    res.criticalExec.assign(n, false);
    if (n == 0)
        return res;
    const std::uint64_t end = begin + n;
    const TraceSoA view = trace.soa();

    auto tm = [&](std::uint64_t i) -> const InstTiming & {
        return timing[i - begin];
    };
    auto attr = [&](std::uint64_t cycles, CpCategory cat) {
        res.breakdown.cycles[static_cast<std::size_t>(cat)] += cycles;
    };

    // Most recent mispredicted conditional branch before instruction
    // j (region-local), or -1. The walk only ever moves to older
    // instructions, so one backward cursor answers every query and
    // scans each index at most once: O(n) time, O(1) memory. mp is
    // the last mispredict below mp_limit (-1: none), which is also
    // the answer for any smaller j above it; it starts above every
    // query, forcing the first scan.
    std::uint64_t mp_limit = end;
    std::int64_t mp = static_cast<std::int64_t>(end);
    auto lastMispred = [&](std::uint64_t j) -> std::int64_t {
        CSIM_ASSERT(j <= mp_limit);
        mp_limit = j;
        if (mp < static_cast<std::int64_t>(j))
            return mp;
        mp = -1;
        for (std::uint64_t k = j; k > begin;) {
            --k;
            if (view.isCondBranch(k) && view.mispredicted(k)) {
                mp = static_cast<std::int64_t>(k);
                break;
            }
        }
        return mp;
    };

    const Cycle floor = (begin == 0) ? 0 : Cycle{tm(begin).fetch};
    const unsigned depth = config.frontendDepth;
    const unsigned cw = config.commitWidth;

    NodeKind kind = NodeKind::Commit;
    std::uint64_t i = end - 1;
    bool done = false;

    while (!done) {
        switch (kind) {
          case NodeKind::Commit: {
            const InstTiming &t = tm(i);
            const Cycle T = t.commit;
            if (T == t.complete + 1) {
                attr(1, CpCategory::Execute);
                kind = NodeKind::Execute;
            } else if (i >= begin + cw &&
                       tm(i - cw).commit + 1 == T) {
                attr(1, CpCategory::Window);   // commit bandwidth
                i -= cw;
            } else if (i > begin && tm(i - 1).commit == T) {
                i -= 1;                        // in-order commit, 0 wt
            } else if (i > begin) {
                attr(T - tm(i - 1).commit, CpCategory::Window);
                i -= 1;
            } else {
                // Region-boundary commit stall.
                attr(T - t.complete - 1, CpCategory::Window);
                attr(1, CpCategory::Execute);
                kind = NodeKind::Execute;
            }
            break;
          }

          case NodeKind::Execute: {
            const InstTiming &t = tm(i);
            res.criticalExec[i - begin] = true;

            // Latency: split load-miss cycles out as memory latency.
            const unsigned base = opLatency(view.op()[i]);
            const unsigned lat = view.execLat()[i];
            attr(std::min<unsigned>(lat, base), CpCategory::Execute);
            if (lat > base)
                attr(lat - base, CpCategory::MemLatency);

            // Contention: issued later than ready.
            CSIM_ASSERT(t.issue >= t.ready);
            const Cycle cont = t.issue - t.ready;
            if (cont > 0) {
                attr(cont, CpCategory::Contention);
                if (t.predictedCritical)
                    ++res.breakdown.contentionEventsCritical;
                else
                    ++res.breakdown.contentionEventsOther;
            }

            // What made it ready?
            if (t.ready == t.dispatch + 1) {
                attr(1, CpCategory::Execute);
                kind = NodeKind::Dispatch;
                break;
            }

            // A producer's arrival: find the last-arriving operand,
            // preferring one that paid the forwarding latency. When
            // several operands tie (parallel critical paths, e.g. the
            // two arms of a dataflow hammock), break the tie with a
            // per-instance hash so repeated executions distribute the
            // "critical" label across the near-critical twins — the
            // parallel-paths ambiguity Fields et al. note.
            std::int64_t candidates[numSrcSlots];
            bool candidate_cross[numSrcSlots];
            int num_candidates = 0;
            bool any_cross = false;
            for (int slot = 0; slot < numSrcSlots; ++slot) {
                const InstId p = view.prod(slot)[i];
                if (p == invalidInstId || p < begin)
                    continue;
                const bool cross =
                    (t.crossMask >> slot) & 1u;
                const Cycle avail = tm(p).complete +
                    (cross ? config.fwdLatency : 0);
                if (avail != t.ready)
                    continue;
                candidates[num_candidates] =
                    static_cast<std::int64_t>(p);
                candidate_cross[num_candidates] = cross;
                ++num_candidates;
                any_cross = any_cross || cross;
            }

            std::int64_t chosen = -1;
            bool chosen_cross = false;
            if (num_candidates == 1) {
                chosen = candidates[0];
                chosen_cross = candidate_cross[0];
            } else if (num_candidates > 1) {
                // Cross-cluster arrivals take precedence (they carry
                // the forwarding attribution); among equals, hash.
                int pool[numSrcSlots];
                int pool_size = 0;
                for (int k = 0; k < num_candidates; ++k)
                    if (candidate_cross[k] == any_cross)
                        pool[pool_size++] = k;
                const std::uint64_t h =
                    (i * 0x9e3779b97f4a7c15ull) >> 33;
                const int pick = pool[h % pool_size];
                chosen = candidates[pick];
                chosen_cross = candidate_cross[pick];
            }

            if (chosen < 0) {
                // Producer outside the analysed region: stop here.
                attr(t.ready - floor, CpCategory::Fetch);
                done = true;
                break;
            }

            if (chosen_cross) {
                attr(config.fwdLatency, CpCategory::FwdDelay);
                if (t.reason == SteerReason::LoadBalanced ||
                    t.reason == SteerReason::ProactiveLB) {
                    ++res.breakdown.fwdEventsLoadBal;
                } else if (t.dyadicSplit) {
                    ++res.breakdown.fwdEventsDyadic;
                } else {
                    ++res.breakdown.fwdEventsOther;
                }
            }

            i = static_cast<std::uint64_t>(chosen);
            // kind stays Execute.
            break;
          }

          case NodeKind::Dispatch: {
            const InstTiming &t = tm(i);
            // Steering-stage stall (ROB full, window full, policy
            // stall) beyond the front-end pipeline.
            CSIM_ASSERT(t.dispatch >= t.fetch + depth);
            const Cycle gap = t.dispatch - (t.fetch + depth);
            if (gap > 0)
                attr(gap, CpCategory::Window);

            // Walk the fetch chain.
            std::uint64_t j = i;
            bool depth_pending = true;
            while (true) {
                const std::int64_t b = lastMispred(j);
                const bool redirect = b >= 0 &&
                    static_cast<std::uint64_t>(b) >= begin &&
                    tm(j).fetch ==
                        tm(static_cast<std::uint64_t>(b)).complete + 1;
                if (depth_pending) {
                    attr(depth, redirect ? CpCategory::BrMispredict
                                         : CpCategory::Fetch);
                    depth_pending = false;
                }
                if (redirect) {
                    attr(1, CpCategory::BrMispredict);
                    i = static_cast<std::uint64_t>(b);
                    kind = NodeKind::Execute;
                    break;
                }
                if (j == begin) {
                    attr(tm(j).fetch - floor, CpCategory::Fetch);
                    done = true;
                    break;
                }
                attr(tm(j).fetch - tm(j - 1).fetch, CpCategory::Fetch);
                j -= 1;
            }
            break;
          }
        }
    }

    return res;
}

} // namespace csim
