#include "critpath/slack.hh"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.hh"
#include "trace/trace_soa.hh"

namespace csim {

SlackAnalysis
analyzeSlack(const Trace &trace, const SimResult &result,
             const MachineConfig &config, Cycle cap)
{
    SlackAnalysis out;
    const std::uint64_t n = trace.size();
    CSIM_ASSERT(result.timing.size() == n);
    out.localSlack.assign(n, cap);
    const TraceSoA view = trace.soa();

    // Pass 1: first-use time of each value — min over consumers of
    // (consumer.issue - arrival).
    std::vector<bool> has_consumer(n, false);
    for (std::uint64_t i = 0; i < n; ++i) {
        const InstTiming &t = result.timing[i];
        for (int slot = 0; slot < numSrcSlots; ++slot) {
            const InstId p = view.prod(slot)[i];
            if (p == invalidInstId)
                continue;
            const InstTiming &pt = result.timing[p];
            Cycle arrival = pt.complete;
            if (slot != srcSlotMem && pt.cluster != t.cluster)
                arrival += config.fwdLatency;
            const Cycle gap =
                t.issue >= arrival ? t.issue - arrival : 0;
            out.localSlack[p] = std::min(out.localSlack[p], gap);
            has_consumer[p] = true;
        }
    }

    // Pass 2: instructions whose timing is not consumer-driven.
    for (std::uint64_t i = 0; i < n; ++i) {
        const InstTiming &t = result.timing[i];
        if (view.isCondBranch(i) && view.mispredicted(i)) {
            // A mispredicted branch gates the fetch redirect.
            out.localSlack[i] = 0;
        } else if (!has_consumer[i]) {
            const Cycle own =
                t.commit > t.complete ? t.commit - t.complete : 0;
            out.localSlack[i] = std::min(own, cap);
        }
    }

    // Aggregate per static instruction.
    struct Acc
    {
        std::uint64_t count = 0;
        double sum = 0.0;
        double sumsq = 0.0;
        double mn = 1e18;
        double mx = 0.0;
    };
    std::unordered_map<Addr, Acc> acc;
    for (std::uint64_t i = 0; i < n; ++i) {
        Acc &a = acc[view.pc()[i]];
        const double s = static_cast<double>(out.localSlack[i]);
        ++a.count;
        a.sum += s;
        a.sumsq += s * s;
        a.mn = std::min(a.mn, s);
        a.mx = std::max(a.mx, s);
    }

    std::uint64_t high_var_weight = 0;
    for (const auto &[pc, a] : acc) {
        StaticSlack s;
        s.pc = pc;
        s.instances = a.count;
        s.meanSlack = a.sum / static_cast<double>(a.count);
        s.minSlack = a.mn;
        s.maxSlack = a.mx;
        const double var = std::max(
            0.0, a.sumsq / static_cast<double>(a.count) -
                s.meanSlack * s.meanSlack);
        s.stddev = std::sqrt(var);
        if (s.stddev > 0.5 * std::max(1.0, s.meanSlack))
            high_var_weight += a.count;
        out.perStatic.push_back(s);
    }
    std::sort(out.perStatic.begin(), out.perStatic.end(),
              [](const StaticSlack &a, const StaticSlack &b) {
                  return a.instances > b.instances;
              });
    out.highVarianceFraction = n ?
        static_cast<double>(high_var_weight) /
        static_cast<double>(n) : 0.0;
    return out;
}

} // namespace csim
