#include "critpath/consumer_analysis.hh"

#include <unordered_map>

#include "critpath/attribution.hh"
#include "trace/trace_soa.hh"

namespace csim {

ConsumerAnalysis
analyzeConsumers(const Trace &trace, const SimResult &result,
                 const MachineConfig &config)
{
    ConsumerAnalysis out;
    const std::uint64_t n = trace.size();
    if (n == 0)
        return out;
    const TraceSoA view = trace.soa();
    const std::span<const Addr> pc = view.pc();

    // Ground-truth criticality and per-PC criticality frequency (the
    // "true LoC" of each static instruction).
    std::vector<bool> critical =
        criticalityGroundTruth(trace, result, config);
    std::unordered_map<Addr, std::pair<std::uint64_t, std::uint64_t>>
        pc_crit;  // pc -> (critical count, total count)
    for (std::uint64_t i = 0; i < n; ++i) {
        auto &e = pc_crit[pc[i]];
        ++e.second;
        if (critical[i])
            ++e.first;
    }
    auto loc_truth = [&](Addr pc) {
        const auto &e = pc_crit[pc];
        return e.second ? static_cast<double>(e.first) /
            static_cast<double>(e.second) : 0.0;
    };

    // Register consumers of each dynamic value.
    std::vector<std::vector<InstId>> consumers(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        for (int slot = srcSlot1; slot <= srcSlot2; ++slot) {
            const InstId p = view.prod(slot)[i];
            if (p != invalidInstId)
                consumers[p].push_back(i);
        }
    }

    // For every dynamic value: the most critical consumer (by
    // ground-truth LoC, ties to the earlier consumer).
    // Per static producer: votes per most-critical-consumer PC.
    std::unordered_map<Addr, std::unordered_map<Addr, std::uint64_t>>
        votes;
    // Per static consumer: (times was most critical, times seen).
    std::unordered_map<Addr, std::pair<std::uint64_t, std::uint64_t>>
        consumer_tendency;

    std::uint64_t crit_multi = 0;
    std::uint64_t crit_multi_not_first = 0;

    for (std::uint64_t p = 0; p < n; ++p) {
        const auto &cons = consumers[p];
        if (cons.empty())
            continue;
        ++out.valuesAnalyzed;
        if (cons.size() >= 2)
            ++out.multiConsumerValues;

        InstId best = cons.front();
        double best_loc = loc_truth(pc[best]);
        for (std::size_t k = 1; k < cons.size(); ++k) {
            const double l = loc_truth(pc[cons[k]]);
            if (l > best_loc) {
                best_loc = l;
                best = cons[k];
            }
        }

        votes[pc[p]][pc[best]] += 1;
        for (InstId c : cons) {
            auto &e = consumer_tendency[pc[c]];
            ++e.second;
            if (c == best)
                ++e.first;
        }

        if (critical[p] && cons.size() >= 2) {
            ++crit_multi;
            if (best != cons.front())
                ++crit_multi_not_first;
        }
    }

    // Statically-unique most-critical consumer: fraction of dynamic
    // values whose most critical consumer is the modal one for their
    // producer PC.
    std::uint64_t modal_hits = 0;
    std::uint64_t total_values = 0;
    for (const auto &[ppc, per_consumer] : votes) {
        std::uint64_t max_votes = 0;
        std::uint64_t sum = 0;
        for (const auto &[cpc, v] : per_consumer) {
            sum += v;
            max_votes = std::max(max_votes, v);
        }
        modal_hits += max_votes;
        total_values += sum;
    }
    out.staticallyUniqueFraction = total_values ?
        static_cast<double>(modal_hits) /
        static_cast<double>(total_values) : 0.0;

    for (const auto &[cpc, e] : consumer_tendency) {
        (void)cpc;
        if (e.second > 0) {
            out.tendency.add(static_cast<double>(e.first) /
                             static_cast<double>(e.second));
        }
    }

    out.mostCriticalNotFirstFraction = crit_multi ?
        static_cast<double>(crit_multi_not_first) /
        static_cast<double>(crit_multi) : 0.0;

    return out;
}

} // namespace csim
