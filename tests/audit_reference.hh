/**
 * @file
 * Test-only reference for auditTiming(): the original map-keyed event
 * walk, kept verbatim as a differential oracle. It tallies ports,
 * dispatch/commit widths and the window/ROB occupancy walks in ordered
 * std::maps keyed by cycle, and builds every message eagerly.
 * auditTiming() must return an identical VerifyReport (per-class
 * counts, first detail, checked instructions) for every input, valid
 * or corrupted.
 */

#ifndef CSIM_TESTS_AUDIT_REFERENCE_HH
#define CSIM_TESTS_AUDIT_REFERENCE_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/machine_config.hh"
#include "core/timing.hh"
#include "isa/opcode.hh"
#include "trace/trace.hh"
#include "verify/pipeline_checker.hh"

namespace csim {

inline std::string
refCyc(Cycle c)
{
    return c == invalidCycle ? std::string("<unset>")
                             : std::to_string(c);
}

inline std::string
refInstPrefix(InstId id)
{
    return "inst " + std::to_string(id) + ": ";
}

inline VerifyReport
referenceAuditTiming(const Trace &trace,
                     const std::vector<InstTiming> &timing,
                     const MachineConfig &config)
{
    VerifyReport report;
    const std::size_t n = trace.size();
    if (timing.size() != n) {
        report.record(Invariant::Order,
                      "timing has " + std::to_string(timing.size()) +
                      " records for a trace of " + std::to_string(n));
        return report;
    }

    struct PortUse
    {
        unsigned total = 0;
        unsigned intU = 0;
        unsigned fpU = 0;
        unsigned memU = 0;
    };
    std::map<std::pair<ClusterId, Cycle>, PortUse> ports;
    std::map<Cycle, unsigned> commits_per, dispatches_per;
    /** cycle -> (window enters, window exits) per cluster. */
    std::vector<std::map<Cycle, std::pair<std::uint64_t,
                                          std::uint64_t>>>
        win_events(config.numClusters);
    /** cycle -> (dispatches, commits) for the ROB walk. */
    std::map<Cycle, std::pair<std::uint64_t, std::uint64_t>>
        rob_events;

    Cycle prev_dispatch = 0;
    Cycle prev_commit = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord &rec = trace[i];
        const InstTiming &t = timing[i];
        const std::string at = refInstPrefix(i);

        if (t.fetch == invalidCycle || t.dispatch == invalidCycle ||
            t.ready == invalidCycle || t.issue == invalidCycle ||
            t.complete == invalidCycle || t.commit == invalidCycle) {
            report.record(Invariant::Monotone,
                          at + "unset stage timestamp (fetch " +
                          refCyc(t.fetch) + ", dispatch " +
                          refCyc(t.dispatch) + ", ready " + refCyc(t.ready) +
                          ", issue " + refCyc(t.issue) + ", complete " +
                          refCyc(t.complete) + ", commit " +
                          refCyc(t.commit) + ")");
            continue;
        }
        if (t.cluster >= config.numClusters) {
            report.record(Invariant::Occupancy,
                          at + "cluster " + std::to_string(t.cluster) +
                          " out of range");
            continue;
        }

        if (t.dispatch < t.fetch + config.frontendDepth)
            report.record(Invariant::Monotone,
                          at + "dispatch " + refCyc(t.dispatch) +
                          " precedes fetch " + refCyc(t.fetch) +
                          " + frontend depth " +
                          std::to_string(config.frontendDepth));
        if (t.ready < t.dispatch + 1)
            report.record(Invariant::Monotone,
                          at + "ready " + refCyc(t.ready) +
                          " precedes dispatch " + refCyc(t.dispatch) +
                          " + 1");
        if (t.issue < t.ready)
            report.record(Invariant::Monotone,
                          at + "issue " + refCyc(t.issue) +
                          " precedes ready " + refCyc(t.ready));
        if (t.complete != t.issue + rec.execLat)
            report.record(Invariant::Monotone,
                          at + "complete " + refCyc(t.complete) +
                          " != issue " + refCyc(t.issue) + " + latency " +
                          std::to_string(rec.execLat));
        if (t.commit <= t.complete)
            report.record(Invariant::Monotone,
                          at + "commit " + refCyc(t.commit) +
                          " does not follow complete " +
                          refCyc(t.complete));

        if (t.dispatch < prev_dispatch)
            report.record(Invariant::Order,
                          at + "dispatch " + refCyc(t.dispatch) +
                          " earlier than an older instruction's (" +
                          std::to_string(prev_dispatch) + ")");
        prev_dispatch = t.dispatch;
        if (t.commit < prev_commit)
            report.record(Invariant::Order,
                          at + "commit " + refCyc(t.commit) +
                          " earlier than an older instruction's (" +
                          std::to_string(prev_commit) + ")");
        prev_commit = t.commit;

        ++dispatches_per[t.dispatch];
        ++commits_per[t.commit];

        PortUse &u = ports[{t.cluster, t.issue}];
        ++u.total;
        if (isIntClass(rec.cls))
            ++u.intU;
        else if (isFpClass(rec.cls))
            ++u.fpU;
        else
            ++u.memU;

        auto &we = win_events[t.cluster];
        ++we[t.dispatch].first;
        ++we[t.issue].second;
        ++rob_events[t.dispatch].first;
        ++rob_events[t.commit].second;

        for (int slot = 0; slot < numSrcSlots; ++slot) {
            const InstId p = rec.prod[slot];
            if (p == invalidInstId)
                continue;
            const InstTiming &pt = timing[p];
            if (pt.complete == invalidCycle)
                continue; // producer already flagged
            const bool cross =
                slot != srcSlotMem && pt.cluster != t.cluster;
            const Cycle avail =
                pt.complete + (cross ? config.fwdLatency : 0);
            if (t.ready < avail || t.issue < avail)
                report.record(Invariant::Bypass,
                              at + "ready " + refCyc(t.ready) +
                              "/issue " + refCyc(t.issue) +
                              " precede operand " +
                              std::to_string(slot) +
                              " availability " + std::to_string(avail) +
                              " (producer " + std::to_string(p) +
                              " completes " + refCyc(pt.complete) +
                              (cross ? ", + cross-cluster forwarding)"
                                     : ")"));
        }
        ++report.checkedInstructions;
    }

    for (const auto &[key, u] : ports) {
        const std::string at = "cluster " +
            std::to_string(key.first) + " cycle " +
            std::to_string(key.second) + ": ";
        if (u.total > config.cluster.issueWidth)
            report.record(Invariant::Width,
                          at + std::to_string(u.total) +
                          " issues exceed width " +
                          std::to_string(config.cluster.issueWidth));
        if (u.intU > config.cluster.intPorts ||
            u.fpU > config.cluster.fpPorts ||
            u.memU > config.cluster.memPorts)
            report.record(Invariant::Width,
                          at + "port-class bound exceeded (int " +
                          std::to_string(u.intU) + "/" +
                          std::to_string(config.cluster.intPorts) +
                          ", fp " + std::to_string(u.fpU) + "/" +
                          std::to_string(config.cluster.fpPorts) +
                          ", mem " + std::to_string(u.memU) + "/" +
                          std::to_string(config.cluster.memPorts) +
                          ")");
    }
    for (const auto &[cycle, cnt] : commits_per)
        if (cnt > config.commitWidth)
            report.record(Invariant::Width,
                          "cycle " + std::to_string(cycle) + ": " +
                          std::to_string(cnt) +
                          " commits exceed commit width " +
                          std::to_string(config.commitWidth));
    for (const auto &[cycle, cnt] : dispatches_per)
        if (cnt > config.dispatchWidth)
            report.record(Invariant::Width,
                          "cycle " + std::to_string(cycle) + ": " +
                          std::to_string(cnt) +
                          " dispatches exceed dispatch width " +
                          std::to_string(config.dispatchWidth));

    // Window occupancy walk. Within a cycle the machine issues
    // (window exits) before it steers (window enters), so exits apply
    // first at equal cycles.
    for (ClusterId c = 0; c < config.numClusters; ++c) {
        std::int64_t occ = 0;
        for (const auto &[cycle, ev] : win_events[c]) {
            occ -= static_cast<std::int64_t>(ev.second);
            if (occ < 0) {
                report.record(Invariant::Occupancy,
                              "cluster " + std::to_string(c) +
                              " cycle " + std::to_string(cycle) +
                              ": more window exits than entries");
                occ = 0;
            }
            occ += static_cast<std::int64_t>(ev.first);
            if (occ > static_cast<std::int64_t>(
                          config.windowPerCluster))
                report.record(Invariant::Occupancy,
                              "cluster " + std::to_string(c) +
                              " cycle " + std::to_string(cycle) +
                              ": window holds " + std::to_string(occ) +
                              " instructions, capacity " +
                              std::to_string(config.windowPerCluster));
        }
    }

    // ROB walk. Commit frees its entry before the same cycle's steer
    // stage runs, so commits apply first at equal cycles.
    std::int64_t in_flight = 0;
    for (const auto &[cycle, ev] : rob_events) {
        in_flight -= static_cast<std::int64_t>(ev.second);
        if (in_flight < 0) {
            report.record(Invariant::Rob,
                          "cycle " + std::to_string(cycle) +
                          ": more commits than dispatches");
            in_flight = 0;
        }
        in_flight += static_cast<std::int64_t>(ev.first);
        if (in_flight > static_cast<std::int64_t>(config.robEntries))
            report.record(Invariant::Rob,
                          "cycle " + std::to_string(cycle) + ": " +
                          std::to_string(in_flight) +
                          " in-flight instructions exceed ROB "
                          "capacity " +
                          std::to_string(config.robEntries));
    }

    return report;
}

} // namespace csim

#endif // CSIM_TESTS_AUDIT_REFERENCE_HH
