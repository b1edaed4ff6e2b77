#include "verify/pipeline_checker.hh"

#include <algorithm>
#include <array>
#include <utility>

#include "common/logging.hh"

namespace csim {

const char *
invariantName(Invariant inv)
{
    switch (inv) {
      case Invariant::Monotone: return "monotone";
      case Invariant::Order: return "order";
      case Invariant::Occupancy: return "occupancy";
      case Invariant::Width: return "width";
      case Invariant::Rob: return "rob";
      case Invariant::Bypass: return "bypass";
      default:
        CSIM_PANIC("invariantName: bad invariant");
    }
}

void
VerifyReport::record(Invariant inv, std::string detail)
{
    ++byClass[static_cast<std::size_t>(inv)];
    if (firstDetail.empty())
        firstDetail = std::move(detail);
}

namespace {

std::string
cyc(Cycle c)
{
    return c == invalidCycle ? std::string("<unset>")
                             : std::to_string(c);
}

/** "inst 42: " prefix every violation message starts with. */
std::string
instPrefix(InstId id)
{
    return "inst " + std::to_string(id) + ": ";
}

/** "cluster 2 cycle 917: " prefix of the audit's per-cluster walks. */
std::string
clusterCycle(ClusterId c, Cycle cycle)
{
    return "cluster " + std::to_string(c) + " cycle " +
        std::to_string(cycle) + ": ";
}

/** The port class an op issues through. */
enum PortKind : std::uint8_t
{
    IntPort,
    FpPort,
    MemPort,
    numPortKinds
};

PortKind
portOf(OpClass cls)
{
    if (isIntClass(cls))
        return IntPort;
    return isFpClass(cls) ? FpPort : MemPort;
}

/** One audited instruction's issue in its cluster. */
struct IssueSlot
{
    Cycle cycle;
    PortKind port;
};

Cycle cycleOf(Cycle c) { return c; }
Cycle cycleOf(const IssueSlot &s) { return s.cycle; }

/** Sort an event stream by cycle, unless it already is (the dispatch
 *  and commit streams of a valid run are). */
template <typename Event>
void
sortByCycle(std::vector<Event> &events)
{
    const auto earlier = [](const Event &a, const Event &b) {
        return cycleOf(a) < cycleOf(b);
    };
    if (!std::is_sorted(events.begin(), events.end(), earlier))
        std::sort(events.begin(), events.end(), earlier);
}

/**
 * Run-length scan of a cycle-sorted stream: visit(cycle, first, last)
 * once per distinct cycle in ascending order, [first, last) being the
 * indices of that cycle's events.
 */
template <typename Event, typename Visit>
void
forEachCycle(const std::vector<Event> &sorted, Visit &&visit)
{
    for (std::size_t first = 0; first < sorted.size();) {
        const Cycle cycle = cycleOf(sorted[first]);
        std::size_t last = first + 1;
        while (last < sorted.size() && cycleOf(sorted[last]) == cycle)
            ++last;
        visit(cycle, first, last);
        first = last;
    }
}

/**
 * Two-pointer merge of two cycle-sorted streams: visit(cycle, enters,
 * exits) once per distinct cycle either stream holds, ascending, with
 * each stream's event count at that cycle. Audited stamps are never
 * invalidCycle, so it doubles as the "stream exhausted" sentinel.
 */
template <typename Enter, typename Exit, typename Visit>
void
mergeByCycle(const std::vector<Enter> &enters,
             const std::vector<Exit> &exits, Visit &&visit)
{
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < enters.size() || b < exits.size()) {
        const Cycle cycle =
            std::min(a < enters.size() ? cycleOf(enters[a]) : invalidCycle,
                     b < exits.size() ? cycleOf(exits[b]) : invalidCycle);
        std::size_t in = 0;
        std::size_t out = 0;
        for (; a < enters.size() && cycleOf(enters[a]) == cycle; ++a)
            ++in;
        for (; b < exits.size() && cycleOf(exits[b]) == cycle; ++b)
            ++out;
        visit(cycle, in, out);
    }
}

} // anonymous namespace

PipelineChecker::PipelineChecker(const MachineConfig &config,
                                 const Trace &trace,
                                 PipelineCheckerOptions options)
    : config_(config), trace_(trace), options_(options)
{
    clusters_.resize(config_.numClusters);
}

void
PipelineChecker::violation(Invariant inv, std::string detail)
{
    detail = std::string("pipeline invariant [") + invariantName(inv) +
        "] violated: " + detail;
    if (statViolations_) {
        ++*statViolations_;
        ++*statByClass_[static_cast<std::size_t>(inv)];
    }
    if (options_.panicOnViolation)
        CSIM_PANIC_F("%s", detail.c_str());
    report_.record(inv, std::move(detail));
}

void
PipelineChecker::registerStats(StatsRegistry &registry)
{
    statCheckedInsts_ = &registry.addCounter(
        "verify.checkedInstructions",
        "instructions validated by the pipeline checker");
    statCheckedCycles_ = &registry.addCounter(
        "verify.checkedCycles",
        "cycles validated by the pipeline checker");
    statViolations_ = &registry.addCounter(
        "verify.violations", "total pipeline invariant violations");
    for (std::size_t i = 0; i < numInvariants; ++i)
        statByClass_[i] = &registry.addCounter(
            std::string("verify.violation.") +
                invariantName(static_cast<Invariant>(i)),
            std::string("violations of the ") +
                invariantName(static_cast<Invariant>(i)) +
                " invariant family");
}

void
PipelineChecker::onRunStart(const CoreView &view)
{
    (void)view;
    nextSteer_ = 0;
    nextCommit_ = 0;
    lastDispatch_ = 0;
    lastCommit_ = 0;
    inFlight_ = 0;
    steersThisCycle_ = 0;
    commitsThisCycle_ = 0;
    clusters_.assign(config_.numClusters, ClusterState{});
}

void
PipelineChecker::onSteer(const CoreView &view, InstId id)
{
    const InstTiming &t = view.timingOf(id);

    if (id != nextSteer_)
        violation(Invariant::Order,
                  instPrefix(id) + "steered out of program order "
                  "(expected inst " + std::to_string(nextSteer_) + ")");
    nextSteer_ = id + 1;

    if (t.dispatch != view.now())
        violation(Invariant::Monotone,
                  instPrefix(id) + "dispatch stamp " + cyc(t.dispatch) +
                  " != steer cycle " + std::to_string(view.now()));
    if (t.fetch == invalidCycle ||
        t.dispatch == invalidCycle ||
        t.dispatch < t.fetch + config_.frontendDepth)
        violation(Invariant::Monotone,
                  instPrefix(id) + "dispatch " + cyc(t.dispatch) +
                  " precedes fetch " + cyc(t.fetch) + " + frontend depth " +
                  std::to_string(config_.frontendDepth));
    if (t.dispatch != invalidCycle && t.dispatch < lastDispatch_)
        violation(Invariant::Order,
                  instPrefix(id) + "dispatch " + cyc(t.dispatch) +
                  " earlier than an older instruction's (" +
                  std::to_string(lastDispatch_) + ")");
    if (t.dispatch != invalidCycle)
        lastDispatch_ = t.dispatch;

    if (++steersThisCycle_ > config_.dispatchWidth)
        violation(Invariant::Width,
                  instPrefix(id) + std::to_string(steersThisCycle_) +
                  " steers in one cycle exceed dispatch width " +
                  std::to_string(config_.dispatchWidth));

    if (t.cluster >= config_.numClusters) {
        violation(Invariant::Occupancy,
                  instPrefix(id) + "cluster " +
                  std::to_string(t.cluster) + " out of range");
        return;
    }
    ClusterState &cs = clusters_[t.cluster];
    ++cs.entered;
    if (cs.entered - cs.exited > config_.windowPerCluster)
        violation(Invariant::Occupancy,
                  instPrefix(id) + "cluster " +
                  std::to_string(t.cluster) + " window holds " +
                  std::to_string(cs.entered - cs.exited) +
                  " instructions, capacity " +
                  std::to_string(config_.windowPerCluster));

    if (++inFlight_ > config_.robEntries)
        violation(Invariant::Rob,
                  instPrefix(id) + std::to_string(inFlight_) +
                  " in-flight instructions exceed ROB capacity " +
                  std::to_string(config_.robEntries));
}

void
PipelineChecker::checkOperands(const CoreView &view, InstId id)
{
    const TraceRecord &rec = trace_[id];
    const InstTiming &t = view.timingOf(id);
    for (int slot = 0; slot < numSrcSlots; ++slot) {
        const InstId p = rec.prod[slot];
        if (p == invalidInstId)
            continue;
        const InstTiming &pt = view.timingOf(p);
        if (pt.complete == invalidCycle) {
            violation(Invariant::Bypass,
                      instPrefix(id) + "issued before producer " +
                      std::to_string(p) + " (operand " +
                      std::to_string(slot) + ") was scheduled");
            continue;
        }
        const bool cross =
            slot != srcSlotMem && pt.cluster != t.cluster;
        const Cycle avail =
            pt.complete + (cross ? config_.fwdLatency : 0);
        if (t.ready == invalidCycle || t.ready < avail ||
            t.issue < avail)
            violation(Invariant::Bypass,
                      instPrefix(id) + "ready " + cyc(t.ready) +
                      "/issue " + cyc(t.issue) +
                      " precede operand " + std::to_string(slot) +
                      " availability " + std::to_string(avail) +
                      " (producer " + std::to_string(p) +
                      " completes " + cyc(pt.complete) +
                      (cross ? ", + cross-cluster forwarding)" : ")"));
    }
}

void
PipelineChecker::onIssue(const CoreView &view, InstId id)
{
    const TraceRecord &rec = trace_[id];
    const InstTiming &t = view.timingOf(id);

    if (t.issue != view.now())
        violation(Invariant::Monotone,
                  instPrefix(id) + "issue stamp " + cyc(t.issue) +
                  " != issue cycle " + std::to_string(view.now()));
    if (t.ready == invalidCycle || t.issue < t.ready)
        violation(Invariant::Monotone,
                  instPrefix(id) + "issue " + cyc(t.issue) +
                  " precedes ready " + cyc(t.ready));
    if (t.ready != invalidCycle && t.dispatch != invalidCycle &&
        t.ready < t.dispatch + 1)
        violation(Invariant::Monotone,
                  instPrefix(id) + "ready " + cyc(t.ready) +
                  " precedes dispatch " + cyc(t.dispatch) + " + 1");
    if (t.complete != t.issue + rec.execLat)
        violation(Invariant::Monotone,
                  instPrefix(id) + "complete " + cyc(t.complete) +
                  " != issue " + cyc(t.issue) + " + latency " +
                  std::to_string(rec.execLat));

    checkOperands(view, id);

    if (t.cluster >= config_.numClusters)
        return; // already flagged at steer
    ClusterState &cs = clusters_[t.cluster];
    ++cs.exited;
    if (cs.exited > cs.entered)
        violation(Invariant::Occupancy,
                  instPrefix(id) + "cluster " +
                  std::to_string(t.cluster) +
                  " issued more instructions than were steered in");

    ++cs.total;
    if (isIntClass(rec.cls))
        ++cs.intU;
    else if (isFpClass(rec.cls))
        ++cs.fpU;
    else
        ++cs.memU;
    if (cs.total > config_.cluster.issueWidth)
        violation(Invariant::Width,
                  instPrefix(id) + "cluster " +
                  std::to_string(t.cluster) + " issued " +
                  std::to_string(cs.total) +
                  " instructions in one cycle, width " +
                  std::to_string(config_.cluster.issueWidth));
    if (cs.intU > config_.cluster.intPorts ||
        cs.fpU > config_.cluster.fpPorts ||
        cs.memU > config_.cluster.memPorts)
        violation(Invariant::Width,
                  instPrefix(id) + "cluster " +
                  std::to_string(t.cluster) +
                  " exceeded a port-class bound (int " +
                  std::to_string(cs.intU) + "/" +
                  std::to_string(config_.cluster.intPorts) + ", fp " +
                  std::to_string(cs.fpU) + "/" +
                  std::to_string(config_.cluster.fpPorts) + ", mem " +
                  std::to_string(cs.memU) + "/" +
                  std::to_string(config_.cluster.memPorts) + ")");
}

void
PipelineChecker::onCommit(const CoreView &view, InstId id)
{
    const InstTiming &t = view.timingOf(id);

    if (id != nextCommit_)
        violation(Invariant::Order,
                  instPrefix(id) + "committed out of program order "
                  "(expected inst " + std::to_string(nextCommit_) +
                  ")");
    nextCommit_ = id + 1;

    if (t.commit != view.now())
        violation(Invariant::Monotone,
                  instPrefix(id) + "commit stamp " + cyc(t.commit) +
                  " != commit cycle " + std::to_string(view.now()));
    if (t.commit != invalidCycle && t.commit < lastCommit_)
        violation(Invariant::Order,
                  instPrefix(id) + "commit " + cyc(t.commit) +
                  " earlier than an older instruction's (" +
                  std::to_string(lastCommit_) + ")");
    if (t.commit != invalidCycle)
        lastCommit_ = t.commit;

    // Full monotone chain, every stamp final.
    if (t.fetch == invalidCycle || t.dispatch == invalidCycle ||
        t.ready == invalidCycle || t.issue == invalidCycle ||
        t.complete == invalidCycle || t.commit == invalidCycle)
        violation(Invariant::Monotone,
                  instPrefix(id) + "committed with an unset stage "
                  "timestamp (fetch " + cyc(t.fetch) + ", dispatch " +
                  cyc(t.dispatch) + ", ready " + cyc(t.ready) +
                  ", issue " + cyc(t.issue) + ", complete " +
                  cyc(t.complete) + ", commit " + cyc(t.commit) + ")");
    else if (!(t.fetch <= t.dispatch && t.dispatch < t.ready &&
               t.ready <= t.issue && t.issue < t.complete &&
               t.complete < t.commit))
        violation(Invariant::Monotone,
                  instPrefix(id) + "stage timestamps not monotone "
                  "(fetch " + cyc(t.fetch) + " <= dispatch " +
                  cyc(t.dispatch) + " < ready " + cyc(t.ready) +
                  " <= issue " + cyc(t.issue) + " < complete " +
                  cyc(t.complete) + " < commit " + cyc(t.commit) +
                  ")");

    if (++commitsThisCycle_ > config_.commitWidth)
        violation(Invariant::Width,
                  instPrefix(id) + std::to_string(commitsThisCycle_) +
                  " commits in one cycle exceed commit width " +
                  std::to_string(config_.commitWidth));

    if (inFlight_ == 0)
        violation(Invariant::Rob,
                  instPrefix(id) + "committed with an empty ROB");
    else
        --inFlight_;

    ++report_.checkedInstructions;
    if (statCheckedInsts_)
        ++*statCheckedInsts_;
}

void
PipelineChecker::onCycleEnd(const CoreView &view)
{
    for (ClusterId c = 0; c < config_.numClusters; ++c) {
        ClusterState &cs = clusters_[c];
        const std::uint64_t balance = cs.entered - cs.exited;
        if (balance != view.windowOccupancy(c))
            violation(Invariant::Occupancy,
                      "cycle " + std::to_string(view.now()) +
                      ": cluster " + std::to_string(c) +
                      " occupancy " +
                      std::to_string(view.windowOccupancy(c)) +
                      " disagrees with enter/exit balance " +
                      std::to_string(balance));
        cs.total = cs.intU = cs.fpU = cs.memU = 0;
    }
    steersThisCycle_ = 0;
    commitsThisCycle_ = 0;
    ++report_.checkedCycles;
    if (statCheckedCycles_)
        ++*statCheckedCycles_;
}

VerifyReport
auditTiming(const Trace &trace, const std::vector<InstTiming> &timing,
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

    // Event streams of the instructions that pass the per-instruction
    // gate (every stamp set, cluster in range): machine-wide dispatch
    // and commit cycles, and per cluster its window enters (dispatch
    // cycles) and issue slots.
    std::vector<Cycle> dispatches;
    std::vector<Cycle> commits;
    dispatches.reserve(n);
    commits.reserve(n);
    std::vector<std::vector<Cycle>> enters(config.numClusters);
    std::vector<std::vector<IssueSlot>> issues(config.numClusters);

    Cycle prev_dispatch = 0;
    Cycle prev_commit = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord &rec = trace[i];
        const InstTiming &t = timing[i];

        if (t.fetch == invalidCycle || t.dispatch == invalidCycle ||
            t.ready == invalidCycle || t.issue == invalidCycle ||
            t.complete == invalidCycle || t.commit == invalidCycle) {
            report.record(Invariant::Monotone,
                          instPrefix(i) + "unset stage timestamp (fetch " +
                          cyc(t.fetch) + ", dispatch " +
                          cyc(t.dispatch) + ", ready " + cyc(t.ready) +
                          ", issue " + cyc(t.issue) + ", complete " +
                          cyc(t.complete) + ", commit " +
                          cyc(t.commit) + ")");
            continue;
        }
        if (t.cluster >= config.numClusters) {
            report.record(Invariant::Occupancy,
                          instPrefix(i) + "cluster " +
                          std::to_string(t.cluster) + " out of range");
            continue;
        }

        if (t.dispatch < t.fetch + config.frontendDepth)
            report.record(Invariant::Monotone,
                          instPrefix(i) + "dispatch " + cyc(t.dispatch) +
                          " precedes fetch " + cyc(t.fetch) +
                          " + frontend depth " +
                          std::to_string(config.frontendDepth));
        if (t.ready < t.dispatch + 1)
            report.record(Invariant::Monotone,
                          instPrefix(i) + "ready " + cyc(t.ready) +
                          " precedes dispatch " + cyc(t.dispatch) +
                          " + 1");
        if (t.issue < t.ready)
            report.record(Invariant::Monotone,
                          instPrefix(i) + "issue " + cyc(t.issue) +
                          " precedes ready " + cyc(t.ready));
        if (t.complete != t.issue + rec.execLat)
            report.record(Invariant::Monotone,
                          instPrefix(i) + "complete " + cyc(t.complete) +
                          " != issue " + cyc(t.issue) + " + latency " +
                          std::to_string(rec.execLat));
        if (t.commit <= t.complete)
            report.record(Invariant::Monotone,
                          instPrefix(i) + "commit " + cyc(t.commit) +
                          " does not follow complete " +
                          cyc(t.complete));

        if (t.dispatch < prev_dispatch)
            report.record(Invariant::Order,
                          instPrefix(i) + "dispatch " + cyc(t.dispatch) +
                          " earlier than an older instruction's (" +
                          std::to_string(prev_dispatch) + ")");
        prev_dispatch = t.dispatch;
        if (t.commit < prev_commit)
            report.record(Invariant::Order,
                          instPrefix(i) + "commit " + cyc(t.commit) +
                          " earlier than an older instruction's (" +
                          std::to_string(prev_commit) + ")");
        prev_commit = t.commit;

        dispatches.push_back(t.dispatch);
        commits.push_back(t.commit);
        enters[t.cluster].push_back(t.dispatch);
        issues[t.cluster].push_back({t.issue, portOf(rec.cls)});

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
                              instPrefix(i) + "ready " + cyc(t.ready) +
                              "/issue " + cyc(t.issue) +
                              " precede operand " +
                              std::to_string(slot) +
                              " availability " + std::to_string(avail) +
                              " (producer " + std::to_string(p) +
                              " completes " + cyc(pt.complete) +
                              (cross ? ", + cross-cluster forwarding)"
                                     : ")"));
        }
        ++report.checkedInstructions;
    }

    // Issue-width and port-class bounds per (cluster, cycle) group.
    const ClusterPorts &ports = config.cluster;
    for (ClusterId c = 0; c < config.numClusters; ++c) {
        std::vector<IssueSlot> &slots = issues[c];
        sortByCycle(slots);
        forEachCycle(slots, [&](Cycle cycle, std::size_t first,
                                std::size_t last) {
            std::array<std::size_t, numPortKinds> use = {};
            for (std::size_t k = first; k < last; ++k)
                ++use[slots[k].port];
            const std::size_t total = last - first;
            if (total > ports.issueWidth)
                report.record(Invariant::Width,
                              clusterCycle(c, cycle) +
                              std::to_string(total) +
                              " issues exceed width " +
                              std::to_string(ports.issueWidth));
            if (use[IntPort] > ports.intPorts ||
                use[FpPort] > ports.fpPorts ||
                use[MemPort] > ports.memPorts)
                report.record(Invariant::Width,
                              clusterCycle(c, cycle) +
                              "port-class bound exceeded (int " +
                              std::to_string(use[IntPort]) + "/" +
                              std::to_string(ports.intPorts) +
                              ", fp " + std::to_string(use[FpPort]) +
                              "/" + std::to_string(ports.fpPorts) +
                              ", mem " + std::to_string(use[MemPort]) +
                              "/" + std::to_string(ports.memPorts) +
                              ")");
        });
    }

    sortByCycle(commits);
    forEachCycle(commits, [&](Cycle cycle, std::size_t first,
                              std::size_t last) {
        if (last - first > config.commitWidth)
            report.record(Invariant::Width,
                          "cycle " + std::to_string(cycle) + ": " +
                          std::to_string(last - first) +
                          " commits exceed commit width " +
                          std::to_string(config.commitWidth));
    });
    sortByCycle(dispatches);
    forEachCycle(dispatches, [&](Cycle cycle, std::size_t first,
                                 std::size_t last) {
        if (last - first > config.dispatchWidth)
            report.record(Invariant::Width,
                          "cycle " + std::to_string(cycle) + ": " +
                          std::to_string(last - first) +
                          " dispatches exceed dispatch width " +
                          std::to_string(config.dispatchWidth));
    });

    // Window occupancy walk. Within a cycle the machine issues
    // (window exits) before it steers (window enters), so exits apply
    // first at equal cycles.
    for (ClusterId c = 0; c < config.numClusters; ++c) {
        sortByCycle(enters[c]);
        std::int64_t occ = 0;
        mergeByCycle(enters[c], issues[c], [&](Cycle cycle,
                                               std::size_t in,
                                               std::size_t out) {
            occ -= static_cast<std::int64_t>(out);
            if (occ < 0) {
                report.record(Invariant::Occupancy,
                              clusterCycle(c, cycle) +
                              "more window exits than entries");
                occ = 0;
            }
            occ += static_cast<std::int64_t>(in);
            if (occ > static_cast<std::int64_t>(config.windowPerCluster))
                report.record(Invariant::Occupancy,
                              clusterCycle(c, cycle) + "window holds " +
                              std::to_string(occ) +
                              " instructions, capacity " +
                              std::to_string(config.windowPerCluster));
        });
    }

    // ROB walk. Commit frees its entry before the same cycle's steer
    // stage runs, so commits apply first at equal cycles.
    std::int64_t in_flight = 0;
    mergeByCycle(dispatches, commits, [&](Cycle cycle, std::size_t in,
                                          std::size_t out) {
        in_flight -= static_cast<std::int64_t>(out);
        if (in_flight < 0) {
            report.record(Invariant::Rob,
                          "cycle " + std::to_string(cycle) +
                          ": more commits than dispatches");
            in_flight = 0;
        }
        in_flight += static_cast<std::int64_t>(in);
        if (in_flight > static_cast<std::int64_t>(config.robEntries))
            report.record(Invariant::Rob,
                          "cycle " + std::to_string(cycle) + ": " +
                          std::to_string(in_flight) +
                          " in-flight instructions exceed ROB "
                          "capacity " +
                          std::to_string(config.robEntries));
    });

    return report;
}

} // namespace csim
