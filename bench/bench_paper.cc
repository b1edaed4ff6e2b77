/**
 * @file
 * Every table and figure of the paper's evaluation, from one sweep
 * (EXPERIMENTS.md sets each beside the paper's numbers).
 *
 * Each section is one experiment: declare() adds its cells to one
 * SweepSpec, print() prints from the outcome. SweepSpec::add keeps an
 * equal cell once, so a cell several figures read (Fig. 4's focused
 * runs are Fig. 14's first bars, Fig. 2 is Sec. 4's oracle row) runs
 * once. A cell index may belong to several sections, so a run hook
 * looks up its own section's cells rather than matching a policy or
 * machine. Table 1 and the micro-kernel examples declare no cells.
 */

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "critpath/consumer_analysis.hh"
#include "critpath/slack.hh"
#include "harness/json_report.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "trace/trace_soa.hh"
#include "workloads/micro.hh"

using namespace csim;

namespace {

/** The paper's AVE: the mean over workloads of cells[w]'s CPI
 *  normalized to bases[w]'s. */
double
meanNormCpi(const SweepOutcome &outcome,
            const std::vector<std::size_t> &cells,
            const std::vector<std::size_t> &bases)
{
    std::vector<double> ratios;
    for (std::size_t w = 0; w < cells.size(); ++w)
        ratios.push_back(outcome.at(cells[w]).cpi() /
                         outcome.at(bases[w]).cpi());
    return mean(ratios);
}

/** Table 1, plus the per-cluster resources of each partitioning
 *  (footnote 1: partial per-cluster ports round up). */
void
printTable1(BenchContext &ctx)
{
    std::printf("=== Table 1: machine parameters ===\n\n");
    const MachineConfig m = MachineConfig::monolithic();
    std::printf("Front-end   %u-wide, %u stages to dispatch, perfect "
                "I-cache,\n            gshare with 16 bits of global "
                "history\n",
                m.fetchWidth, m.frontendDepth);
    std::printf("Issue       %u-entry scheduling window, %u-entry "
                "ROB\n",
                m.windowPerCluster * m.numClusters, m.robEntries);
    std::printf("Execute     up to %u/clock: <=%u int, <=%u fp, <=%u "
                "mem;\n            Alpha 21264 latencies (3-cycle "
                "load-to-use)\n",
                m.cluster.issueWidth, m.cluster.intPorts,
                m.cluster.fpPorts, m.cluster.memPorts);
    std::printf("Memory      32KB 4-way L1, 2-cycle; infinite L2, "
                "20-cycle\n");
    std::printf("Bypass      inter-cluster forwarding latency: %u "
                "cycles\n\n", m.fwdLatency);

    TextTable t({"config", "clusters", "issue/clk", "int", "fp", "mem",
                 "window/cluster"});
    for (unsigned n : {1u, 2u, 4u, 8u}) {
        const MachineConfig c = MachineConfig::clustered(n);
        t.addRow({c.name(), std::to_string(c.numClusters),
                  std::to_string(c.cluster.issueWidth),
                  std::to_string(c.cluster.intPorts),
                  std::to_string(c.cluster.fpPorts),
                  std::to_string(c.cluster.memPorts),
                  std::to_string(c.windowPerCluster)});
        ctx.addScalar(c.name() + ".issueWidth", c.cluster.issueWidth);
        ctx.addScalar(c.name() + ".windowPerCluster",
                      c.windowPerCluster);
    }
    std::printf("%s\n", t.str().c_str());
}

/**
 * Figure 2 and Sec. 4: list-scheduling the 1x8w machine's retired
 * trace onto each clustered machine with a global view, under oracle
 * dataflow-height, LoC and binary-criticality priorities, normalized
 * to the oracle schedule on 1x8w. Fig. 2 is the oracle row, printed
 * per benchmark before the Sec. 4 table of averages.
 */
struct IdealSchedules
{
    std::vector<std::string> workloads = workloadNames();
    /** The oracle 1x8w baseline per workload. */
    std::vector<std::size_t> baseCells;
    /** cellAt[n-index][variant][workload] */
    std::vector<std::vector<std::vector<std::size_t>>> cellAt;

    void declare(SweepSpec &spec);
    void print(const SweepOutcome &outcome, BenchContext &ctx) const;
};

const ListSchedOptions::Priority idealPriorities[] = {
    ListSchedOptions::Priority::DataflowHeight,
    ListSchedOptions::Priority::Loc,
    ListSchedOptions::Priority::BinaryCritical};
const char *const idealNames[] = {"oracle", "LoC", "binary"};

void
IdealSchedules::declare(SweepSpec &spec)
{
    for (const std::string &wl : workloads)
        baseCells.push_back(
            spec.addIdeal(wl, MachineConfig::monolithic(),
                          ListSchedOptions::Priority::DataflowHeight));
    for (unsigned n : {2u, 4u, 8u}) {
        std::vector<std::vector<std::size_t>> per_variant;
        for (ListSchedOptions::Priority prio : idealPriorities) {
            std::vector<std::size_t> per_wl;
            for (const std::string &wl : workloads)
                per_wl.push_back(spec.addIdeal(
                    wl, MachineConfig::clustered(n), prio));
            per_variant.push_back(std::move(per_wl));
        }
        cellAt.push_back(std::move(per_variant));
    }
}

void
IdealSchedules::print(const SweepOutcome &outcome,
                      BenchContext &ctx) const
{
    const unsigned ns[] = {2u, 4u, 8u};

    // ---- Figure 2: the oracle variant, per benchmark ----
    FigureGrid grid("=== Figure 2: idealized list scheduling "
                    "(CPI normalized to 1x8w list schedule) ===",
                    {"2x4w", "4x2w", "8x1w"});
    for (std::size_t w = 0; w < workloads.size(); ++w)
        for (std::size_t ni = 0; ni < 3; ++ni)
            grid.set(workloads[w], MachineConfig::clustered(ns[ni]).name(),
                     outcome.at(cellAt[ni][0][w]).cpi() /
                         outcome.at(baseCells[w]).cpi());
    std::printf("%s\n", grid.str().c_str());
    std::printf("Paper: averages ~1.01/1.01/1.02; worst cases in "
                "bzip2, crafty, vpr (convergent dataflow), 8x1w never "
                "worse than ~4%%.\n");
    ctx.addGrid(grid);

    // ---- Sec. 4: average over benchmarks, per variant ----
    std::printf("=== Sec. 4: idealized list scheduling with degraded "
                "priority knowledge ===\n");
    std::printf("(average CPI normalized to the oracle list schedule "
                "on 1x8w)\n\n");

    std::printf("%8s  %8s  %8s  %8s\n", "config", "oracle", "LoC",
                "binary");
    for (std::size_t ni = 0; ni < 3; ++ni) {
        const unsigned n = ns[ni];
        std::printf("%8s", MachineConfig::clustered(n).name().c_str());
        for (std::size_t vi = 0; vi < 3; ++vi) {
            const double cpi =
                meanNormCpi(outcome, cellAt[ni][vi], baseCells);
            std::printf("  %8.3f", cpi);
            ctx.addScalar("normCpi." +
                              MachineConfig::clustered(n).name() + "." +
                              idealNames[vi],
                          cpi);
        }
        std::printf("\n");
    }

    std::printf("\nPaper: LoC priorities lose only ~0.5-0.7%% vs the "
                "oracle; binary criticality loses 5%% (4x2w) and "
                "9.8%% (8x1w) — the case for a criticality "
                "*spectrum*.\n");
}

/** What the Fig. 4 run hook keeps of one 1x8w (workload, seed) run. */
struct MonoRun
{
    /** Fig. 8: (static LoC, dynamic count) per static instruction. */
    std::vector<std::pair<double, std::uint64_t>> locWeights;
    /** Sec. 6 and the slack table (first seed only). */
    ConsumerAnalysis consumers;
    double highVarianceFraction = 0.0;
    double mispredSlack = 0.0;
    double correctSlack = 0.0;
};

/** Fig. 8's (static LoC, dynamic count) pairs of one run. */
std::vector<std::pair<double, std::uint64_t>>
locWeights(const Trace &trace, const PolicyRun &run,
           const MachineConfig &machine)
{
    const std::vector<bool> crit =
        criticalityGroundTruth(trace, run.sim, machine);
    std::unordered_map<Addr, std::pair<std::uint64_t, std::uint64_t>>
        per_pc;
    const std::span<const Addr> pcs = trace.soa().pc();
    for (std::uint64_t k = 0; k < pcs.size(); ++k) {
        auto &e = per_pc[pcs[k]];
        ++e.second;
        if (crit[k])
            ++e.first;
    }
    std::vector<std::pair<double, std::uint64_t>> out;
    for (const auto &[pc, e] : per_pc) {
        (void)pc;
        out.emplace_back(static_cast<double>(e.first) /
                             static_cast<double>(e.second),
                         e.second);
    }
    return out;
}

/** The slack table's row of one run: the high-variance fraction and
 *  conditional-branch slack split by prediction outcome. */
void
slackRow(const Trace &trace, const PolicyRun &run,
         const MachineConfig &machine, MonoRun &slot)
{
    const SlackAnalysis sa = analyzeSlack(trace, run.sim, machine);
    RunningStat mispred, correct;
    const TraceSoA view = trace.soa();
    for (std::uint64_t k = 0; k < view.size(); ++k) {
        if (!view.isCondBranch(k))
            continue;
        const double s = static_cast<double>(sa.localSlack[k]);
        if (view.mispredicted(k))
            mispred.add(s);
        else
            correct.add(s);
    }
    slot.highVarianceFraction = sa.highVarianceFraction;
    slot.mispredSlack = mispred.mean();
    slot.correctSlack = correct.mean();
}

/**
 * Figures 4-6: Sec. 3's focused steering and scheduling on the 1x8w,
 * 2x4w, 4x2w and 8x1w machines: CPI normalized to 1x8w (Fig. 4), its
 * critical-path breakdown (Fig. 5), and the critical contention and
 * forwarding events by cause, per 10k instructions (Fig. 6).
 *
 * The run hook analyzes each 1x8w run's per-instruction timing on its
 * worker thread, so the same runs also print Fig. 8 (dynamic
 * instructions by static likelihood of criticality, every seed),
 * Sec. 6's most-critical-consumer analysis and Sec. 4's slack table
 * (first seed). These need full-trace runs; under --regions one line
 * stands in for them.
 */
struct FocusedSteering
{
    std::vector<std::string> workloads = workloadNames();
    /** wlCells[w]: the 1x8w baseline, then 2x4w, 4x2w, 8x1w. */
    std::vector<std::vector<std::size_t>> wlCells;
    /** wlCells[w][0] per workload: the cells the hook analyzes. */
    std::vector<std::size_t> monoCells;
    /** mono[w][seedIndex]: filled by the hook. */
    std::vector<std::vector<MonoRun>> mono;
    bool sampled = false;

    void declare(SweepSpec &spec);
    void onRun(const SweepJob &job, const Trace &trace,
               const PolicyRun &run);
    void print(const SweepOutcome &outcome, BenchContext &ctx) const;
};

void
FocusedSteering::declare(SweepSpec &spec)
{
    for (const std::string &wl : workloads) {
        std::vector<std::size_t> cells;
        for (unsigned n : {1u, 2u, 4u, 8u})  // clustered(1) is 1x8w
            cells.push_back(spec.addTiming(
                wl, MachineConfig::clustered(n), PolicyKind::Focused));
        monoCells.push_back(cells[0]);
        wlCells.push_back(std::move(cells));
    }
    mono.assign(workloads.size(),
                std::vector<MonoRun>(spec.cfg.seeds.size()));
    sampled = spec.cfg.regions > 0;
}

void
FocusedSteering::onRun(const SweepJob &job, const Trace &trace,
                       const PolicyRun &run)
{
    const auto it = std::find(monoCells.begin(), monoCells.end(), job.cell);
    if (it == monoCells.end())
        return;
    const MachineConfig machine = MachineConfig::monolithic();
    MonoRun &slot = mono[it - monoCells.begin()][job.seedIndex];
    slot.locWeights = locWeights(trace, run, machine);
    if (job.seedIndex == 0) {
        slot.consumers = analyzeConsumers(trace, run.sim, machine);
        slackRow(trace, run, machine, slot);
    }
}

void
FocusedSteering::print(const SweepOutcome &outcome,
                       BenchContext &ctx) const
{
    // ---- Figure 4 ----
    FigureGrid grid("=== Figure 4: focused steering & scheduling "
                    "(CPI normalized to 1x8w) ===",
                    {"2x4w", "4x2w", "8x1w"});
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const double base_cpi = outcome.at(wlCells[w][0]).cpi();
        for (std::size_t idx = 1; idx < wlCells[w].size(); ++idx) {
            const std::size_t cell = wlCells[w][idx];
            grid.set(workloads[w], outcome.cells[cell].machine.name(),
                     outcome.at(cell).cpi() / base_cpi);
        }
    }

    std::printf("%s\n", grid.str().c_str());
    std::printf("Paper: 2x4w usually within 5%%, 4x2w slowdowns past "
                "10%%, 8x1w averages ~20%% — an order of magnitude "
                "above Figure 2.\n");
    ctx.addGrid(grid);

    // ---- Figure 5 ----
    const CpCategory cats[] = {
        CpCategory::FwdDelay, CpCategory::Contention,
        CpCategory::Execute, CpCategory::Window, CpCategory::Fetch,
        CpCategory::MemLatency, CpCategory::BrMispredict,
    };

    std::printf("=== Figure 5: critical path breakdown, focused "
                "steering & scheduling ===\n");
    std::printf("(columns are CPI contributions normalized to the "
                "1x8w machine's CPI)\n\n");

    std::vector<double> avg_total(4, 0.0);

    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const double base_cpi = outcome.at(wlCells[w][0]).cpi();

        TextTable t({"config", "norm.CPI", "fwd.delay", "contention",
                     "execute", "window", "fetch", "mem.latency",
                     "br.mispr."});
        for (std::size_t idx = 0; idx < wlCells[w].size(); ++idx) {
            const AggregateResult &res = outcome.at(wlCells[w][idx]);
            const std::string name =
                outcome.cells[wlCells[w][idx]].machine.name();
            std::vector<std::string> row{name,
                formatDouble(res.cpi() / base_cpi, 3)};
            for (CpCategory c : cats)
                row.push_back(
                    formatDouble(res.categoryCpi(c) / base_cpi, 3));
            t.addRow(std::move(row));
            avg_total[idx] += res.cpi() / base_cpi;
        }
        std::printf("--- %s ---\n%s\n", workloads[w].c_str(),
                    t.str().c_str());
    }

    const double nwl = static_cast<double>(workloads.size());
    std::printf("AVE normalized CPI: 1x8w %.3f, 2x4w %.3f, 4x2w %.3f, "
                "8x1w %.3f\n",
                avg_total[0] / nwl, avg_total[1] / nwl,
                avg_total[2] / nwl, avg_total[3] / nwl);
    std::printf("Paper: clustering shifts the path from fetch- to "
                "execute-criticality and adds fwd-delay and contention "
                "components that grow with cluster count.\n");
    ctx.addScalar("aveNormCpi.1x8w", avg_total[0] / nwl);
    ctx.addScalar("aveNormCpi.2x4w", avg_total[1] / nwl);
    ctx.addScalar("aveNormCpi.4x2w", avg_total[2] / nwl);
    ctx.addScalar("aveNormCpi.8x1w", avg_total[3] / nwl);

    // ---- Figure 6 (clustered cells only) ----
    std::printf("=== Figure 6: critical-path event attribution "
                "(focused policy; events per 10k instructions) "
                "===\n\n");

    TextTable ta({"benchmark", "config", "contention:critical",
                  "contention:other", "fwd:loadbal", "fwd:dyadic",
                  "fwd:other"});

    // Per 10k instructions: critical contention on predicted-critical
    // and other instructions, then forwarding by cause.
    const char *eventNames[] = {"contentionCriticalPer10k",
                                "contentionOtherPer10k",
                                "fwdLoadBalPer10k", "fwdDyadicPer10k",
                                "fwdOtherPer10k"};
    double sums[5] = {};
    int cells = 0;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (std::size_t idx = 1; idx < wlCells[w].size(); ++idx) {
            const SweepCell &cell = outcome.cells[wlCells[w][idx]];
            const AggregateResult &res = outcome.at(wlCells[w][idx]);
            const double scale =
                10000.0 / static_cast<double>(res.instructions);
            const std::uint64_t events[] = {
                res.contentionEventsCritical, res.contentionEventsOther,
                res.fwdEventsLoadBal, res.fwdEventsDyadic,
                res.fwdEventsOther};
            std::vector<std::string> row{cell.workload,
                                         cell.machine.name()};
            for (int e = 0; e < 5; ++e) {
                row.push_back(formatDouble(
                    static_cast<double>(events[e]) * scale, 1));
                sums[e] += events[e] * scale;
            }
            ta.addRow(std::move(row));
            ++cells;
        }
    }

    std::printf("%s\n", ta.str().c_str());
    std::printf("AVE/10k-inst: contention critical %.1f vs other "
                "%.1f (%.0f%% critical);\n"
                "             fwd loadbal %.1f, dyadic %.1f, other "
                "%.1f\n",
                sums[0] / cells, sums[1] / cells,
                100.0 * sums[0] / (sums[0] + sums[1]),
                sums[2] / cells, sums[3] / cells, sums[4] / cells);
    std::printf("Paper: ~2/3 of contention stalls hit "
                "predicted-critical instructions; load-balance "
                "steering dominates forwarding except in "
                "bzip2/crafty (dyadic).\n");
    for (int e = 0; e < 5; ++e)
        ctx.addScalar(eventNames[e], sums[e] / cells);

    if (sampled) {
        std::printf("Figure 8, Sec. 6 and the slack table read "
                    "whole-trace timing; not printed under "
                    "--regions.\n");
        return;
    }

    // ---- Figure 8 (every seed) ----
    Histogram hist(21, 0.0, 1.05);  // 5% buckets, 0..100%
    for (const std::vector<MonoRun> &runs : mono)
        for (const MonoRun &run : runs)
            for (const auto &[loc, weight] : run.locWeights)
                hist.add(loc, weight);  // weight by dynamic count

    std::printf("=== Figure 8: distribution of static LoC over "
                "dynamic instructions (all benchmarks) ===\n\n");
    std::printf("%8s  %8s\n", "LoC", "% dyn.");
    for (std::size_t b = 0; b < hist.size(); ++b) {
        std::printf("%7.0f%%  %7.1f%%  %s", 100.0 * hist.bucketLo(b),
                    100.0 * hist.fraction(b),
                    std::string(static_cast<std::size_t>(
                                    60.0 * hist.fraction(b)),
                                '#').c_str());
        if (hist.bucketLo(b) <= 0.125 &&
            0.125 < hist.bucketLo(b) + 0.05) {
            std::printf("   <-- binary predictor threshold "
                        "(1 in 8 critical)");
        }
        std::printf("\n");
    }
    std::printf("\nPaper: ~53%% of dynamic instructions are "
                "never-critical; the rest spread over a wide spectrum "
                "the binary predictor collapses to one bit.\n");
    for (std::size_t b = 0; b < hist.size(); ++b)
        ctx.addScalar("locFraction." +
                          std::to_string(static_cast<int>(
                              100.0 * hist.bucketLo(b))),
                      hist.fraction(b));

    // ---- Sec. 6 (first seed) ----
    std::printf("=== Sec. 6: most-critical-consumer analysis "
                "(monolithic machine) ===\n\n");
    TextTable tc({"benchmark", "values", "multi-consumer",
                  "statically unique", "MCC not first"});
    Histogram tendency(10, 0.0, 1.0);
    double unique_sum = 0.0, notfirst_sum = 0.0;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const ConsumerAnalysis &ca = mono[w][0].consumers;
        tc.addRow({workloads[w], std::to_string(ca.valuesAnalyzed),
                   std::to_string(ca.multiConsumerValues),
                   formatPercent(ca.staticallyUniqueFraction, 1),
                   formatPercent(ca.mostCriticalNotFirstFraction, 1)});
        unique_sum += ca.staticallyUniqueFraction;
        notfirst_sum += ca.mostCriticalNotFirstFraction;
        for (std::size_t b = 0; b < ca.tendency.size(); ++b)
            tendency.add(ca.tendency.bucketLo(b) + 0.05,
                         ca.tendency.bucket(b));
    }
    std::printf("%s\n", tc.str().c_str());
    std::printf("AVE: statically unique %.1f%% (paper ~80%%), most "
                "critical consumer not first in fetch order %.1f%% "
                "(paper >50%%)\n\n",
                100.0 * unique_sum / nwl, 100.0 * notfirst_sum / nwl);
    std::printf("Static consumers' tendency to be the most critical "
                "consumer (bimodal expected):\n");
    for (std::size_t b = 0; b < tendency.size(); ++b) {
        std::printf("  %3.0f%%-%3.0f%%: %5.1f%%\n",
                    100.0 * tendency.bucketLo(b),
                    100.0 * (tendency.bucketLo(b) + 0.1),
                    100.0 * tendency.fraction(b));
    }
    ctx.addScalar("staticallyUniqueFraction", unique_sum / nwl);
    ctx.addScalar("mostCriticalNotFirstFraction", notfirst_sum / nwl);

    // ---- Sec. 4 slack (first seed) ----
    std::printf("=== Sec. 4: slack is impractical as a static metric "
                "===\n\n");
    TextTable ts({"benchmark", "high-variance frac",
                  "branch slack (mispred)", "branch slack (correct)"});
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const MonoRun &run = mono[w][0];
        ts.addRow({workloads[w],
                   formatPercent(run.highVarianceFraction, 1),
                   formatDouble(run.mispredSlack, 1),
                   formatDouble(run.correctSlack, 1)});
        ctx.addScalar("highVarianceFraction." + workloads[w],
                      run.highVarianceFraction);
    }
    std::printf("%s\n", ts.str().c_str());
    std::printf("Expected: a large high-variance population, and "
                "branch slack that collapses when mispredicted but is "
                "window-bounded when predicted correctly — the bimodal "
                "behaviour Sec. 4 describes. (Branches resolve at "
                "execute; 'slack' here is the local first-use gap, "
                "capped at 256.)\n");
}

/** Sec. 2.1: global values communicated per instruction on the 2-,
 *  4- and 8-cluster machines, per policy stack and ideal. */
struct GlobalTraffic
{
    std::vector<std::string> workloads = workloadNames();
    /** cellAt[n-index][column][workload]; columns are dependence,
     *  focused, full stack, ideal. */
    std::vector<std::vector<std::vector<std::size_t>>> cellAt;

    void declare(SweepSpec &spec);
    void print(const SweepOutcome &outcome, BenchContext &ctx) const;
};

void
GlobalTraffic::declare(SweepSpec &spec)
{
    for (unsigned n : {2u, 4u, 8u}) {
        const MachineConfig mc = MachineConfig::clustered(n);
        std::vector<std::vector<std::size_t>> cols(4);
        for (const std::string &wl : workloads) {
            cols[0].push_back(
                spec.addTiming(wl, mc, PolicyKind::Dep));
            cols[1].push_back(
                spec.addTiming(wl, mc, PolicyKind::Focused));
            cols[2].push_back(spec.addTiming(
                wl, mc,
                n == 8 ? PolicyKind::FocusedLocStallProactive
                       : PolicyKind::FocusedLocStall));
            cols[3].push_back(spec.addIdeal(wl, mc));
        }
        cellAt.push_back(std::move(cols));
    }
}

void
GlobalTraffic::print(const SweepOutcome &outcome,
                     BenchContext &ctx) const
{
    std::printf("=== Sec. 2.1: global values per instruction ===\n\n");
    TextTable t({"config", "dependence", "focused", "full stack",
                 "ideal sched"});

    const unsigned ns[] = {2u, 4u, 8u};
    const char *colName[] = {"dep", "focused", "full", "ideal"};
    for (std::size_t ni = 0; ni < 3; ++ni) {
        const MachineConfig mc = MachineConfig::clustered(ns[ni]);
        const double k = static_cast<double>(workloads.size());
        std::vector<std::string> row{mc.name()};
        for (std::size_t col = 0; col < 4; ++col) {
            double sum = 0.0;
            for (std::size_t cell : cellAt[ni][col])
                sum += outcome.at(cell).globalValuesPerInst();
            row.push_back(formatDouble(sum / k, 3));
            ctx.addScalar("globalValuesPerInst." + mc.name() + "." +
                              colName[col],
                          sum / k);
        }
        t.addRow(std::move(row));
    }

    std::printf("%s\n", t.str().c_str());
    std::printf("Paper: 0.12 / 0.20 / 0.25 global values per "
                "instruction for its policies on the 2-/4-/8-cluster "
                "machines, slightly below the baseline policy.\n");
}

/** Sec. 2.2, footnote 3: the idealized result, and the full policy
 *  stack for comparison, at forwarding latencies of 1-4 cycles. */
struct LatencySweep
{
    std::vector<std::string> workloads = workloadNames();
    /** baseAt[mode][w]: one 1x8w baseline for every latency, since
     *  one cluster never forwards (test_sweep pins this). */
    std::vector<std::size_t> baseAt[2];
    /** cellAt[latency-1][mode][n-index]: 2x4w, 4x2w, 8x1w per
     *  workload. */
    std::vector<std::size_t> cellAt[4][2][3];

    void declare(SweepSpec &spec);
    void print(const SweepOutcome &outcome, BenchContext &ctx) const;
};

void
LatencySweep::declare(SweepSpec &spec)
{
    for (const std::string &wl : workloads) {
        baseAt[0].push_back(spec.addIdeal(wl, MachineConfig::monolithic()));
        baseAt[1].push_back(spec.addTiming(
            wl, MachineConfig::monolithic(), PolicyKind::FocusedLoc));
    }
    for (unsigned lat : {1u, 2u, 3u, 4u}) {
        for (int mode = 0; mode < 2; ++mode) {
            for (const std::string &wl : workloads) {
                int idx = 0;
                for (unsigned n : {2u, 4u, 8u}) {
                    MachineConfig mc = MachineConfig::clustered(n);
                    mc.fwdLatency = lat;
                    cellAt[lat - 1][mode][idx++].push_back(
                        mode == 0 ? spec.addIdeal(wl, mc)
                        : spec.addTiming(
                              wl, mc,
                              n == 8 ? PolicyKind::FocusedLocStallProactive
                                     : PolicyKind::FocusedLocStall));
                }
            }
        }
    }
}

void
LatencySweep::print(const SweepOutcome &outcome, BenchContext &ctx) const
{
    std::printf("=== Footnote 3: forwarding-latency sweep (average "
                "CPI normalized to 1x8w) ===\n\n");
    const char *configs[] = {"2x4w", "4x2w", "8x1w"};
    TextTable t({"fwd latency", "mode", configs[0], configs[1],
                 configs[2]});

    for (unsigned lat : {1u, 2u, 3u, 4u}) {
        for (int mode = 0; mode < 2; ++mode) {
            std::vector<std::string> row{std::to_string(lat),
                                         mode == 0 ? "ideal" : "policies"};
            const std::string pfx = "normCpi.lat" +
                std::to_string(lat) +
                (mode == 0 ? ".ideal." : ".policies.");
            for (int idx = 0; idx < 3; ++idx) {
                const double avg = meanNormCpi(
                    outcome, cellAt[lat - 1][mode][idx], baseAt[mode]);
                row.push_back(formatDouble(avg, 3));
                ctx.addScalar(pfx + configs[idx], avg);
            }
            t.addRow(std::move(row));
        }
    }

    std::printf("%s\n", t.str().c_str());
    std::printf("Paper: the idealized averages stay below ~2%% (8x1w "
                "~4%%) even at a 4-cycle forwarding latency; trends, "
                "not absolutes, are the claim.\n");
}

/**
 * Figure 14: the three policies applied cumulatively to focused
 * steering ('l' + LoC scheduling, 's' + stall-over-steer, 'p' +
 * proactive load-balancing on 8x1w), normalized to 1x8w with LoC
 * scheduling, with the fwd/contention components and the penalty
 * reductions. Figure 15: achieved vs available ILP of the 8x1w
 * full-stack runs, from the ILP columns of every run's SimResult,
 * kept by the run hook. It needs full-trace runs; under --regions one
 * line stands in for it.
 */
struct PolicyProgression
{
    struct ClusterCell
    {
        std::size_t index;
        std::string column;
    };
    /** The Fig. 15 capture of one 8x1w full-stack run. */
    struct IlpCapture
    {
        std::vector<std::uint64_t> cycles;
        std::vector<std::uint64_t> issuedSum;
    };

    std::vector<std::string> workloads = workloadNames();
    std::vector<std::size_t> baseCells;
    /** Per workload: the cumulative stack on each clustered machine. */
    std::vector<std::vector<ClusterCell>> clusterCells;
    /** The 8x1w full-stack cell per workload: the hook's cells. */
    std::vector<std::size_t> fullStackCells;
    /** ilp[w][seedIndex]: filled by the hook. */
    std::vector<std::vector<IlpCapture>> ilp;
    bool sampled = false;

    void declare(SweepSpec &spec);
    void onRun(const SweepJob &job, const PolicyRun &run);
    void print(const SweepOutcome &outcome, BenchContext &ctx) const;
};

void
PolicyProgression::declare(SweepSpec &spec)
{
    // Per workload, the monolithic baseline followed by the cumulative
    // policy stack on each clustered configuration.
    for (const std::string &wl : workloads) {
        baseCells.push_back(spec.addTiming(
            wl, MachineConfig::monolithic(), PolicyKind::FocusedLoc));
        std::vector<ClusterCell> cells;
        auto add = [&](unsigned n, PolicyKind kind,
                       const std::string &col) {
            cells.push_back(
                {spec.addTiming(wl, MachineConfig::clustered(n), kind),
                 col});
        };
        for (unsigned n : {2u, 4u, 8u}) {
            const std::string b = std::to_string(n);
            add(n, PolicyKind::Focused, b);
            add(n, PolicyKind::FocusedLoc, b + "l");
            add(n, PolicyKind::FocusedLocStall, b + "s");
            if (n == 8)
                add(n, PolicyKind::FocusedLocStallProactive, b + "p");
        }
        fullStackCells.push_back(cells.back().index);
        clusterCells.push_back(std::move(cells));
    }
    ilp.assign(workloads.size(),
               std::vector<IlpCapture>(spec.cfg.seeds.size()));
    sampled = spec.cfg.regions > 0;
}

void
PolicyProgression::onRun(const SweepJob &job, const PolicyRun &run)
{
    const auto it =
        std::find(fullStackCells.begin(), fullStackCells.end(), job.cell);
    if (it == fullStackCells.end())
        return;
    IlpCapture &slot = ilp[it - fullStackCells.begin()][job.seedIndex];
    slot.cycles = run.sim.ilpCycles;
    slot.issuedSum = run.sim.ilpIssuedSum;
}

void
PolicyProgression::print(const SweepOutcome &outcome,
                         BenchContext &ctx) const
{
    std::vector<std::string> columns;
    for (const ClusterCell &cell : clusterCells.front())
        columns.push_back(cell.column);
    FigureGrid grid("=== Figure 14: policy progression (CPI "
                    "normalized to 1x8w with LoC scheduling) ===",
                    columns);
    FigureGrid fwd_grid("--- fwd.delay CPI component (same "
                        "normalization) ---", columns);
    FigureGrid cont_grid("--- contention CPI component ---", columns);
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::string &wl = workloads[w];
        const double base_cpi = outcome.at(baseCells[w]).cpi();
        for (const ClusterCell &cell : clusterCells[w]) {
            const AggregateResult &res = outcome.at(cell.index);
            grid.set(wl, cell.column, res.cpi() / base_cpi);
            fwd_grid.set(wl, cell.column,
                         res.categoryCpi(CpCategory::FwdDelay) /
                             base_cpi);
            cont_grid.set(wl, cell.column,
                          res.categoryCpi(CpCategory::Contention) /
                              base_cpi);
        }
    }

    std::printf("%s\n", grid.str().c_str());
    std::printf("%s\n", fwd_grid.str().c_str());
    std::printf("%s\n", cont_grid.str().c_str());

    // Headline: penalty reduction from 'focused' to the full stack.
    std::printf("--- penalty reduction (paper: 42%% / 57%% / 66%%) "
                "---\n");
    for (unsigned n : {2u, 4u, 8u}) {
        const std::string b = std::to_string(n);
        const std::string last = n == 8 ? b + "p" : b + "s";
        const double before = grid.columnAverage(b) - 1.0;
        const double after = grid.columnAverage(last) - 1.0;
        std::printf("%ux%uw: penalty %.3f -> %.3f  (reduction "
                    "%.0f%%)\n",
                    n, 8 / n, before, after,
                    before > 0 ? 100.0 * (before - after) / before
                               : 0.0);
        ctx.addScalar("penaltyReduction." + b + "x" +
                          std::to_string(8 / n) + "w",
                      before > 0 ? (before - after) / before : 0.0);
    }

    ctx.addGrid(grid);
    ctx.addGrid(fwd_grid);
    ctx.addGrid(cont_grid);

    if (sampled) {
        std::printf("Figure 15 reads whole-trace ILP captures; not "
                    "printed under --regions.\n");
        return;
    }

    // ---- Figure 15: folded in workload, seed order ----
    const unsigned max_avail = 24;
    std::vector<double> issued_sum(max_avail + 1, 0.0);
    std::vector<double> cycles_sum(max_avail + 1, 0.0);
    for (const std::vector<IlpCapture> &runs : ilp) {
        for (const IlpCapture &run : runs) {
            for (std::size_t a = 0; a < run.cycles.size(); ++a) {
                const std::size_t b =
                    std::min<std::size_t>(a, max_avail);
                issued_sum[b] += static_cast<double>(run.issuedSum[a]);
                cycles_sum[b] += static_cast<double>(run.cycles[a]);
            }
        }
    }

    std::printf("=== Figure 15: achieved vs available ILP, 8x1w, "
                "full policy stack (all benchmarks) ===\n\n");
    std::printf("%10s  %12s  %14s\n", "available", "achieved",
                "cycles (frac)");
    double total_cycles = 0.0;
    for (double c : cycles_sum)
        total_cycles += c;
    for (unsigned a = 0; a <= max_avail; ++a) {
        if (cycles_sum[a] == 0.0)
            continue;
        const double achieved = issued_sum[a] / cycles_sum[a];
        ctx.addScalar("achievedIlp." + std::to_string(a), achieved);
        std::printf("%9u%s  %12.2f  %13.1f%%  %s\n", a,
                    a == max_avail ? "+" : " ", achieved,
                    100.0 * cycles_sum[a] / total_cycles,
                    std::string(static_cast<std::size_t>(
                                    6.0 * achieved), '*').c_str());
    }
    std::printf("\nPaper: achieved ILP tracks available ILP up to "
                "~4-5, then saturates below the 8-wide peak near the "
                "machine width and approaches it again only when "
                "plenty of ready instructions exist per cluster.\n");
}

/**
 * Sec. 5: 2 to 16 1-wide clusters. Low-ILP programs do better on fewer
 * clusters under focused steering (Balasubramonian et al.);
 * stall-over-steer removes that, and the third row is their remedy,
 * adaptive active-cluster steering with age scheduling.
 */
struct ClusterSweep
{
    /** The low-ILP programs the observation concerns. */
    const std::vector<std::string> lows = {"gzip", "mcf", "parser",
                                           "gap"};
    std::vector<std::size_t> baseCells;
    /** policyCells[wl][mode][n-index] */
    std::vector<std::vector<std::vector<std::size_t>>> policyCells;

    void declare(SweepSpec &spec);
    void print(const SweepOutcome &outcome, BenchContext &ctx) const;
};

const unsigned clusterCounts[] = {2u, 4u, 8u, 16u};

void
ClusterSweep::declare(SweepSpec &spec)
{
    const PolicyKind modes[] = {PolicyKind::Focused,
                                PolicyKind::FocusedLocStall,
                                PolicyKind::ActiveClusters};
    for (const std::string &wl : lows) {
        baseCells.push_back(spec.addTiming(
            wl, MachineConfig::monolithic(), PolicyKind::FocusedLoc));
        std::vector<std::vector<std::size_t>> cells(3);
        for (int mode = 0; mode < 3; ++mode)
            for (unsigned n : clusterCounts)
                cells[mode].push_back(spec.addTiming(
                    wl, MachineConfig::generic(n, 1), modes[mode]));
        policyCells.push_back(std::move(cells));
    }
}

void
ClusterSweep::print(const SweepOutcome &outcome, BenchContext &ctx) const
{
    std::printf("=== Cluster sweep, 1-wide clusters (CPI normalized "
                "to 1x8w, focused policy baseline) ===\n\n");
    TextTable t({"benchmark", "policy", "2x1w", "4x1w", "8x1w",
                 "16x1w"});

    for (std::size_t w = 0; w < lows.size(); ++w) {
        const std::string &wl = lows[w];
        const double base_cpi = outcome.at(baseCells[w]).cpi();
        for (int mode = 0; mode < 3; ++mode) {
            const char *label = mode == 0 ? "focused"
                : mode == 1 ? "+loc+stall" : "adaptive[2]";
            std::vector<std::string> row{wl, label};
            for (std::size_t ni = 0; ni < 4; ++ni) {
                const double cpi =
                    outcome.at(policyCells[w][mode][ni]).cpi();
                row.push_back(formatDouble(cpi / base_cpi, 3));
                ctx.addScalar("normCpi." + wl + "." + label + "." +
                                  std::to_string(clusterCounts[ni]) +
                                  "x1w",
                              cpi / base_cpi);
            }
            t.addRow(std::move(row));
        }
    }

    std::printf("%s\n", t.str().c_str());
    std::printf("Note: aggregate width shrinks with fewer 1-wide "
                "clusters, so 2x1w/4x1w trade peak throughput for "
                "locality; the Balasubramonian effect is the gap "
                "between 4x1w and 16x1w on serial code under plain "
                "focused steering.\n");
}

/** The 1x8w and 8x1w cells of one ablation setting, per workload. */
struct Setting
{
    std::vector<std::size_t> monoCells, clusCells;
};

/**
 * Ablations of the paper's design choices: LoC levels (Sec. 7's 16),
 * the stall-over-steer threshold (its 30%) and the criticality-training
 * chunk. Each setting is a 1x8w and an 8x1w cell per sample workload,
 * carrying the setting as a per-cell config override, on seed 1 unless
 * --seeds says otherwise.
 */
struct Ablations
{
    const std::vector<std::string> sample = {"gzip", "vpr", "gap",
                                             "parser", "mcf", "gcc"};
    ExperimentConfig base;
    std::vector<Setting> locSettings, thrSettings, chunkSettings;

    explicit Ablations(const BenchContext &ctx)
    {
        base.seeds = {1};
        ctx.apply(base);
    }

    Setting add(SweepSpec &spec, const ExperimentConfig &cfg,
                PolicyKind kind) const;
    void declare(SweepSpec &spec);
    void print(const SweepOutcome &outcome, BenchContext &ctx) const;
};

const unsigned locLevels[] = {2u, 4u, 8u, 16u, 64u, 1024u};
const double thresholds[] = {0.10, 0.30, 0.50};
const std::uint64_t chunks[] = {1024ull, 8192ull, 32768ull};

Setting
Ablations::add(SweepSpec &spec, const ExperimentConfig &cfg,
               PolicyKind kind) const
{
    Setting s;
    for (const std::string &wl : sample) {
        SweepCell cell;
        cell.workload = wl;
        cell.policy = kind;
        cell.cfg = cfg;
        cell.machine = MachineConfig::monolithic();
        s.monoCells.push_back(spec.add(cell));
        cell.machine = MachineConfig::clustered(8);
        s.clusCells.push_back(spec.add(cell));
    }
    return s;
}

void
Ablations::declare(SweepSpec &spec)
{
    for (unsigned levels : locLevels) {
        ExperimentConfig cfg = base;
        cfg.locLevels = levels;
        locSettings.push_back(add(spec, cfg, PolicyKind::FocusedLoc));
    }
    for (double thr : thresholds) {
        ExperimentConfig cfg = base;
        cfg.stallThreshold = thr;
        thrSettings.push_back(
            add(spec, cfg, PolicyKind::FocusedLocStall));
    }
    for (std::uint64_t chunk : chunks) {
        ExperimentConfig cfg = base;
        cfg.trainChunk = chunk;
        chunkSettings.push_back(add(spec, cfg, PolicyKind::FocusedLoc));
    }
}

void
Ablations::print(const SweepOutcome &outcome, BenchContext &ctx) const
{
    const auto norm = [&](const Setting &s) {
        return meanNormCpi(outcome, s.clusCells, s.monoCells);
    };
    std::printf("=== Ablation 1: LoC stratification (Sec. 7) ===\n");
    std::printf("(8x1w CPI normalized to 1x8w, focused+LoC "
                "scheduling, %zu-benchmark sample)\n\n",
                sample.size());
    std::printf("%8s  %10s\n", "levels", "norm. CPI");
    for (std::size_t i = 0; i < locSettings.size(); ++i) {
        const double cpi = norm(locSettings[i]);
        ctx.addScalar("normCpi.locLevels." +
                          std::to_string(locLevels[i]),
                      cpi);
        std::printf("%8u  %10.3f%s\n", locLevels[i], cpi,
                    locLevels[i] == 16 ? "   <- paper's design point"
                                       : "");
    }
    std::printf("Paper: 16 levels ~ unlimited precision; 2 levels "
                "degenerates toward the binary predictor.\n\n");

    std::printf("=== Ablation 2: stall-over-steer threshold ===\n");
    std::printf("(8x1w, focused+loc+stall)\n\n");
    std::printf("%10s  %10s\n", "threshold", "norm. CPI");
    for (std::size_t i = 0; i < thrSettings.size(); ++i) {
        const double thr = thresholds[i];
        const double cpi = norm(thrSettings[i]);
        ctx.addScalar("normCpi.stallThreshold." +
                          std::to_string(static_cast<int>(thr * 100)),
                      cpi);
        std::printf("%9.0f%%  %10.3f%s\n", thr * 100.0, cpi,
                    thr == 0.30 ? "   <- paper's design point" : "");
    }
    std::printf("Paper: 30%% 'strikes a good balance' between "
                "stalling execute-critical chains and not throttling "
                "fetch-critical code.\n\n");

    std::printf("=== Ablation 3: criticality-training chunk size "
                "===\n");
    std::printf("(8x1w, focused+loc; emulates the detector's "
                "sampling scope)\n\n");
    std::printf("%8s  %10s\n", "chunk", "norm. CPI");
    for (std::size_t i = 0; i < chunkSettings.size(); ++i) {
        const double cpi = norm(chunkSettings[i]);
        ctx.addScalar("normCpi.trainChunk." +
                          std::to_string(chunks[i]),
                      cpi);
        std::printf("%8llu  %10.3f%s\n",
                    static_cast<unsigned long long>(chunks[i]), cpi,
                    chunks[i] == 8192 ? "   <- default" : "");
    }
}

Trace
annotate(Trace t)
{
    t.linkProducers();
    annotateBranches(t);
    annotateMemory(t);
    return t;
}

std::uint64_t
fwdCycles(const AggregateResult &res)
{
    return res.categoryCycles[static_cast<std::size_t>(
        CpCategory::FwdDelay)];
}

/**
 * The paper's code examples (Figs. 9, 3 and 12/13, and available ILP
 * equal to the machine width) on micro-kernel traces. These keep one
 * shape (30000 instructions, seed 1) at every --instructions / --seeds,
 * so their few runs go in a plain loop outside the sweep and its
 * ledger, through runPolicyCell: `--check` still arms the checker, the
 * audit and the oracles.
 */
void
printExamples(BenchContext &ctx)
{
    ExperimentConfig cfg;
    ctx.apply(cfg);
    WorkloadConfig wcfg;
    wcfg.targetInstructions = 30000;
    wcfg.seed = 1;
    const MachineConfig mono = MachineConfig::monolithic();
    const MachineConfig c8 = MachineConfig::clustered(8);
    const auto run = [&](const Trace &t, const MachineConfig &mc,
                         PolicyKind kind) {
        return runPolicyCell(t, mc, kind, cfg);
    };

    // Each example builds its trace, runs it and prints.
    {
        const Trace t = annotate(buildMicroSerialChain(wcfg));
        const AggregateResult dep = run(t, c8, PolicyKind::Dep);
        const AggregateResult stall =
            run(t, c8, PolicyKind::FocusedLocStall);
        std::printf("=== Fig. 9: a single dependence chain on 8x1w "
                    "===\n\n");
        std::printf("dependence steering:  CPI %.3f, critical fwd "
                    "cycles %llu\n", dep.cpi(),
                    static_cast<unsigned long long>(fwdCycles(dep)));
        std::printf("+ stall-over-steer:   CPI %.3f, critical fwd "
                    "cycles %llu\n\n", stall.cpi(),
                    static_cast<unsigned long long>(fwdCycles(stall)));
        ctx.addScalar("fig9.depCpi", dep.cpi());
        ctx.addScalar("fig9.stallCpi", stall.cpi());
        ctx.addRunStats("serialChain/8x1w/dependence", dep.stats);
        ctx.addRunStats("serialChain/8x1w/focused+loc+stall",
                        stall.stats);
        std::printf("Paper: load-balancing injects one forwarding delay "
                    "per window fill; stalling removes them all (CPI -> "
                    "the chain's 1.0 bound).\n\n");
    }
    {
        const Trace t = annotate(buildMicroConvergent(wcfg));
        const double mono_cpi = runIdealCell(t, mono, cfg).cpi();
        std::printf("=== Fig. 3: convergent dataflow across cluster "
                    "widths (idealized scheduler) ===\n\n");
        std::printf("%10s  %10s\n", "config", "norm. CPI");
        for (unsigned n : {2u, 4u, 8u}) {
            const MachineConfig mc = MachineConfig::clustered(n);
            std::printf("%10s  %10.3f\n", mc.name().c_str(),
                        runIdealCell(t, mc, cfg).cpi() / mono_cpi);
        }
        std::printf("\nPaper: with 1-wide clusters the convergence "
                    "imposes a small fundamental penalty (forwarding or "
                    "contention); 2- and 4-wide clusters absorb "
                    "it.\n\n");
    }
    {
        const Trace t = annotate(buildMicroEarlyExit(wcfg));
        const AggregateResult base = run(t, mono, PolicyKind::FocusedLoc);
        const AggregateResult dep = run(t, c8, PolicyKind::Dep);
        const AggregateResult full =
            run(t, c8, PolicyKind::FocusedLocStallProactive);
        std::printf("=== Fig. 12/13: early-exit loop on 8x1w ===\n\n");
        std::printf("monolithic:           CPI %.3f\n", base.cpi());
        std::printf("dependence steering:  CPI %.3f (%.1f%% penalty)\n",
                    dep.cpi(), 100.0 * (dep.cpi() / base.cpi() - 1.0));
        std::printf("full policy stack:    CPI %.3f (%.1f%% "
                    "penalty)\n\n",
                    full.cpi(), 100.0 * (full.cpi() / base.cpi() - 1.0));
        ctx.addScalar("fig12.monoCpi", base.cpi());
        ctx.addScalar("fig12.depCpi", dep.cpi());
        ctx.addScalar("fig12.fullCpi", full.cpi());
        ctx.addRunStats("earlyExit/8x1w/full", full.stats);
        std::printf("Paper: collocating only the first consumer spreads "
                    "the recurrence (Fig. 13a); keeping the most "
                    "critical consumer preserves the spine "
                    "(Fig. 13b).\n\n");
    }
    std::printf("=== Available ILP == machine width on 8x1w ===\n\n");
    std::printf("%8s  %10s  %12s\n", "chains", "mono CPI", "8x1w CPI");
    for (unsigned chains : {2u, 4u, 8u, 16u}) {
        const Trace t = annotate(buildMicroWideIlp(wcfg, chains));
        const double mono_cpi = run(t, mono, PolicyKind::FocusedLoc).cpi();
        const double clus_cpi =
            run(t, c8, PolicyKind::FocusedLocStallProactive).cpi();
        std::printf("%8u  %10.3f  %12.3f\n", chains, mono_cpi, clus_cpi);
        ctx.addScalar("wideIlp.chains" + std::to_string(chains) +
                          ".clusCpi",
                      clus_cpi);
    }
    std::printf("\nPaper (Fig. 15 / Sec. 7): the clustered machine "
                "suffers when the ready-instruction distribution "
                "matters — here at intermediate chain counts, where "
                "steering must place one chain per cluster without "
                "global knowledge. With chains == clusters the "
                "assignment is trivial and with abundant chains every "
                "cluster stays busy; in between the gap opens, the "
                "distribution problem of Sec. 7.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    BenchContext ctx("bench_paper", argc, argv);

    SweepSpec spec;
    ctx.apply(spec.cfg);
    IdealSchedules ideal;
    FocusedSteering focused;
    GlobalTraffic traffic;
    LatencySweep latency;
    PolicyProgression policies;
    ClusterSweep clusters;
    Ablations ablations(ctx);
    ideal.declare(spec);
    focused.declare(spec);
    traffic.declare(spec);
    latency.declare(spec);
    policies.declare(spec);
    clusters.declare(spec);
    ablations.declare(spec);

    SweepOutcome outcome = ctx.runner().run(
        spec, [&](const SweepJob &job, const Trace &trace,
                  const PolicyRun &run) {
            focused.onRun(job, trace, run);
            policies.onRun(job, run);
        });

    printTable1(ctx);
    ideal.print(outcome, ctx);
    focused.print(outcome, ctx);
    traffic.print(outcome, ctx);
    latency.print(outcome, ctx);
    policies.print(outcome, ctx);
    clusters.print(outcome, ctx);
    ablations.print(outcome, ctx);
    // The report's runs: every distinct cell, then the examples'.
    ctx.addSweepRuns(std::move(outcome));
    printExamples(ctx);
    return ctx.finish();
}
