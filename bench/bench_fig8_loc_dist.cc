/**
 * @file
 * Figure 8: distribution of likelihood-of-criticality values.
 *
 * For every benchmark, run the monolithic machine, compute the
 * ground-truth criticality of each dynamic instruction with the
 * dependence-graph analysis, form each static instruction's LoC (the
 * fraction of its instances that were critical) and histogram dynamic
 * instructions by their static LoC in 5% buckets. The paper's shape: a
 * big never-critical spike (~53% at 0) and a long, usable tail; the
 * binary Fields predictor's threshold sits at 1-in-8 (12.5%).
 */

#include <cstdio>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "harness/json_report.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "trace/trace_soa.hh"

using namespace csim;

int
main(int argc, char **argv)
{
    BenchContext ctx("bench_fig8_loc_dist", argc, argv);
    ExperimentConfig cfg;
    ctx.apply(cfg);
    Histogram hist(21, 0.0, 1.05);  // 5% buckets, 0..100%

    // One job per (workload, seed); each job returns its histogram
    // contributions and run snapshot, which are folded in job order so
    // the result matches the sequential loop exactly.
    struct Job
    {
        std::string workload;
        std::uint64_t seed;
        std::vector<std::pair<double, std::uint64_t>> locWeights;
        StatsSnapshot stats;
    };
    std::vector<Job> jobs;
    for (const std::string &wl : workloadNames())
        for (std::uint64_t seed : cfg.seeds)
            jobs.push_back(Job{wl, seed, {}, {}});

    SweepRunner &runner = ctx.runner();
    runner.parallelFor(jobs.size(), [&](std::size_t i) {
        Job &job = jobs[i];
        WorkloadConfig wcfg;
        wcfg.targetInstructions = cfg.instructions;
        wcfg.seed = job.seed;
        std::shared_ptr<const Trace> trace =
            runner.cache().get(job.workload, wcfg);
        PolicyRun run = runPolicy(*trace, MachineConfig::monolithic(),
                                  PolicyKind::Focused, cfg);
        job.stats = run.sim.stats;
        std::vector<bool> crit = criticalityGroundTruth(
            *trace, run.sim, MachineConfig::monolithic());

        std::unordered_map<Addr, std::pair<std::uint64_t,
                                           std::uint64_t>> per_pc;
        const std::span<const Addr> pcs = trace->soa().pc();
        for (std::uint64_t k = 0; k < pcs.size(); ++k) {
            auto &e = per_pc[pcs[k]];
            ++e.second;
            if (crit[k])
                ++e.first;
        }
        for (const auto &[pc, e] : per_pc) {
            (void)pc;
            const double loc = static_cast<double>(e.first) /
                static_cast<double>(e.second);
            job.locWeights.emplace_back(loc, e.second);
        }
    });

    for (const Job &job : jobs) {
        ctx.addRunStats(job.workload + "/1x8w/focused/seed" +
                            std::to_string(job.seed),
                        job.stats);
        for (const auto &[loc, weight] : job.locWeights)
            hist.add(loc, weight);  // weight by dynamic count
    }

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
    return ctx.finish();
}
