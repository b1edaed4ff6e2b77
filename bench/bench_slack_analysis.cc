/**
 * @file
 * Section 4's slack-vs-LoC argument, quantified.
 *
 * Slack is a per-instance quantity: a branch has no slack when
 * mispredicted and window-bounded slack when predicted correctly, so
 * a static instruction's slack forms a wide histogram that cannot
 * drive a scheduler with one number. LoC, in contrast, is a single
 * static likelihood. This bench reports, per benchmark, the fraction
 * of dynamic instructions whose static slack distribution is
 * high-variance, and shows the bimodal slack of mispredicting
 * branches explicitly.
 */

#include <cstdio>
#include <vector>

#include "common/stats.hh"
#include "critpath/slack.hh"
#include "harness/json_report.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "trace/trace_soa.hh"

using namespace csim;

int
main(int argc, char **argv)
{
    BenchContext ctx("bench_slack_analysis", argc, argv);
    ExperimentConfig cfg;
    cfg.seeds = {1};
    ctx.apply(cfg);

    // One job per workload; rows are emitted in workload order.
    struct Job
    {
        std::string workload;
        double highVarianceFraction = 0.0;
        double mispredMean = 0.0;
        double correctMean = 0.0;
        StatsSnapshot stats;
    };
    std::vector<Job> jobs;
    for (const std::string &wl : workloadNames())
        jobs.push_back(Job{wl, 0.0, 0.0, 0.0, {}});

    SweepRunner &runner = ctx.runner();
    runner.parallelFor(jobs.size(), [&](std::size_t i) {
        Job &job = jobs[i];
        WorkloadConfig wcfg;
        wcfg.targetInstructions = cfg.instructions;
        wcfg.seed = 1;
        std::shared_ptr<const Trace> trace =
            runner.cache().get(job.workload, wcfg);
        PolicyRun run = runPolicy(*trace, MachineConfig::monolithic(),
                                  PolicyKind::Focused, cfg);
        SlackAnalysis sa = analyzeSlack(*trace, run.sim,
                                        MachineConfig::monolithic());

        // Split conditional-branch slack by prediction outcome.
        RunningStat mispred, correct;
        const TraceSoA view = trace->soa();
        for (std::uint64_t k = 0; k < view.size(); ++k) {
            if (!view.isCondBranch(k))
                continue;
            const double s =
                static_cast<double>(sa.localSlack[k]);
            if (view.mispredicted(k))
                mispred.add(s);
            else
                correct.add(s);
        }
        job.highVarianceFraction = sa.highVarianceFraction;
        job.mispredMean = mispred.mean();
        job.correctMean = correct.mean();
        job.stats = run.sim.stats;
    });

    std::printf("=== Sec. 4: slack is impractical as a static metric "
                "===\n\n");
    TextTable t({"benchmark", "high-variance frac",
                 "branch slack (mispred)", "branch slack (correct)"});

    for (const Job &job : jobs) {
        t.addRow({job.workload,
                  formatPercent(job.highVarianceFraction, 1),
                  formatDouble(job.mispredMean, 1),
                  formatDouble(job.correctMean, 1)});
        ctx.addRunStats(job.workload + "/1x8w/focused", job.stats);
        ctx.addScalar("highVarianceFraction." + job.workload,
                      job.highVarianceFraction);
    }

    std::printf("%s\n", t.str().c_str());
    std::printf("Expected: a large high-variance population, and "
                "branch slack that collapses when mispredicted but is "
                "window-bounded when predicted correctly — the bimodal "
                "behaviour Sec. 4 describes. (Branches resolve at "
                "execute; 'slack' here is the local first-use gap, "
                "capped at 256.)\n");
    return ctx.finish();
}
