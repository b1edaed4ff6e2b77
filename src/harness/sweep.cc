#include "harness/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "obs/flight_recorder.hh"
#include "obs/host_prof.hh"
#include "obs/run_ledger.hh"

namespace csim {

std::uint64_t
parseDecimal(const std::string &value, const char *source,
             std::uint64_t lo, std::uint64_t hi)
{
    // strtoull alone would accept a sign (negating "-5" into a huge
    // value) and leading blanks, and saturate silently past 2^64.
    bool digits_only = !value.empty();
    for (char c : value)
        digits_only = digits_only && c >= '0' && c <= '9';
    errno = 0;
    const unsigned long long n =
        digits_only ? std::strtoull(value.c_str(), nullptr, 10) : 0;
    if (!digits_only || errno == ERANGE || n < lo || n > hi)
        CSIM_FATAL_F("bad %s '%s': want a decimal integer in "
                     "[%llu, %llu]",
                     source, value.c_str(),
                     static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(hi));
    return n;
}

unsigned
parseThreadCount(const std::string &value, const char *source)
{
    return static_cast<unsigned>(parseDecimal(value, source, 1, 65536));
}

std::vector<std::uint64_t>
parseSeedList(const std::string &value)
{
    std::vector<std::uint64_t> seeds;
    std::size_t pos = 0;
    while (pos <= value.size()) {
        std::size_t comma = value.find(',', pos);
        if (comma == std::string::npos)
            comma = value.size();
        const std::uint64_t seed = parseDecimal(
            value.substr(pos, comma - pos), "--seeds", 0, UINT64_MAX);
        // A repeated seed would run each cell's job for that seed
        // again and count it twice in the cell's aggregate.
        if (std::find(seeds.begin(), seeds.end(), seed) != seeds.end())
            CSIM_FATAL_F("bad --seeds '%s': seed %llu is listed twice",
                         value.c_str(),
                         static_cast<unsigned long long>(seed));
        seeds.push_back(seed);
        pos = comma + 1;
    }
    return seeds;
}

namespace {

const char *
priorityName(ListSchedOptions::Priority priority)
{
    switch (priority) {
      case ListSchedOptions::Priority::DataflowHeight:
        return "ideal";
      case ListSchedOptions::Priority::Loc:
        return "ideal-loc";
      case ListSchedOptions::Priority::BinaryCritical:
        return "ideal-binary";
      default:
        CSIM_PANIC("priorityName: bad priority");
    }
}

/**
 * Order-free parallel execution of fn(0..n-1) on `threads` workers;
 * returns when all indices completed. Workers claim indices in
 * increasing order but finish them in any order; fn makes its own
 * effects order-free (SweepRunner::run folds each job into its cell
 * in seed order).
 */
void
parallelFor(unsigned threads, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    const std::size_t workers = std::min<std::size_t>(threads, n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // Atomic-counter work stealing: whichever worker is free claims
    // the next index. Which worker runs an index, and when it ends,
    // is nondeterministic; determinism is the caller's job.
    // Workers adopt the spawning thread's host-prof scope path so the
    // merged timer tree has the same shape as the inline execution.
    const std::vector<std::string> prof_path = HostProf::currentPath();
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            HostProfPathAdopter prof_adopt(prof_path);
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                fn(i);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
}

} // anonymous namespace

std::string
SweepCell::label() const
{
    std::string out = workload;
    out += '/';
    out += machine.name();
    out += '/';
    out += mode == CellMode::Timing ? policyName(policy)
                                    : priorityName(priority);
    return out;
}

std::size_t
SweepSpec::add(SweepCell cell)
{
    const ExperimentConfig &cell_cfg = cell.cfg ? *cell.cfg : cfg;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SweepCell &old = cells[i];
        if (old.workload == cell.workload &&
            old.machine == cell.machine && old.mode == cell.mode &&
            (cell.mode == CellMode::Timing
                 ? old.policy == cell.policy
                 : old.priority == cell.priority) &&
            cellConfig(i) == cell_cfg)
            return i;
    }
    cells.push_back(std::move(cell));
    return cells.size() - 1;
}

std::size_t
SweepSpec::addTiming(std::string workload, MachineConfig machine,
                     PolicyKind policy)
{
    SweepCell cell;
    cell.workload = std::move(workload);
    cell.machine = machine;
    cell.mode = CellMode::Timing;
    cell.policy = policy;
    return add(std::move(cell));
}

std::size_t
SweepSpec::addIdeal(std::string workload, MachineConfig machine,
                    ListSchedOptions::Priority priority)
{
    SweepCell cell;
    cell.workload = std::move(workload);
    cell.machine = machine;
    cell.mode = CellMode::Ideal;
    cell.priority = priority;
    return add(std::move(cell));
}

void
SweepSpec::crossTiming(const std::vector<std::string> &workloads,
                       const std::vector<MachineConfig> &machines,
                       const std::vector<PolicyKind> &policies)
{
    for (const std::string &wl : workloads)
        for (const MachineConfig &machine : machines)
            for (PolicyKind policy : policies)
                addTiming(wl, machine, policy);
}

const ExperimentConfig &
SweepSpec::cellConfig(std::size_t i) const
{
    const SweepCell &cell = cells.at(i);
    return cell.cfg ? *cell.cfg : cfg;
}

SweepRunner::SweepRunner(unsigned threads, TraceCache *cache)
    : threads_(threads ? threads : defaultThreads()), cache_(cache)
{
}

unsigned
SweepRunner::defaultThreads()
{
    if (const char *env = std::getenv("CSIM_THREADS"))
        return parseThreadCount(env, "CSIM_THREADS");
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

SweepOutcome
SweepRunner::run(const SweepSpec &spec, const RunHook &onRun)
{
    HOST_PROF_SCOPE("sweep.run");
    const auto start = std::chrono::steady_clock::now();

    // Expand cells into independent (cell, seed) jobs, cell-major with
    // seeds in declaration order — the same order the sequential
    // aggregation loop visits them.
    std::vector<SweepJob> jobs;
    for (std::size_t c = 0; c < spec.cells.size(); ++c) {
        const std::vector<std::uint64_t> &seeds =
            spec.cellConfig(c).seeds;
        for (std::size_t s = 0; s < seeds.size(); ++s)
            jobs.push_back(SweepJob{c, s, seeds[s]});
    }

    const std::uint64_t sweepIdx =
        ledger_ ? ledger_->nextSweepIndex() : 0;
    if (ledger_) {
        ledger_->progress().jobsTotal.fetch_add(
            jobs.size(), std::memory_order_relaxed);
        ledger_->sweepBegin(sweepIdx, spec.cells.size(), jobs.size(),
                            threads_);
    }

    SweepOutcome out;
    out.cells = spec.cells;
    out.results.resize(spec.cells.size());
    out.threads = threads_;

    // Each job folds into its cell as soon as the cell's earlier seeds
    // have: a cell still merges its seeds in declaration order, the
    // exact merge sequence of the sequential path (floating-point
    // accumulation included), so the outcome is bit-identical at any
    // thread count. A job that lands before an earlier seed of its
    // cell parks here, keyed by job index, until that seed folds.
    // foldMutex guards out.results, seedsFolded and parked.
    std::mutex foldMutex;
    std::vector<std::size_t> seedsFolded(spec.cells.size(), 0);
    std::map<std::size_t, AggregateResult> parked;
    const auto fold = [&](std::size_t i, AggregateResult &&res) {
        const SweepJob &job = jobs[i];
        std::lock_guard<std::mutex> lock(foldMutex);
        std::size_t &folded = seedsFolded[job.cell];
        if (job.seedIndex != folded) {
            parked.emplace(i, std::move(res));
            return;
        }
        AggregateResult &cell = out.results[job.cell];
        cell.merge(res);
        ++folded;
        // A parked job's predecessor is in its own cell (a cell's
        // first seed never parks), so job i + 1, when parked, is this
        // cell's next seed.
        for (auto next = parked.find(++i); next != parked.end();
             next = parked.find(++i)) {
            cell.merge(next->second);
            parked.erase(next);
            ++folded;
        }
    };

    {
        HOST_PROF_SCOPE("sweep.jobs");
        parallelFor(threads_, jobs.size(), [&](std::size_t i) {
            const SweepJob &job = jobs[i];
            const SweepCell &cell = spec.cells[job.cell];
            const ExperimentConfig &cfg = spec.cellConfig(job.cell);
            const std::string label = cell.label();

            if (ledger_)
                ledger_->jobBegin(sweepIdx, label, job.seed,
                                  configDigest(cfg));
            if (FlightRecorder::installed()) {
                char ctx[128];
                std::snprintf(ctx, sizeof(ctx),
                              "cell=%s seed=%llu", label.c_str(),
                              static_cast<unsigned long long>(job.seed));
                FlightRecorder::setContext(ctx);
            }

            WorkloadConfig wcfg;
            wcfg.targetInstructions = cfg.instructions;
            wcfg.seed = job.seed;
            std::shared_ptr<const Trace> trace =
                cache().get(cell.workload, wcfg);

            std::function<void(const PolicyRun &)> inspect;
            if (onRun)
                inspect = [&](const PolicyRun &run) {
                    onRun(job, *trace, run);
                };
            AggregateResult res =
                cell.mode == CellMode::Timing
                    ? runPolicyCell(*trace, cell.machine, cell.policy,
                                    cfg, inspect)
                    : runIdealCell(*trace, cell.machine, cfg,
                                   cell.priority);

            // jobEnd carries this job's own result, so it goes out
            // before the fold merges that result away.
            if (ledger_) {
                ledger_->progress().jobsDone.fetch_add(
                    1, std::memory_order_relaxed);
                ledger_->progress().instructionsDone.fetch_add(
                    res.instructions, std::memory_order_relaxed);
                ledger_->jobEnd(sweepIdx, label, job.seed,
                                res.instructions, res.cycles,
                                statsDigest(res.stats));
            }
            fold(i, std::move(res));
        });
    }
    CSIM_ASSERT(parked.empty());

    // cellEnd events are emitted from this single-threaded loop, so
    // unlike the concurrent jobBegin/jobEnd stream their file order is
    // itself deterministic (declaration order).
    if (ledger_) {
        for (std::size_t c = 0; c < spec.cells.size(); ++c) {
            const AggregateResult &res = out.results[c];
            ledger_->cellEnd(sweepIdx, spec.cells[c].label(),
                             spec.cellConfig(c).seeds.size(),
                             res.instructions, res.cycles,
                             statsDigest(res.stats));
        }
    }

    out.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (ledger_)
        ledger_->sweepEnd(sweepIdx, spec.cells.size(), jobs.size(),
                          out.wallSeconds);
    return out;
}

} // namespace csim
