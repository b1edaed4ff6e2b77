/**
 * @file
 * Benchmark generator: runs one workload in one process. It prints a
 * JSON line with the planned cell count before any work, and the JSON
 * result as its last line. benchmark/run.py drives it; run it directly
 * with
 *
 *   csim_benchmark --workload paper_grid [--seed S] [--mode e2e|traced]
 *                  [--seconds T] [--smoke] [--tmpdir DIR] [--spans PATH]
 *
 * e2e mode runs one rep, with no instrumentation beyond the shipped
 * defaults: one process per rep, as a user runs one sweep per process,
 * so every rep starts from the same fresh heap. traced mode runs that
 * untraced rep (the reference for digests and tracing overhead), then
 * traced reps while another as long as the last still fits in T
 * seconds, and adds the per-layer metrics.
 */

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/logging.hh"
#include "harness/sweep.hh"
#include "harness/trace_cache.hh"
#include "obs/host_prof.hh"
#include "plan.hh"
#include "trace/trace_store.hh"
#include "traced.hh"
#include "workloads/registry.hh"

using namespace csim;
using namespace bench;

namespace {

constexpr const char *usage =
    "usage: csim_benchmark --workload "
    "{paper_grid,observed,store_stream,long_trace} [--seed S>=1] "
    "[--mode e2e|traced] [--seconds T>=0] [--smoke] "
    "[--tmpdir DIR] [--spans PATH]";

/** Largest accepted seed: the plans use seed + 2. */
constexpr std::uint64_t maxSeed = UINT64_MAX - 2;

[[noreturn]] void
usageError(const std::string &detail)
{
    std::fprintf(stderr, "csim_benchmark: %s\n%s\n", detail.c_str(),
                 usage);
    std::exit(2);
}

/** Decimal digits only, no overflow, within [lo, hi]. */
std::uint64_t
parseUint(const char *flag, const std::string &text, std::uint64_t lo,
          std::uint64_t hi)
{
    bool digits = !text.empty() && text.size() <= 20;
    for (char c : text)
        digits = digits && c >= '0' && c <= '9';
    if (!digits)
        usageError(std::string(flag) + ": '" + text +
                   "' is not a decimal integer");
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
    if (errno == ERANGE || v < lo || v > hi)
        usageError(std::string(flag) + ": '" + text + "' out of range");
    return v;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    bool traced = false;
    std::uint64_t seconds = 0;
    bool smoke = false;
    std::string tmpdir = ".";
    std::string spans;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usageError("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            a.workload = value;
        else if (flag == "--seed")
            a.seed = parseUint("--seed", value, 1, maxSeed);
        else if (flag == "--mode" && (value == "e2e" || value == "traced"))
            a.traced = value == "traced";
        else if (flag == "--seconds")
            a.seconds = parseUint("--seconds", value, 0, 3600);
        else if (flag == "--tmpdir")
            a.tmpdir = value;
        else if (flag == "--spans")
            a.spans = value;
        else
            usageError("bad argument " + flag + " " + value);
    }
    if (!isWorkload(a.workload))
        usageError("unknown workload '" + a.workload + "'");
    return a;
}

double
seconds(std::uint64_t from_ns, std::uint64_t to_ns)
{
    return static_cast<double>(to_ns - from_ns) / 1e9;
}

/** One untraced rep: what a user of the harness runs. */
RepOutcome
e2eRep(const Plan &plan, const std::string &tmpdir, CacheSample &cache_out)
{
    RepOutcome out;
    if (plan.isStore) {
        const StorePlan &s = plan.store;
        const std::string path = tmpdir + "/e2e_" +
            std::to_string(::getpid()) + ".trc2";
        {
            const std::uint64_t t0 = nowNs();
            WorkloadConfig wcfg;
            wcfg.targetInstructions = s.instructions;
            wcfg.seed = plan.seed;
            const TraceStoreBuildResult built =
                buildTraceStoreFile(s.proxy, wcfg, path);
            if (!built.ok || built.instructions != s.instructions)
                CSIM_FATAL_F("store build failed: %s", path.c_str());
            TraceSoA soa;
            const TraceIoStatus st = loadTraceStore(soa, path);
            if (st != TraceIoStatus::Ok)
                CSIM_FATAL_F("store load failed: %s",
                             traceIoStatusName(st));
            const std::uint64_t t1 = nowNs();
            out.cells.push_back(
                runRegionSampledCell(soa, s.machine, s.policy, s.cfg));
            const std::uint64_t t2 = nowNs();
            out.setupSeconds = seconds(t0, t1);
            out.simSeconds = seconds(t1, t2);
        }
        std::remove(path.c_str());
        return out;
    }

    TraceCache cache;
    const std::uint64_t t0 = nowNs();
    std::uint64_t held = 0;
    for (const auto &[proxy, seed] : plan.traces) {
        WorkloadConfig wcfg;
        wcfg.targetInstructions = plan.spec.cfg.instructions;
        wcfg.seed = seed;
        held += cache.get(proxy, wcfg)->size();
    }
    const std::uint64_t t1 = nowNs();
    SweepRunner runner(1, &cache);
    SweepOutcome outcome = runner.run(plan.spec);
    const std::uint64_t t2 = nowNs();
    out.setupSeconds = seconds(t0, t1);
    out.simSeconds = seconds(t1, t2);
    out.cells = std::move(outcome.results);
    cache_out.hitRatio = cache.requests()
        ? static_cast<double>(cache.hits()) /
            static_cast<double>(cache.requests())
        : 0.0;
    cache_out.bytesPerInst = held
        ? static_cast<double>(cache.bytesHeld()) / static_cast<double>(held)
        : 0.0;
    return out;
}

/**
 * What a rep leaves behind for the report: timings and per-cell
 * outcomes, without the full results (keeping those alive across
 * traced reps would grow peak RSS with the rep count).
 */
struct RepSummary
{
    double setupSeconds = 0.0;
    double simSeconds = 0.0;
    std::uint64_t instructions = 0;
    std::vector<std::uint64_t> cellInstructions;
    std::vector<std::uint64_t> cellCycles;
    std::vector<std::string> digests;
};

RepSummary
summarize(const RepOutcome &rep)
{
    RepSummary s;
    s.setupSeconds = rep.setupSeconds;
    s.simSeconds = rep.simSeconds;
    for (const AggregateResult &cell : rep.cells) {
        s.instructions += cell.instructions;
        s.cellInstructions.push_back(cell.instructions);
        s.cellCycles.push_back(cell.cycles);
        s.digests.push_back(cellDigest(cell));
    }
    return s;
}

void
printRep(const RepSummary &rep)
{
    std::printf("{\"setup_s\":%.9f,\"sim_s\":%.9f,\"wall_s\":%.9f,"
                "\"instructions\":%" PRIu64 ",\"digests\":[",
                rep.setupSeconds, rep.simSeconds,
                rep.setupSeconds + rep.simSeconds, rep.instructions);
    for (std::size_t i = 0; i < rep.digests.size(); ++i)
        std::printf("%s\"%s\"", i ? "," : "", rep.digests[i].c_str());
    std::printf("]}");
}

void
printReps(const std::vector<RepSummary> &reps)
{
    std::printf("[");
    for (std::size_t r = 0; r < reps.size(); ++r) {
        std::printf("%s", r ? "," : "");
        printRep(reps[r]);
    }
    std::printf("]");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Plan plan = makePlan(args.workload, args.seed, args.smoke);
    const std::vector<std::string> labels = plan.labels();
    // Announced before any work, so that a process that dies still
    // tells the runner how many cells it failed.
    std::printf("{\"planned_cells\":%zu}\n", labels.size());
    std::fflush(stdout);
    const std::uint64_t start = nowNs();
    CacheSample cache;
    const RepSummary rep = summarize(e2eRep(plan, args.tmpdir, cache));
    const std::uint64_t peakRss = sampleHostMemory().peakRssBytes;

    std::vector<RepSummary> tracedReps;
    std::optional<TracedRun> traced;
    if (args.traced) {
        traced.emplace(plan, args.tmpdir);
        // Another rep starts only if one as long as the last still fits
        // in the budget, so a run ends near --seconds instead of
        // overshooting by up to a rep.
        for (;;) {
            const std::uint64_t repStart = nowNs();
            tracedReps.push_back(summarize(traced->rep()));
            const std::uint64_t now = nowNs();
            if (seconds(start, now) + seconds(repStart, now) >
                static_cast<double>(args.seconds))
                break;
        }
        if (!args.spans.empty() && !traced->tracer().write(args.spans))
            CSIM_FATAL_F("cannot write spans to '%s'", args.spans.c_str());
    }

    std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"smoke\":%s,"
                "\"mode\":\"%s\",\"threads\":1,\"cells\":[",
                plan.name.c_str(), plan.seed, plan.smoke ? "true" : "false",
                args.traced ? "traced" : "e2e");
    for (std::size_t i = 0; i < labels.size(); ++i)
        std::printf("%s{\"label\":\"%s\",\"instructions\":%" PRIu64
                    ",\"cycles\":%" PRIu64 ",\"digest\":\"%s\"}",
                    i ? "," : "", labels[i].c_str(),
                    rep.cellInstructions[i], rep.cellCycles[i],
                    rep.digests[i].c_str());
    std::printf("],\"rep\":");
    printRep(rep);
    std::printf(",\"peak_rss_bytes\":%" PRIu64, peakRss);
    if (traced) {
        std::printf(",\"traced\":{\"reps\":");
        printReps(tracedReps);
        std::printf(",\"bare_mismatches\":%" PRIu64
                    ",\"jobs\":%zu,\"layers\":{",
                    traced->tally().bareMismatches,
                    traced->tally().jobMs.size());
        const auto layers =
            traced->metrics(rep.setupSeconds + rep.simSeconds, cache);
        for (std::size_t i = 0; i < layers.size(); ++i)
            std::printf("%s\"%s\":%.17g", i ? "," : "",
                        layers[i].first.c_str(), layers[i].second);
        std::printf("}}");
    }
    std::printf("}\n");
    return std::fflush(stdout) == 0 ? 0 : 1;
}
