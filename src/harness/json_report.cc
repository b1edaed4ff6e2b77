#include "harness/json_report.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/logging.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "harness/trace_cache.hh"
#include "obs/chrome_trace.hh"
#include "obs/flight_recorder.hh"
#include "obs/host_prof.hh"
#include "obs/run_ledger.hh"

namespace csim {

JsonWriter::JsonWriter(std::ostream &out)
    : out_(out)
{
}

void
JsonWriter::beforeValue()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return;
    }
    if (!hasElement_.empty()) {
        if (hasElement_.back())
            out_ << ',';
        hasElement_.back() = true;
    }
}

void
JsonWriter::writeEscaped(const std::string &s)
{
    out_ << '"';
    for (char c : s) {
        switch (c) {
          case '"': out_ << "\\\""; break;
          case '\\': out_ << "\\\\"; break;
          case '\n': out_ << "\\n"; break;
          case '\t': out_ << "\\t"; break;
          case '\r': out_ << "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out_ << buf;
            } else {
                out_ << c;
            }
        }
    }
    out_ << '"';
}

JsonWriter &
JsonWriter::beginObject()
{
    beforeValue();
    out_ << '{';
    hasElement_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    CSIM_ASSERT(!hasElement_.empty() && !pendingKey_);
    hasElement_.pop_back();
    out_ << '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beforeValue();
    out_ << '[';
    hasElement_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    CSIM_ASSERT(!hasElement_.empty() && !pendingKey_);
    hasElement_.pop_back();
    out_ << ']';
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    CSIM_ASSERT(!pendingKey_);
    if (!hasElement_.empty()) {
        if (hasElement_.back())
            out_ << ',';
        hasElement_.back() = true;
    }
    writeEscaped(name);
    out_ << ':';
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    beforeValue();
    writeEscaped(v);
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    beforeValue();
    if (!std::isfinite(v)) {
        out_ << "null";
        return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    out_ << buf;
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    beforeValue();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out_ << buf;
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    beforeValue();
    out_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    beforeValue();
    out_ << (v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    beforeValue();
    out_ << "null";
    return *this;
}

void
writeStatValue(JsonWriter &w, const StatValue &v)
{
    if (v.kind != StatKind::Distribution) {
        w.value(v.value);
        return;
    }
    w.beginObject();
    w.key("lo").value(v.lo);
    w.key("hi").value(v.hi);
    w.key("total").value(v.value);
    w.key("buckets").beginArray();
    for (std::uint64_t b : v.buckets)
        w.value(b);
    w.endArray();
    w.endObject();
}

void
writeSnapshot(JsonWriter &w, const StatsSnapshot &snap)
{
    w.beginObject();
    for (const auto &[name, val] : snap.entries()) {
        w.key(name);
        writeStatValue(w, val);
    }
    w.endObject();
}

namespace {

[[noreturn]] void
usage(const std::string &benchmark, const char *bad_arg)
{
    std::fprintf(stderr,
                 "usage: %s [--json <path>] [--instructions N] "
                 "[--seeds a,b,c] [--threads N] [--check]\n"
                 "       [--profile] [--profile-interval N] "
                 "[--trace-out <path>]\n"
                 "       [--ledger-out <path>] [--heartbeat-ms N] "
                 "[--stats-filter p1,p2]\n"
                 "       [--regions K --region-len N [--warmup N]]\n",
                 benchmark.c_str());
    if (bad_arg)
        CSIM_FATAL_F("%s: unknown or incomplete argument '%s'",
                     benchmark.c_str(), bad_arg);
    std::exit(0);
}

std::vector<std::uint64_t>
parseSeedList(const std::string &arg)
{
    std::vector<std::uint64_t> seeds;
    std::size_t pos = 0;
    while (pos <= arg.size()) {
        std::size_t comma = arg.find(',', pos);
        if (comma == std::string::npos)
            comma = arg.size();
        const std::uint64_t seed = parseDecimal(
            arg.substr(pos, comma - pos), "--seeds", 0, UINT64_MAX);
        // A repeated seed would run each cell's job for that seed
        // again and count it twice in the cell's aggregate.
        if (std::find(seeds.begin(), seeds.end(), seed) != seeds.end())
            CSIM_FATAL_F("bad --seeds '%s': seed %llu is listed twice",
                         arg.c_str(),
                         static_cast<unsigned long long>(seed));
        seeds.push_back(seed);
        pos = comma + 1;
    }
    return seeds;
}

/**
 * Fatal unless `path` can be created and written right now: an output
 * flag pointing into a missing or read-only directory must fail at
 * startup, not after the sweep has run for minutes (same strictness
 * contract as parseThreadCount). The probe opens in append mode so an
 * existing file's contents survive the check.
 */
void
validateWritablePath(const std::string &benchmark, const char *flag,
                     const std::string &path)
{
    std::ofstream probe(path, std::ios::app);
    if (!probe)
        CSIM_FATAL_F("%s: %s path '%s' is not writable",
                     benchmark.c_str(), flag, path.c_str());
}

std::vector<std::string>
parsePrefixList(const std::string &arg)
{
    std::vector<std::string> prefixes;
    std::size_t pos = 0;
    while (pos <= arg.size()) {
        std::size_t comma = arg.find(',', pos);
        if (comma == std::string::npos)
            comma = arg.size();
        const std::string tok = arg.substr(pos, comma - pos);
        if (!tok.empty())
            prefixes.push_back(tok);
        pos = comma + 1;
    }
    return prefixes;
}

} // anonymous namespace

BenchContext::BenchContext(std::string benchmark, int argc, char **argv)
    : benchmark_(std::move(benchmark)),
      start_(std::chrono::steady_clock::now())
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(benchmark_, arg.c_str());
            return argv[++i];
        };
        auto number = [&](std::uint64_t hi) {
            return parseDecimal(next(), arg.c_str(), 1, hi);
        };
        if (arg == "--json") {
            jsonPath_ = next();
        } else if (arg == "--instructions") {
            instructions_ = number(UINT64_MAX);
        } else if (arg == "--threads") {
            threadsArg_ = parseThreadCount(next(), "--threads");
        } else if (arg == "--seeds") {
            seeds_ = parseSeedList(next());
        } else if (arg == "--check") {
            check_ = true;
        } else if (arg == "--profile") {
            profile_ = true;
        } else if (arg == "--profile-interval") {
            profileInterval_ = number(UINT64_MAX);
            profile_ = true;
        } else if (arg == "--trace-out") {
            traceOutPath_ = next();
            profile_ = true;
        } else if (arg == "--ledger-out") {
            ledgerPath_ = next();
        } else if (arg == "--heartbeat-ms") {
            heartbeatMs_ = static_cast<unsigned>(number(3600u * 1000u));
        } else if (arg == "--stats-filter") {
            statsFilter_ = parsePrefixList(next());
        } else if (arg == "--regions") {
            regions_ = static_cast<unsigned>(number(1u << 20));
        } else if (arg == "--region-len") {
            regionLen_ = number(UINT64_MAX);
        } else if (arg == "--warmup") {
            warmup_ = number(UINT64_MAX);
        } else if (arg == "--help" || arg == "-h") {
            usage(benchmark_, nullptr);
        } else {
            usage(benchmark_, arg.c_str());
        }
    }
    if (statsFilter_.empty()) {
        if (const char *env = std::getenv("CSIM_STATS_FILTER"))
            statsFilter_ = parsePrefixList(env);
    }
    if (regions_ != 0 && regionLen_ == 0)
        CSIM_FATAL_F("%s: --regions requires --region-len",
                     benchmark_.c_str());
    // --warmup is each sampled region's warmup phase; a full run keeps
    // the paper's full training pass (ExperimentConfig::warmupRuns).
    if (warmup_ != 0 && regions_ == 0)
        CSIM_FATAL_F("%s: --warmup requires --regions",
                     benchmark_.c_str());

    // Strict env handling: a malformed CSIM_LOG is fatal, never a
    // silent fall-back to the default level.
    initLogLevelFromEnv();

    // Output paths must fail now, not after the sweep has run.
    cmdline_ = replayCommandLine(argc, argv);
    if (!traceOutPath_.empty())
        validateWritablePath(benchmark_, "--trace-out", traceOutPath_);
    if (!ledgerPath_.empty()) {
        validateWritablePath(benchmark_, "--ledger-out", ledgerPath_);
        ledger_ = std::make_unique<RunLedger>(
            ledgerPath_, benchmark_, collectProvenance(cmdline_));
        ledger_->startHeartbeat(heartbeatMs_);
        // Crashes dump the last ledger events, each worker's sim
        // context and the replay command to stderr and to a .crash
        // file CI uploads as an artifact.
        FlightRecorder::install(cmdline_, ledgerPath_ + ".crash");
    }
}

BenchContext::~BenchContext() = default;

unsigned
BenchContext::threads() const
{
    return threadsArg_ ? threadsArg_ : SweepRunner::defaultThreads();
}

TraceCache &
BenchContext::traceCache()
{
    if (!cache_)
        cache_ = std::make_unique<TraceCache>();
    return *cache_;
}

SweepRunner &
BenchContext::runner()
{
    if (!runner_) {
        runner_ =
            std::make_unique<SweepRunner>(threads(), &traceCache());
        runner_->setLedger(ledger_.get());
    }
    return *runner_;
}

void
BenchContext::apply(ExperimentConfig &cfg) const
{
    if (instructions_ != 0)
        cfg.instructions = instructions_;
    if (!seeds_.empty())
        cfg.seeds = seeds_;
    if (check_) {
        cfg.verify.checker = true;
        cfg.verify.oracle = true;
    }
    if (profile_) {
        cfg.profile.enabled = true;
        if (profileInterval_ != 0)
            cfg.profile.intervalCycles = profileInterval_;
    }
    if (regions_ != 0) {
        cfg.regions = regions_;
        cfg.regionLen = regionLen_;
        cfg.regionWarmup = warmup_;
    }
}

void
BenchContext::addGrid(const FigureGrid &grid)
{
    grids_.push_back(grid);
}

void
BenchContext::addRunStats(const std::string &label,
                          const StatsSnapshot &s,
                          const IntervalSeries &intervals,
                          const std::vector<PhaseResult> &phases)
{
    runs_.push_back(RunEntry{label, s, intervals, phases,
                             RunHostMetrics{}});
}

void
BenchContext::addSweepRuns(const SweepOutcome &outcome)
{
    for (std::size_t i = 0; i < outcome.cells.size(); ++i)
        addRunStats(outcome.cells[i].label(), outcome.results[i].stats,
                    outcome.results[i].intervals,
                    outcome.results[i].phases);
}

void
BenchContext::addRunHost(const std::string &label,
                         const RunHostMetrics &host)
{
    for (auto it = runs_.rbegin(); it != runs_.rend(); ++it) {
        if (it->label == label) {
            it->host = host;
            return;
        }
    }
    CSIM_FATAL_F("%s: addRunHost: no recorded run labelled '%s'",
                 benchmark_.c_str(), label.c_str());
}

void
BenchContext::addScalar(const std::string &name, double value)
{
    scalars_.emplace_back(name, value);
}

namespace {

/** Serialize one interval series as the run's "intervals" object. */
void
writeIntervalSeries(JsonWriter &w, const IntervalSeries &series)
{
    w.beginObject();
    w.key("intervalCycles").value(series.intervalCycles);
    w.key("clusterIssueWidth")
        .value(std::uint64_t{series.clusterIssueWidth});
    w.key("windowPerCluster")
        .value(std::uint64_t{series.windowPerCluster});
    w.key("mergeCount").value(series.mergeCount);
    w.key("series").beginArray();
    for (const IntervalRecord &rec : series.records) {
        w.beginObject();
        w.key("start").value(rec.startCycle);
        w.key("cycles").value(rec.cycles);
        w.key("cpiStack").beginObject();
        for (std::size_t i = 0; i < numCpiComponents; ++i) {
            w.key(cpiComponentName(static_cast<CpiComponent>(i)))
                .value(rec.components[i]);
        }
        w.endObject();
        w.key("commits").value(rec.commits);
        w.key("steers").value(rec.steers);
        w.key("issued").value(rec.issued);
        w.key("predictedCriticalSteers")
            .value(rec.predictedCriticalSteers);
        w.key("locLevelSum").value(rec.locLevelSum);
        w.key("deniedIssue").value(rec.deniedIssue);
        w.key("deniedCritical").value(rec.deniedCritical);
        w.key("fetchStallCycles").value(rec.fetchStallCycles);
        w.key("clusters").beginArray();
        for (const IntervalClusterLane &lane : rec.clusters) {
            w.beginObject();
            w.key("steered").value(lane.steered);
            w.key("issued").value(lane.issued);
            w.key("occupancySum").value(lane.occupancySum);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

/** Millions of instructions per wall second (0 when unknown). */
double
mipsOf(std::uint64_t instructions, double wall_seconds)
{
    return instructions && wall_seconds > 0.0
        ? static_cast<double>(instructions) / wall_seconds / 1e6
        : 0.0;
}

/** Serialize one merged timer-tree node, recursively. */
void
writeTimerNode(JsonWriter &w, const HostProfNode &node)
{
    w.beginObject();
    w.key("name").value(node.name);
    w.key("calls").value(node.calls);
    w.key("ns").value(node.ns);
    w.key("instructions").value(node.instructions);
    w.key("mips").value(node.mips());
    w.key("children").beginArray();
    for (const HostProfNode &child : node.children)
        writeTimerNode(w, child);
    w.endArray();
    w.endObject();
}

/** Serialize one run's merged phase outcomes (compact: spans + CPI;
 *  the run's "stats" object already carries the measured registry). */
void
writePhases(JsonWriter &w, const std::vector<PhaseResult> &phases)
{
    w.beginArray();
    for (const PhaseResult &phase : phases) {
        w.beginObject();
        w.key("name").value(phase.name);
        w.key("isWarmup").value(phase.isWarmup);
        w.key("instructions").value(phase.instructions);
        w.key("cycles").value(phase.cycles);
        w.key("cpi").value(phase.instructions
                               ? static_cast<double>(phase.cycles) /
                                     static_cast<double>(
                                         phase.instructions)
                               : 0.0);
        w.endObject();
    }
    w.endArray();
}

/**
 * Simulated instructions attributed to measured work only. The timer
 * tree also credits instructions to warmup passes (under
 * "harness.warmup") and to the trace-build pipelines ("trace.*" /
 * "traceCache.*"); dividing the bench wall time into the undiscounted
 * total overstated the top-level MIPS by more than 2x on warmed
 * benches, so those subtrees are pruned here.
 */
std::uint64_t
measuredInstructions(const HostProfNode &node)
{
    if (node.name == "harness.warmup" ||
        node.name.rfind("trace.", 0) == 0 ||
        node.name.rfind("traceCache.", 0) == 0)
        return 0;
    std::uint64_t sum = node.instructions;
    for (const HostProfNode &child : node.children)
        sum += measuredInstructions(child);
    return sum;
}

/** Serialize one run's host-cost block (see RunHostMetrics). */
void
writeRunHost(JsonWriter &w, const RunHostMetrics &host)
{
    w.beginObject();
    w.key("wallSeconds").value(host.wallSeconds);
    w.key("instructions").value(host.instructions);
    w.key("hostMips").value(mipsOf(host.instructions,
                                   host.wallSeconds));
    w.key("peakRssBytes").value(host.peakRssBytes);
    w.endObject();
}

} // anonymous namespace

int
BenchContext::finish()
{
    if (!traceOutPath_.empty()) {
        std::vector<ChromeTraceRun> trace_runs;
        for (const RunEntry &run : runs_) {
            if (!run.intervals.empty())
                trace_runs.push_back(
                    ChromeTraceRun{run.label, run.intervals});
        }
        writeChromeTraceFile(traceOutPath_, trace_runs);
        std::fprintf(stderr, "wrote %s\n", traceOutPath_.c_str());
    }

    // Close out the ledger stream: trace content identity, the bench
    // footer, and the end of heartbeats. The RunLedger itself stays
    // alive (the report's provenance block reuses it conceptually, and
    // late panics still flight-record).
    if (ledger_) {
        if (cache_)
            ledger_->traceHashes(cache_->contentHashes());
        ledger_->benchEnd(
            grids_.size(), runs_.size(), scalars_.size(),
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count());
        ledger_->stopHeartbeat();
    }

    if (jsonPath_.empty())
        return 0;

    std::ofstream out(jsonPath_);
    if (!out)
        CSIM_FATAL_F("%s: cannot open --json path '%s'",
                     benchmark_.c_str(), jsonPath_.c_str());

    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();

    JsonWriter w(out);
    w.beginObject();
    w.key("schemaVersion").value(7);
    w.key("benchmark").value(benchmark_);
    w.key("threads").value(std::uint64_t{threads()});
    w.key("wallSeconds").value(wall);

    // Provenance manifest (v7): same content as the ledger head. Only
    // "cmdline" and "env" are invocation-specific; everything else —
    // including "traceHashes" — is part of the deterministic region,
    // so the cross-thread determinism checks verify that both runs
    // simulated identically-hashed traces from the same build.
    {
        const Provenance prov = collectProvenance(cmdline_);
        w.key("provenance").beginObject();
        w.key("gitSha").value(prov.gitSha);
        w.key("buildType").value(prov.buildType);
        w.key("buildFlags").value(prov.buildFlags);
        w.key("hostProf").value(prov.hostProf);
        w.key("cmdline").value(prov.cmdline);
        w.key("env").beginObject();
        for (const auto &[name, v] : prov.env)
            w.key(name).value(v);
        w.endObject();
        w.key("traceHashes").beginObject();
        if (cache_)
            for (const auto &[key, hash] : cache_->contentHashes())
                w.key(key).value(hash);
        w.endObject();
        w.endObject();
    }

    w.key("grids").beginArray();
    for (const FigureGrid &g : grids_)
        g.toJson(w);
    w.endArray();

    w.key("scalars").beginObject();
    for (const auto &[name, v] : scalars_)
        w.key(name).value(v);
    w.endObject();

    w.key("runs").beginArray();
    for (const RunEntry &run : runs_) {
        w.beginObject();
        w.key("label").value(run.label);
        w.key("stats");
        writeSnapshot(w, run.stats.filtered(statsFilter_));
        if (!run.phases.empty()) {
            w.key("phases");
            writePhases(w, run.phases);
        }
        if (!run.intervals.empty()) {
            w.key("intervals");
            writeIntervalSeries(w, run.intervals);
        }
        if (run.host.wallSeconds > 0.0) {
            w.key("host");
            writeRunHost(w, run.host);
        }
        w.endObject();
    }
    // Cache activity counts are thread-count invariant (concurrent
    // requesters of an in-flight build count as hits), so this entry
    // is part of the byte-identical region of the report. The stats
    // filter applies here too; a fully filtered entry is omitted.
    if (cache_) {
        const StatsSnapshot cache_stats =
            cache_->statsSnapshot().filtered(statsFilter_);
        if (!cache_stats.empty()) {
            w.beginObject();
            w.key("label").value("traceCache");
            w.key("stats");
            writeSnapshot(w, cache_stats);
            w.endObject();
        }
    }
    w.endArray();

    // Process-wide host observability: nondeterministic wall times and
    // memory, so everything under "host" sits outside the report's
    // byte-identical region (validators and determinism checks strip
    // it). Absent when host profiling is compiled out or disabled.
    if (HostProf::compiledIn() && HostProf::enabled()) {
        const HostProfNode tree = HostProf::snapshot();
        const HostMemoryStats mem = sampleHostMemory();
        const std::uint64_t measured = measuredInstructions(tree);
        w.key("host").beginObject();
        w.key("wallSeconds").value(wall);
        w.key("hostMips").value(mipsOf(measured, wall));
        w.key("measuredInstructions").value(measured);
        w.key("peakRssBytes").value(mem.peakRssBytes);
        w.key("currentRssBytes").value(mem.currentRssBytes);
        w.key("heapBytes").value(mem.heapBytes);
        w.key("heapHighWaterBytes").value(mem.heapHighWaterBytes);
        w.key("timerTree");
        writeTimerNode(w, tree);
        if (cache_) {
            w.key("traceCache");
            writeSnapshot(w, cache_->timeSnapshot());
        }
        w.endObject();
    }

    w.endObject();
    out << '\n';
    out.close();
    if (!out)
        CSIM_FATAL_F("%s: failed writing '%s'", benchmark_.c_str(),
                     jsonPath_.c_str());
    std::fprintf(stderr, "wrote %s\n", jsonPath_.c_str());
    return 0;
}

} // namespace csim
