/**
 * @file
 * Run-ledger and crash-flight-recorder tests: NDJSON envelope
 * structure, the cross-thread payload determinism contract, heartbeat
 * wall-only events, provenance digests, replay-command quoting, ring
 * wrap/recycling, and the crash paths (panic hook + dump content)
 * via death tests. BenchContext's --ledger-out / --trace-out startup
 * path validation is covered here too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "core/machine_config.hh"
#include "harness/experiment.hh"
#include "harness/json_report.hh"
#include "harness/sweep.hh"
#include "obs/flight_recorder.hh"
#include "obs/run_ledger.hh"

namespace csim {
namespace {

std::string
tempPath(const std::string &tag)
{
    return std::string(::testing::TempDir()) + "/csim_ledger_" + tag +
        "_" + std::to_string(::getpid());
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

std::string
fieldOf(const std::string &line, const std::string &marker)
{
    const std::size_t at = line.find(marker);
    EXPECT_NE(at, std::string::npos) << line;
    if (at == std::string::npos)
        return "";
    return line.substr(at + marker.size());
}

/** The payload object's exact bytes (it is the envelope's last
 *  field). */
std::string
payloadOf(const std::string &line)
{
    std::string tail = fieldOf(line, "\"payload\":");
    EXPECT_FALSE(tail.empty());
    if (!tail.empty())
        tail.pop_back(); // envelope's closing brace
    return tail;
}

std::string
kindOf(const std::string &line)
{
    const std::string tail = fieldOf(line, "\"kind\":\"");
    return tail.substr(0, tail.find('"'));
}

Provenance
testProvenance()
{
    Provenance prov;
    prov.gitSha = "cafef00dcafe";
    prov.buildType = "Test";
    prov.buildFlags = "-O2";
    prov.cmdline = "test_ledger --fake";
    return prov;
}

ExperimentConfig
smallConfig()
{
    ExperimentConfig cfg;
    cfg.instructions = 3000;
    cfg.seeds = {1, 2};
    return cfg;
}

SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.cfg = smallConfig();
    spec.addTiming("gzip", MachineConfig::clustered(2),
                   PolicyKind::Focused);
    spec.addTiming("gzip", MachineConfig::clustered(4),
                   PolicyKind::ModN);
    return spec;
}

// ---------------------------------------------------------------- //
// RunLedger structure

TEST(RunLedger, HeadEnvelopeAndSequencing)
{
    const std::string path = tempPath("head");
    {
        RunLedger ledger(path, "test_bench", testProvenance());
        ledger.jobBegin(0, "gzip/2x4w/focused", 1, "0123456789abcdef");
        ledger.jobEnd(0, "gzip/2x4w/focused", 1, 1000, 2000,
                      "fedcba9876543210");
    }
    const std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(kindOf(lines[0]), "head");
    EXPECT_NE(lines[0].find("\"gitSha\":\"cafef00dcafe\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"benchmark\":\"test_bench\""),
              std::string::npos);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string prefix =
            "{\"ledger\":1,\"seq\":" + std::to_string(i) + ",";
        EXPECT_EQ(lines[i].substr(0, prefix.size()), prefix);
        // Every event carries a wall offset and a payload object.
        EXPECT_NE(lines[i].find("\"wall\":{\"tMs\":"),
                  std::string::npos);
        EXPECT_NE(lines[i].find("\"payload\":{"), std::string::npos);
    }
    EXPECT_NE(lines[2].find("\"cpi\":2"), std::string::npos);
    std::remove(path.c_str());
}

TEST(RunLedgerDeathTest, UnwritablePathIsFatalAtConstruction)
{
    EXPECT_DEATH(
        RunLedger("/nonexistent_dir_for_csim_test/x.ndjson", "bench",
                  testProvenance()),
        "--ledger-out");
}

TEST(RunLedger, HeartbeatsAreWallOnly)
{
    const std::string path = tempPath("beat");
    {
        RunLedger ledger(path, "test_bench", testProvenance());
        ledger.progress().jobsTotal.store(10);
        ledger.progress().jobsDone.store(4);
        ledger.progress().instructionsDone.store(123456);
        ledger.startHeartbeat(5);
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
        ledger.stopHeartbeat();
    }
    std::size_t beats = 0;
    for (const std::string &line : readLines(path)) {
        if (kindOf(line) != "heartbeat")
            continue;
        ++beats;
        // The payload must be empty: heartbeats are wall-clock-only
        // and excluded from the determinism contract.
        EXPECT_EQ(payloadOf(line), "{}") << line;
        EXPECT_NE(line.find("\"jobsDone\":4"), std::string::npos);
        EXPECT_NE(line.find("\"jobsTotal\":10"), std::string::npos);
        EXPECT_NE(line.find("\"instructions\":123456"),
                  std::string::npos);
        EXPECT_NE(line.find("\"etaSeconds\":"), std::string::npos);
        EXPECT_NE(line.find("\"rssBytes\":"), std::string::npos);
    }
    EXPECT_GE(beats, 2u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------- //
// Determinism contract across sweep thread counts

/** (ordered, concurrent) payload views, mirroring check_ledger.py:
 *  single-thread-emitted kinds keep file order, worker-emitted kinds
 *  (jobBegin/jobEnd) are compared as a sorted multiset, heartbeats
 *  are ignored. */
std::pair<std::vector<std::string>, std::vector<std::string>>
deterministicView(const std::string &path)
{
    std::vector<std::string> ordered, concurrent;
    for (const std::string &line : readLines(path)) {
        const std::string kind = kindOf(line);
        if (kind == "heartbeat")
            continue;
        if (kind == "jobBegin" || kind == "jobEnd")
            concurrent.push_back(payloadOf(line));
        else
            ordered.push_back(payloadOf(line));
    }
    std::sort(concurrent.begin(), concurrent.end());
    return {ordered, concurrent};
}

TEST(RunLedger, PayloadsByteIdenticalAcrossThreadCounts)
{
    const std::string path1 = tempPath("t1");
    const std::string path4 = tempPath("t4");
    for (const auto &[path, threads] :
         {std::pair<std::string, unsigned>{path1, 1u}, {path4, 4u}}) {
        RunLedger ledger(path, "test_bench", testProvenance());
        SweepRunner runner(threads);
        runner.setLedger(&ledger);
        runner.run(smallSpec());
    }
    const auto [ordered1, concurrent1] = deterministicView(path1);
    const auto [ordered4, concurrent4] = deterministicView(path4);
    EXPECT_FALSE(ordered1.empty());
    // jobBegin + jobEnd for every (cell, seed) unit.
    EXPECT_EQ(concurrent1.size(), 2u * smallSpec().cells.size() *
                                      smallConfig().seeds.size());
    EXPECT_EQ(ordered1, ordered4);
    EXPECT_EQ(concurrent1, concurrent4);
    std::remove(path1.c_str());
    std::remove(path4.c_str());
}

// ---------------------------------------------------------------- //
// Digests and replay quoting

TEST(RunLedger, StatsDigestCommitsToEveryStat)
{
    StatsRegistry reg;
    Counter &a = reg.addCounter("a", "");
    reg.addCounter("b", "");
    const std::string before = statsDigest(reg.snapshot());
    EXPECT_EQ(before.size(), 16u);
    EXPECT_EQ(before, statsDigest(reg.snapshot())); // stable
    a += 1;
    EXPECT_NE(before, statsDigest(reg.snapshot()));
}

TEST(RunLedger, ConfigDigestTracksEveryKnob)
{
    const ExperimentConfig cfg = smallConfig();
    const std::string base = configDigest(cfg);
    EXPECT_EQ(base.size(), 16u);
    EXPECT_EQ(base, configDigest(cfg));

    // One change per deterministic field; every digest must differ
    // from the base and from every other change's.
    using Knob = std::pair<const char *,
                           std::function<void(ExperimentConfig &)>>;
    const std::vector<Knob> knobs = {
        {"instructions", [](ExperimentConfig &c) { c.instructions += 1; }},
        {"seeds", [](ExperimentConfig &c) { c.seeds.push_back(9); }},
        {"warmupRuns", [](ExperimentConfig &c) { c.warmupRuns += 1; }},
        {"trainChunk", [](ExperimentConfig &c) { c.trainChunk += 1; }},
        {"stallThreshold",
         [](ExperimentConfig &c) { c.stallThreshold += 0.05; }},
        {"locLevels", [](ExperimentConfig &c) { c.locLevels = 8; }},
        {"collectIlp",
         [](ExperimentConfig &c) { c.simOptions.collectIlp = true; }},
        {"legacyStep",
         [](ExperimentConfig &c) { c.simOptions.legacyStep = true; }},
        {"ilpMaxAvailable",
         [](ExperimentConfig &c) { c.simOptions.ilpMaxAvailable += 1; }},
        {"maxCpi", [](ExperimentConfig &c) { c.simOptions.maxCpi += 1; }},
        {"phases",
         [](ExperimentConfig &c) {
             c.simOptions.phases = {{"warmup", 100, true},
                                    {"measure", 0, false}};
         }},
        {"checker", [](ExperimentConfig &c) { c.verify.checker = true; }},
        {"oracle", [](ExperimentConfig &c) { c.verify.oracle = true; }},
        {"oracleRelTol",
         [](ExperimentConfig &c) { c.verify.oracleRelTol += 0.01; }},
        {"panicOnViolation",
         [](ExperimentConfig &c) { c.verify.panicOnViolation = false; }},
        {"profile", [](ExperimentConfig &c) { c.profile.enabled = true; }},
        {"intervalCycles",
         [](ExperimentConfig &c) { c.profile.intervalCycles += 1; }},
        {"scoreCriticality",
         [](ExperimentConfig &c) { c.profile.scoreCriticality = false; }},
        {"regions", [](ExperimentConfig &c) { c.regions = 4; }},
        {"regionLen", [](ExperimentConfig &c) { c.regionLen = 100; }},
        {"regionWarmup", [](ExperimentConfig &c) { c.regionWarmup = 50; }},
    };
    std::set<std::string> seen = {base};
    for (const auto &[name, change] : knobs) {
        SCOPED_TRACE(name);
        ExperimentConfig other = cfg;
        change(other);
        EXPECT_TRUE(seen.insert(configDigest(other)).second);
    }
}

TEST(RunLedger, ReplayCommandQuoting)
{
    const char *argv[] = {"bench", "--seeds", "1,2", "a b",
                          "don't", "--json=/tmp/x.json"};
    EXPECT_EQ(replayCommandLine(6, const_cast<char **>(argv)),
              "bench --seeds 1,2 'a b' 'don'\\''t' "
              "--json=/tmp/x.json");
}

TEST(RunLedger, CollectProvenanceCapturesEnvOverrides)
{
    ::unsetenv("CSIM_LOG");
    Provenance prov = collectProvenance("cmd");
    for (const auto &[name, value] : prov.env)
        EXPECT_NE(name, "CSIM_LOG");
    ::setenv("CSIM_LOG", "debug", 1);
    prov = collectProvenance("cmd");
    bool found = false;
    for (const auto &[name, value] : prov.env)
        if (name == "CSIM_LOG") {
            found = true;
            EXPECT_EQ(value, "debug");
        }
    EXPECT_TRUE(found);
    ::unsetenv("CSIM_LOG");
    EXPECT_EQ(prov.cmdline, "cmd");
    EXPECT_FALSE(prov.gitSha.empty());
}

// ---------------------------------------------------------------- //
// Flight recorder

class FlightRecorderTest : public ::testing::Test
{
  protected:
    void SetUp() override { FlightRecorder::reset(); }
    void TearDown() override { FlightRecorder::reset(); }
};

TEST_F(FlightRecorderTest, DumpContainsRingContextAndReplay)
{
    FlightRecorder::install("bench_xyz --seeds 1,2");
    FlightRecorder::note("event-alpha");
    FlightRecorder::note("event-beta");
    FlightRecorder::setContext("cell=gzip/2x4w seed=1");
    const std::string dump = FlightRecorder::dumpToString("test");
    EXPECT_NE(dump.find("flight recorder dump (reason: test)"),
              std::string::npos);
    EXPECT_NE(dump.find("replay: bench_xyz --seeds 1,2"),
              std::string::npos);
    EXPECT_NE(dump.find("event-alpha"), std::string::npos);
    EXPECT_NE(dump.find("event-beta"), std::string::npos);
    EXPECT_NE(dump.find("context: cell=gzip/2x4w seed=1"),
              std::string::npos);
    EXPECT_NE(dump.find("[-1] event-beta"), std::string::npos);
    EXPECT_NE(dump.find("[-2] event-alpha"), std::string::npos);
}

TEST_F(FlightRecorderTest, LongReplayCommandIsNotCut)
{
    // Longer than one rendered dump line: the command must still come
    // out whole and newline-terminated, not run into the next line.
    std::string cmd = "bench_xyz --seeds 1,2";
    while (cmd.size() < 640)
        cmd += " --stats-filter core.";
    FlightRecorder::install(cmd);
    FlightRecorder::setContext("next-line");
    const std::string dump = FlightRecorder::dumpToString("long");
    EXPECT_NE(dump.find("\nreplay: " + cmd + "\nthread "),
              std::string::npos);
}

TEST_F(FlightRecorderTest, RingKeepsOnlyLastEntries)
{
    FlightRecorder::install("cmd");
    const std::size_t total = FlightRecorder::ringEntries + 5;
    for (std::size_t i = 0; i < total; ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "entry-%03zu", i);
        FlightRecorder::note(buf);
    }
    const std::string dump = FlightRecorder::dumpToString("wrap");
    EXPECT_EQ(dump.find("entry-000"), std::string::npos);
    EXPECT_EQ(dump.find("entry-004"), std::string::npos);
    char first_kept[64], last[64];
    std::snprintf(first_kept, sizeof(first_kept), "entry-%03zu",
                  total - FlightRecorder::ringEntries);
    std::snprintf(last, sizeof(last), "entry-%03zu", total - 1);
    EXPECT_NE(dump.find(first_kept), std::string::npos);
    EXPECT_NE(dump.find(last), std::string::npos);
}

TEST_F(FlightRecorderTest, NotInstalledRecordsNothing)
{
    FlightRecorder::note("should-not-appear");
    FlightRecorder::install("cmd");
    const std::string dump = FlightRecorder::dumpToString("empty");
    EXPECT_EQ(dump.find("should-not-appear"), std::string::npos);
}

TEST_F(FlightRecorderTest, WorkerThreadRingsRecycle)
{
    FlightRecorder::install("cmd");
    // More sequential threads than ring slots: each releases its slot
    // on exit, so every one must get a live ring.
    for (std::size_t i = 0; i < FlightRecorder::maxThreads + 8; ++i) {
        std::thread([] {
            FlightRecorder::note("worker-event");
            FlightRecorder::setContext("worker-context");
        }).join();
    }
    // After all threads exited, their rings are cleared and released.
    const std::string dump = FlightRecorder::dumpToString("recycled");
    EXPECT_EQ(dump.find("worker-event"), std::string::npos);
}

// EXPECT_DEATH matches with POSIX EREs in which '.' need not match
// newlines, so each property of the multi-line dump gets its own
// death test.
TEST_F(FlightRecorderTest, PanicDumpAnnouncesReason)
{
    FlightRecorder::install("replay-me --flag");
    FlightRecorder::note("last-event-before-death");
    EXPECT_DEATH(CSIM_PANIC("induced for test"),
                 "flight recorder dump");
}

TEST_F(FlightRecorderTest, PanicDumpCarriesReplayCommand)
{
    FlightRecorder::install("replay-me --flag");
    EXPECT_DEATH(CSIM_PANIC("induced for test"),
                 "replay: replay-me --flag");
}

TEST_F(FlightRecorderTest, PanicDumpCarriesRingEvents)
{
    FlightRecorder::install("replay-me --flag");
    FlightRecorder::note("last-event-before-death");
    EXPECT_DEATH(CSIM_PANIC("induced for test"),
                 "last-event-before-death");
}

TEST_F(FlightRecorderTest, FatalDumpsToo)
{
    FlightRecorder::install("replay-me");
    EXPECT_DEATH(CSIM_FATAL("bad config for test"),
                 "flight recorder dump");
}

TEST_F(FlightRecorderTest, DumpFileWrittenOnDeath)
{
    const std::string dump_path = tempPath("crashdump");
    std::remove(dump_path.c_str());
    FlightRecorder::install("replay-me --here", dump_path);
    FlightRecorder::note("persisted-event");
    // The death-test child writes the dump file; the parent reads it.
    EXPECT_DEATH(CSIM_PANIC("induced"), "flight recorder");
    std::ifstream in(dump_path);
    ASSERT_TRUE(static_cast<bool>(in)) << dump_path;
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("replay: replay-me --here"),
              std::string::npos);
    EXPECT_NE(content.find("persisted-event"), std::string::npos);
    std::remove(dump_path.c_str());
}

// ---------------------------------------------------------------- //
// BenchContext wiring

TEST(BenchContextLedgerDeathTest, UnwritableLedgerPathIsFatal)
{
    const char *argv[] = {"bench", "--ledger-out",
                          "/nonexistent_dir_for_csim_test/l.ndjson"};
    EXPECT_DEATH(BenchContext("bench", 3, const_cast<char **>(argv)),
                 "--ledger-out path "
                 "'/nonexistent_dir_for_csim_test/l.ndjson' is not "
                 "writable");
}

TEST(BenchContextLedgerDeathTest, UnwritableTraceOutPathIsFatal)
{
    const char *argv[] = {"bench", "--trace-out",
                          "/nonexistent_dir_for_csim_test/t.json"};
    EXPECT_DEATH(BenchContext("bench", 3, const_cast<char **>(argv)),
                 "--trace-out path "
                 "'/nonexistent_dir_for_csim_test/t.json' is not "
                 "writable");
}

TEST(BenchContextLedgerDeathTest, BadHeartbeatPeriodIsFatal)
{
    const char *argv[] = {"bench", "--heartbeat-ms", "fast"};
    EXPECT_DEATH(BenchContext("bench", 3, const_cast<char **>(argv)),
                 "bad --heartbeat-ms 'fast'");
    const char *argv0[] = {"bench", "--heartbeat-ms", "0"};
    EXPECT_DEATH(BenchContext("bench", 3, const_cast<char **>(argv0)),
                 "bad --heartbeat-ms '0'");
}

TEST(BenchContextLedgerDeathTest, WarmupWithoutRegionsIsFatal)
{
    // --warmup is a sampled region's warmup phase; a full run keeps
    // the full training pass, so the flag alone must not be ignored.
    const char *argv[] = {"bench", "--warmup", "5000"};
    EXPECT_DEATH(BenchContext("bench", 3, const_cast<char **>(argv)),
                 "--warmup requires --regions");
    const char *argv_len[] = {"bench", "--warmup", "5000",
                              "--region-len", "2000"};
    EXPECT_DEATH(
        BenchContext("bench", 5, const_cast<char **>(argv_len)),
        "--warmup requires --regions");
}

TEST(BenchContextLedgerDeathTest, RepeatedSeedIsFatal)
{
    // A seed listed twice would run each cell's job for it twice and
    // count it twice in the aggregate; startup names the repeat.
    const char *argv[] = {"bench", "--seeds", "1,1"};
    EXPECT_DEATH(BenchContext("bench", 3, const_cast<char **>(argv)),
                 "bad --seeds '1,1': seed 1 is listed twice");
    const char *argv_far[] = {"bench", "--seeds", "3,7,5,7"};
    EXPECT_DEATH(
        BenchContext("bench", 3, const_cast<char **>(argv_far)),
        "seed 7 is listed twice");
}

TEST(BenchContextLedgerDeathTest, SignedPaddedOrOverflowingNumberIsFatal)
{
    // strtoull would negate "-1" into 2^64-1, skip the blank of " 5"
    // and saturate 2^64: every numeric flag must reject all four.
    const char *flags[] = {"--instructions", "--seeds",
                           "--profile-interval", "--region-len",
                           "--warmup", "--heartbeat-ms", "--regions"};
    const char *values[] = {"-1", "+1", " 5", "18446744073709551616"};
    for (const char *flag : flags) {
        for (const char *value : values) {
            SCOPED_TRACE(std::string(flag) + " '" + value + "'");
            const char *argv[] = {"bench", flag, value};
            EXPECT_DEATH(
                BenchContext("bench", 3, const_cast<char **>(argv)),
                std::string("bad ") + flag);
        }
    }
}

TEST(BenchContextLedgerDeathTest, RemovedAdaptiveFlagsAreFatal)
{
    // Flags of the deleted adaptive steering manager fail loudly
    // rather than parse into a silently static run.
    const char *argv[] = {"bench", "--adaptive"};
    EXPECT_DEATH(BenchContext("bench", 2, const_cast<char **>(argv)),
                 "unknown or incomplete argument '--adaptive'");
    const char *argv_interval[] = {"bench", "--adaptive-interval",
                                   "1000"};
    EXPECT_DEATH(
        BenchContext("bench", 3, const_cast<char **>(argv_interval)),
        "unknown or incomplete argument '--adaptive-interval'");
}

TEST(BenchContextLedger, NumericFlagsAcceptTheirRange)
{
    const char *argv[] = {"bench", "--seeds", "0,18446744073709551615",
                          "--instructions", "4000", "--regions", "4",
                          "--region-len", "2000", "--warmup", "500"};
    BenchContext ctx("bench", 11, const_cast<char **>(argv));
    ExperimentConfig cfg;
    ctx.apply(cfg);
    EXPECT_EQ(cfg.instructions, 4000u);
    EXPECT_EQ(cfg.seeds,
              (std::vector<std::uint64_t>{0, UINT64_MAX}));
    EXPECT_EQ(cfg.regions, 4u);
    EXPECT_EQ(cfg.regionLen, 2000u);
    // --warmup is each region's warmup; the full run's phases stay off.
    EXPECT_EQ(cfg.regionWarmup, 500u);
    EXPECT_TRUE(cfg.simOptions.phases.empty());
}

TEST(BenchContextLedger, EndToEndLedgerAndProvenance)
{
    const std::string ledger_path = tempPath("bench");
    const std::string json_path = tempPath("bench_json");
    {
        const std::string threads = "2";
        const char *argv[] = {"test_ledger_bench",
                              "--ledger-out", ledger_path.c_str(),
                              "--json", json_path.c_str(),
                              "--threads", threads.c_str()};
        BenchContext ctx("test_ledger_bench", 7,
                         const_cast<char **>(argv));
        ASSERT_NE(ctx.ledger(), nullptr);
        EXPECT_TRUE(FlightRecorder::installed());
        SweepSpec spec = smallSpec();
        ctx.apply(spec.cfg);
        const SweepOutcome outcome = ctx.runner().run(spec);
        ctx.addSweepRuns(outcome);
        EXPECT_EQ(ctx.finish(), 0);
    }
    FlightRecorder::reset();

    const std::vector<std::string> lines = readLines(ledger_path);
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(kindOf(lines.front()), "head");
    std::size_t traces = 0, bench_end = 0, cell_end = 0;
    for (const std::string &line : lines) {
        const std::string kind = kindOf(line);
        traces += kind == "traces";
        bench_end += kind == "benchEnd";
        cell_end += kind == "cellEnd";
    }
    EXPECT_EQ(traces, 1u);
    EXPECT_EQ(bench_end, 1u);
    EXPECT_EQ(cell_end, smallSpec().cells.size());

    std::ifstream in(json_path);
    std::string report((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    EXPECT_NE(report.find("\"schemaVersion\":7"), std::string::npos);
    EXPECT_NE(report.find("\"provenance\":{"), std::string::npos);
    EXPECT_NE(report.find("\"traceHashes\":{"), std::string::npos);
    EXPECT_NE(report.find("\"cmdline\":"), std::string::npos);
    std::remove(ledger_path.c_str());
    std::remove(json_path.c_str());
}

} // namespace
} // namespace csim
