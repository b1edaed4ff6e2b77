/**
 * @file
 * Tests for the columnar v2 trace store: round-trip fidelity,
 * streaming-writer equivalence, the pipelined streaming build (every
 * proxy and chunk size, writer failures, peak memory of a chunk ring
 * rather than the trace), the simulation-only build
 * that shares its chunk loop (across the one-chunk threshold, inside
 * sweep workers, refused by the store and the build passes), region
 * extraction, the column-view simulation path, phased runs,
 * region-sampling determinism and residency, and hostile files (bad
 * headers, bad producer links).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "core/timing_sim.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "obs/host_prof.hh"
#include "obs/run_ledger.hh"
#include "policy/scheduling.hh"
#include "policy/steering.hh"
#include "trace/trace_soa.hh"
#include "trace/trace_store.hh"
#include "workloads/registry.hh"

namespace csim {
namespace {

std::string
tempPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "/csim_" + tag +
        ".trc2";
}

Trace
smallTrace(const char *workload = "bzip2",
           std::uint64_t instructions = 4000, std::uint64_t seed = 5)
{
    WorkloadConfig cfg;
    cfg.targetInstructions = instructions;
    cfg.seed = seed;
    return buildAnnotatedTrace(workload, cfg);
}

void
expectRecordsEqual(const TraceRecord &a, const TraceRecord &b)
{
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.cls, b.cls);
    EXPECT_EQ(a.dest, b.dest);
    EXPECT_EQ(a.src1, b.src1);
    EXPECT_EQ(a.src2, b.src2);
    EXPECT_EQ(a.memAddr, b.memAddr);
    EXPECT_EQ(a.execLat, b.execLat);
    EXPECT_EQ(a.prod, b.prod);
    EXPECT_EQ(a.isBranch, b.isBranch);
    EXPECT_EQ(a.isCondBranch, b.isCondBranch);
    EXPECT_EQ(a.taken, b.taken);
    EXPECT_EQ(a.mispredicted, b.mispredicted);
    EXPECT_EQ(a.l1Miss, b.l1Miss);
}

void
expectViewMatchesTrace(const TraceSoA &soa, const Trace &original)
{
    ASSERT_EQ(soa.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        SCOPED_TRACE(i);
        expectRecordsEqual(soa.record(i), original[i]);
    }
}

template <class T>
void
expectColumnEqual(std::span<const T> got, std::span<const T> want,
                  const char *column)
{
    ASSERT_EQ(got.size(), want.size()) << column;
    const auto diff = std::ranges::mismatch(got, want);
    EXPECT_EQ(diff.in1, got.end())
        << column << " differs at row " << (diff.in1 - got.begin());
}

/** Valid producer links over the three producer columns. */
std::uint64_t
countLinks(const TraceSoA &soa)
{
    std::uint64_t links = 0;
    for (int slot = 0; slot < numSrcSlots; ++slot)
        links += static_cast<std::uint64_t>(std::ranges::count_if(
            soa.prod(slot), [](InstId p) { return p != invalidInstId; }));
    return links;
}

/** The eight simulation columns. */
void
expectSimulationColumnsEqual(const TraceSoA &got, const TraceSoA &want)
{
    expectColumnEqual(got.pc(), want.pc(), "pc");
    expectColumnEqual(got.prod(srcSlot1), want.prod(srcSlot1), "prod1");
    expectColumnEqual(got.prod(srcSlot2), want.prod(srcSlot2), "prod2");
    expectColumnEqual(got.prod(srcSlotMem), want.prod(srcSlotMem),
                      "prodMem");
    expectColumnEqual(got.op(), want.op(), "op");
    expectColumnEqual(got.cls(), want.cls(), "cls");
    expectColumnEqual(got.execLat(), want.execLat(), "execLat");
    expectColumnEqual(got.flags(), want.flags(), "flags");
}

/** All twelve stored columns. */
void
expectColumnsEqual(const TraceSoA &got, const TraceSoA &want)
{
    expectSimulationColumnsEqual(got, want);
    expectColumnEqual(got.memAddr(), want.memAddr(), "memAddr");
    expectColumnEqual(got.dest(), want.dest(), "dest");
    expectColumnEqual(got.src1(), want.src1(), "src1");
    expectColumnEqual(got.src2(), want.src2(), "src2");
}

TEST(TraceStore, RoundTripPreservesEverything)
{
    const Trace original = smallTrace();
    const std::string path = tempPath("roundtrip");
    ASSERT_TRUE(saveTraceStore(original, path));

    TraceSoA soa;
    TraceStoreInfo info;
    ASSERT_EQ(loadTraceStore(soa, path, &info), TraceIoStatus::Ok);
    expectViewMatchesTrace(soa, original);
    expectColumnsEqual(soa, original.soa());
    EXPECT_EQ(info.instructions, original.size());
    EXPECT_GE(info.fileBytes, original.footprintBytes());
    std::remove(path.c_str());
}

TEST(TraceStore, EmptyTraceRoundTrips)
{
    const Trace empty;
    const std::string path = tempPath("empty");
    ASSERT_TRUE(saveTraceStore(empty, path));
    TraceSoA soa;
    ASSERT_EQ(loadTraceStore(soa, path), TraceIoStatus::Ok);
    EXPECT_EQ(soa.size(), 0u);
    std::remove(path.c_str());
}

TEST(TraceStore, StreamingWriterMatchesMonolithicSave)
{
    const Trace original = smallTrace();
    const std::string whole_path = tempPath("whole");
    const std::string chunked_path = tempPath("chunked");
    ASSERT_TRUE(saveTraceStore(original, whole_path));

    // Append in uneven chunks; producer links are already global in
    // the source trace, so chunk records pass through unchanged.
    TraceStoreWriter writer(chunked_path, original.size());
    ASSERT_TRUE(writer.ok());
    const std::size_t chunk_len = 613;
    for (std::size_t base = 0; base < original.size();
         base += chunk_len) {
        Trace chunk;
        for (std::size_t i = base;
             i < std::min(base + chunk_len, original.size()); ++i)
            chunk.append(original[i]);
        ASSERT_TRUE(writer.append(chunk));
    }
    ASSERT_TRUE(writer.finalize());
    EXPECT_EQ(writer.written(), original.size());

    // Same capacity, same layout: the files must be byte-identical.
    std::FILE *fa = std::fopen(whole_path.c_str(), "rb");
    std::FILE *fb = std::fopen(chunked_path.c_str(), "rb");
    ASSERT_NE(fa, nullptr);
    ASSERT_NE(fb, nullptr);
    int ca, cb;
    std::uint64_t offset = 0;
    do {
        ca = std::fgetc(fa);
        cb = std::fgetc(fb);
        ASSERT_EQ(ca, cb) << "files diverge at byte " << offset;
        ++offset;
    } while (ca != EOF);
    std::fclose(fa);
    std::fclose(fb);
    std::remove(whole_path.c_str());
    std::remove(chunked_path.c_str());
}

TEST(TraceStore, WriterRejectsCapacityOverflow)
{
    const Trace original = smallTrace("vpr", 100, 1);
    const std::string path = tempPath("overflow");
    TraceStoreWriter writer(path, original.size() - 1);
    ASSERT_TRUE(writer.ok());
    EXPECT_FALSE(writer.append(original));
    EXPECT_FALSE(writer.ok());
    EXPECT_FALSE(writer.finalize());
    std::remove(path.c_str());
}

TEST(TraceStore, WriterUnderfillLoadsWrittenPrefix)
{
    const Trace original = smallTrace("vpr", 200, 3);
    const std::string path = tempPath("underfill");
    // Declare twice the capacity actually used (the streaming builder
    // does this whenever emulation halts early).
    TraceStoreWriter writer(path, original.size() * 2);
    ASSERT_TRUE(writer.append(original));
    ASSERT_TRUE(writer.finalize());

    TraceSoA soa;
    TraceStoreInfo info;
    ASSERT_EQ(loadTraceStore(soa, path, &info), TraceIoStatus::Ok);
    expectViewMatchesTrace(soa, original);
    EXPECT_EQ(info.instructions, original.size());
    std::remove(path.c_str());
}

TEST(TraceStore, BuildTraceStoreFileMatchesMonolithicBuild)
{
    // Chunk sizes from one instruction (a hand-off per record) to more
    // than the whole trace; the target is prime, so it is a multiple
    // of none of the larger sizes and the last chunk comes up short.
    // The carried pass state and in-order stages must make every
    // split invisible.
    WorkloadConfig cfg;
    cfg.targetInstructions = 3001;
    cfg.seed = 9;
    const std::string path = tempPath("streambuild");
    for (const std::string &name : workloadNames()) {
        const Trace reference = buildAnnotatedTrace(name, cfg);
        const TraceSoA want = reference.soa();
        for (const std::uint64_t chunk : {1u, 7u, 613u, 65536u}) {
            SCOPED_TRACE(name + " chunk " + std::to_string(chunk));
            const TraceStoreBuildResult built =
                buildTraceStoreFile(name, cfg, path, chunk);
            ASSERT_TRUE(built.ok);
            EXPECT_EQ(built.instructions, reference.size());

            TraceSoA got;
            ASSERT_EQ(loadTraceStore(got, path), TraceIoStatus::Ok);
            expectColumnsEqual(got, want);
        }
    }
    std::remove(path.c_str());
}

TEST(TraceStore, BuildTraceStoreFileFailsOnUnwritablePath)
{
    // The writer is never ok(): its first append fails, and the
    // producer stages must be stopped and joined, not left waiting
    // for ring slots the writer will never return.
    WorkloadConfig cfg;
    cfg.targetInstructions = 20000;
    cfg.seed = 2;
    const std::string path =
        std::string(::testing::TempDir()) + "/csim_no_such_dir/x.trc2";
    const TraceStoreBuildResult built =
        buildTraceStoreFile("gzip", cfg, path, 1000);
    EXPECT_FALSE(built.ok);
    EXPECT_EQ(built.instructions, 0u);
}

/** Death-test child: build under a file-size limit, print the result
 *  and exit 0 (2 if the limit cannot be set). */
[[noreturn]] void
buildUnderFileSizeLimit(rlim_t limit, const WorkloadConfig &cfg,
                        const std::string &path, std::uint64_t chunk)
{
    const rlimit lim = {limit, limit};
    std::signal(SIGXFSZ, SIG_IGN);
    if (::setrlimit(RLIMIT_FSIZE, &lim) != 0)
        std::_Exit(2);
    const TraceStoreBuildResult built =
        buildTraceStoreFile("gzip", cfg, path, chunk);
    std::fprintf(stderr, "ok=%d instructions=%llu\n", built.ok ? 1 : 0,
                 static_cast<unsigned long long>(built.instructions));
    std::_Exit(0);
}

TEST(TraceStoreDeath, BuildTraceStoreFileStopsWhenAWriteFailsPartway)
{
    // The child re-executes this binary, so the pipeline's threads
    // start in a fresh process, not in a fork of a threaded one.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    WorkloadConfig cfg;
    cfg.targetInstructions = 20000;
    cfg.seed = 2;
    const std::uint64_t chunk = 1000;

    // The last column (src2, one byte per row) lies furthest into the
    // file. Its offset depends only on the capacity, so read it from
    // a complete store's header (descriptor 11 at byte 48 + 16 * 11).
    const std::string reference = tempPath("failref");
    ASSERT_TRUE(buildTraceStoreFile("gzip", cfg, reference, chunk).ok);
    std::uint64_t lastColumn = 0;
    std::FILE *f = std::fopen(reference.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 48 + 16 * 11, SEEK_SET), 0);
    ASSERT_EQ(std::fread(&lastColumn, sizeof(lastColumn), 1, f), 1u);
    std::fclose(f);
    std::remove(reference.c_str());

    // A file-size limit halfway into the sixth chunk's src2 slice: the
    // first five chunks land whole, the sixth's last pwrite() fails
    // with EFBIG (SIGXFSZ ignored), with later chunks still in flight.
    const std::uint64_t whole = 5;
    const std::string path = tempPath("writefail");
    EXPECT_EXIT(buildUnderFileSizeLimit(lastColumn + whole * chunk +
                                            chunk / 2,
                                        cfg, path, chunk),
                ::testing::ExitedWithCode(0),
                "ok=0 instructions=" + std::to_string(whole * chunk) +
                    "\n");
    std::remove(path.c_str());
}

/** This process's peak resident set: VmHWM in /proc/self/status (0
 *  when it cannot be read). */
std::uint64_t
residentHighWaterBytes()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    unsigned long long kib = 0;
    while (std::getline(status, line))
        if (std::sscanf(line.c_str(), "VmHWM: %llu kB", &kib) == 1)
            return static_cast<std::uint64_t>(kib) * 1024;
    return 0;
}

/** Death-test child: stream-build `instructions` gcc instructions and
 *  exit 0 only if the build succeeded and VmHWM grew by less than
 *  `budget` bytes. */
[[noreturn]] void
streamBuildWithinBudget(std::uint64_t instructions, std::uint64_t budget,
                        const std::string &path)
{
    const std::uint64_t before = residentHighWaterBytes();
    WorkloadConfig cfg;
    cfg.targetInstructions = instructions;
    cfg.seed = 1;
    const TraceStoreBuildResult built =
        buildTraceStoreFile("gcc", cfg, path);
    const std::uint64_t grew = residentHighWaterBytes() - before;
    std::fprintf(stderr, "ok=%d VmHWM %llu KiB, grew %llu KiB of %llu\n",
                 built.ok ? 1 : 0,
                 static_cast<unsigned long long>(before >> 10),
                 static_cast<unsigned long long>(grew >> 10),
                 static_cast<unsigned long long>(budget >> 10));
    std::_Exit(built.ok && grew < budget ? 0 : 1);
}

TEST(TraceStore, StreamBuildHoldsChunksNotTheTrace)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "sanitizer shadow memory and quarantine count "
                    "toward VmHWM";
#endif
    if (residentHighWaterBytes() == 0)
        GTEST_SKIP() << "no VmHWM in /proc/self/status";
    // buildTraceStoreFile holds three chunk buffers, not the trace
    // (registry.hh): 2^20 instructions must raise the peak resident set
    // by less than half of the whole trace at 47 B/inst. The child is a
    // fork, whose VmHWM starts at its current resident set, so the
    // peaks of earlier tests in this binary do not count.
    constexpr std::uint64_t instructions = 1u << 20;
    const std::string path = tempPath("streampeak");
    EXPECT_EXIT(streamBuildWithinBudget(
                    instructions,
                    Trace::bytesPerInstruction * instructions / 2, path),
                ::testing::ExitedWithCode(0), "ok=1");
    std::remove(path.c_str());
}

TEST(TraceStore, ClearKeepsCapacity)
{
    // The streaming build refills the same chunk buffers: clear() must
    // not give the capacity back, and must drop every column's rows,
    // the producer links included.
    Trace chunk = smallTrace("vpr", 500, 1);
    const std::size_t capacity = chunk.capacity();
    ASSERT_GE(capacity, chunk.size());
    ASSERT_GT(countLinks(chunk.soa()), 0u);

    chunk.clear();
    EXPECT_TRUE(chunk.empty());
    EXPECT_EQ(chunk.capacity(), capacity);
    EXPECT_EQ(chunk.footprintBytes(), 0u);
    EXPECT_EQ(chunk.soa().size(), 0u);
    EXPECT_EQ(countLinks(chunk.soa()), 0u);
}

TEST(TraceStore, ExtractRegionRebasesProducerLinks)
{
    const Trace original = smallTrace("twolf", 2000, 4);
    const TraceSoA soa = original.soa();

    const std::uint64_t base = 700;
    const std::uint64_t len = 500;
    const Trace region = extractRegion(soa, base, len);
    ASSERT_EQ(region.size(), len);
    EXPECT_TRUE(region.wellFormed());
    // A region is simulation-only: its build columns are not copied.
    EXPECT_FALSE(region.hasBuildColumns());
    EXPECT_EQ(region.footprintBytes(), 36 * len);

    std::uint64_t kept = 0;
    std::uint64_t in_rows = 0;
    for (std::uint64_t i = 0; i < len; ++i) {
        SCOPED_TRACE(i);
        const TraceRecord src = original[base + i];
        const TraceRecord dst = region[i];
        EXPECT_EQ(dst.pc, src.pc);
        EXPECT_EQ(dst.cls, src.cls);
        EXPECT_EQ(dst.execLat, src.execLat);
        EXPECT_EQ(region.soa().flags()[i], soa.flags()[base + i]);
        for (int slot = 0; slot < numSrcSlots; ++slot) {
            const InstId p = src.prod[slot];
            in_rows += p != invalidInstId;
            if (p == invalidInstId || p < base) {
                EXPECT_EQ(dst.prod[slot], invalidInstId);
            } else {
                EXPECT_EQ(dst.prod[slot], p - base);
                ++kept;
            }
        }
    }
    // Links reaching before the region are gone from its columns.
    EXPECT_GT(kept, 0u);
    EXPECT_LT(kept, in_rows);
    EXPECT_EQ(countLinks(region.soa()), kept);
}

TEST(TraceStore, ExtractRegionClampsAtTraceEnd)
{
    const Trace original = smallTrace("vpr", 300, 2);
    const TraceSoA soa = original.soa();
    const Trace tail = extractRegion(soa, original.size() - 50,
                                     1000000);
    EXPECT_EQ(tail.size(), 50u);
    EXPECT_TRUE(tail.wellFormed());
    const Trace whole = extractRegion(soa, 0, soa.size());
    EXPECT_EQ(whole.size(), original.size());
}

// ---------------------------------------------------------------- //
// Simulation-only traces

/** One cell simulated on each trace: equal cycles and stats digest. */
void
expectSameCell(const Trace &got, const Trace &want)
{
    ExperimentConfig cfg;
    cfg.instructions = want.size();
    const MachineConfig mc = MachineConfig::clustered(4);
    const AggregateResult a =
        runPolicyCell(got, mc, PolicyKind::Focused, cfg);
    const AggregateResult b =
        runPolicyCell(want, mc, PolicyKind::Focused, cfg);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(statsDigest(a.stats), statsDigest(b.stats));
}

/** buildSimulationTrace against the reference build. */
void
expectSimulationBuildMatches(const std::string &name,
                             const WorkloadConfig &cfg)
{
    SCOPED_TRACE(name + " at " + std::to_string(cfg.targetInstructions));
    const Trace reference = buildAnnotatedTrace(name, cfg);
    const Trace sim = buildSimulationTrace(name, cfg);
    ASSERT_EQ(sim.size(), reference.size());
    EXPECT_FALSE(sim.hasBuildColumns());
    EXPECT_EQ(sim.footprintBytes(), 36 * sim.size());
    const TraceSoA got = sim.soa();
    EXPECT_FALSE(got.hasBuildColumns());
    EXPECT_TRUE(got.memAddr().empty());
    EXPECT_TRUE(got.dest().empty());
    EXPECT_TRUE(got.src1().empty());
    EXPECT_TRUE(got.src2().empty());
    expectSimulationColumnsEqual(got, reference.soa());
    expectSameCell(sim, reference);
}

TEST(SimulationTrace, MatchesTheReferenceBuildAcrossTheChunkBoundary)
{
    // Every proxy within one chunk (built in place), then gcc and mcf
    // at exactly one chunk, one instruction past it (the ring, with a
    // one-instruction last chunk) and three chunks plus a short one.
    WorkloadConfig cfg;
    cfg.seed = 9;
    cfg.targetInstructions = 3001;
    for (const std::string &name : workloadNames())
        expectSimulationBuildMatches(name, cfg);
    for (const char *name : {"gcc", "mcf"}) {
        for (const std::uint64_t n :
             {defaultChunkInstructions, defaultChunkInstructions + 1,
              std::uint64_t{200003}}) {
            cfg.targetInstructions = n;
            expectSimulationBuildMatches(name, cfg);
        }
    }
}

TEST(SimulationTrace, CachedBuildsInsideSweepWorkersMatchTheReference)
{
    // Two multi-chunk traces built at once through the runner's
    // TraceCache: each build starts its two stage threads inside a
    // sweep worker.
    SweepSpec spec;
    spec.cfg.instructions = defaultChunkInstructions + 4500;
    spec.cfg.seeds = {4};
    const MachineConfig mc = MachineConfig::clustered(2);
    spec.addTiming("gcc", mc, PolicyKind::ModN);
    spec.addTiming("mcf", mc, PolicyKind::ModN);
    SweepRunner runner(4);
    const SweepOutcome out = runner.run(spec);
    EXPECT_EQ(runner.cache().builds(), 2u);

    std::uint64_t held = 0;
    for (std::size_t c = 0; c < spec.cells.size(); ++c) {
        SCOPED_TRACE(spec.cells[c].workload);
        WorkloadConfig wcfg;
        wcfg.targetInstructions = spec.cfg.instructions;
        wcfg.seed = 4;
        const Trace reference =
            buildAnnotatedTrace(spec.cells[c].workload, wcfg);
        held += reference.size();
        AggregateResult want;
        want.merge(runPolicyCell(reference, mc, PolicyKind::ModN,
                                 spec.cfg));
        EXPECT_EQ(out.results[c].instructions, want.instructions);
        EXPECT_EQ(out.results[c].cycles, want.cycles);
        EXPECT_EQ(statsDigest(out.results[c].stats),
                  statsDigest(want.stats));
    }
    EXPECT_EQ(runner.cache().bytesHeld(), 36 * held);
}

TEST(SimulationTrace, CannotBeStored)
{
    // No store is ever written with zeroed addresses and register
    // names: saving a cached trace fails, and so does appending one to
    // a streaming writer, which then stays failed.
    TraceCache cache;
    WorkloadConfig wcfg;
    wcfg.targetInstructions = 2000;
    wcfg.seed = 3;
    const std::shared_ptr<const Trace> cached = cache.get("gzip", wcfg);
    ASSERT_FALSE(cached->hasBuildColumns());
    const std::string path = tempPath("simonly");
    std::remove(path.c_str());
    EXPECT_FALSE(saveTraceStore(*cached, path));
    TraceSoA soa;
    EXPECT_EQ(loadTraceStore(soa, path), TraceIoStatus::CannotOpen);

    TraceStoreWriter writer(path, cached->size());
    ASSERT_TRUE(writer.ok());
    EXPECT_FALSE(writer.append(*cached));
    EXPECT_FALSE(writer.ok());
    EXPECT_FALSE(writer.finalize());
    std::remove(path.c_str());
}

TEST(SimulationTraceDeath, BuildPassesRefuseIt)
{
    // Each pass that reads or writes the build columns names itself
    // instead of reading a column that is not there.
    WorkloadConfig wcfg;
    wcfg.targetInstructions = 500;
    wcfg.seed = 1;
    Trace trace = buildSimulationTrace("mcf", wcfg);
    EXPECT_DEATH(trace.linkProducers(),
                 "StreamingProducerLinker::link: the trace is "
                 "simulation-only");
    EXPECT_DEATH(annotateMemory(trace),
                 "annotateMemory: the trace is simulation-only");
    EXPECT_DEATH(trace.append(TraceRecord{}),
                 "Trace::append: the trace is simulation-only");
}

TEST(TraceStore, ColumnViewSimulatesIdentically)
{
    const Trace original = smallTrace("twolf", 6000, 8);
    const std::string path = tempPath("viewsim");
    ASSERT_TRUE(saveTraceStore(original, path));
    TraceSoA soa;
    ASSERT_EQ(loadTraceStore(soa, path), TraceIoStatus::Ok);

    UnifiedSteering s1(UnifiedSteeringOptions{}, nullptr, nullptr);
    UnifiedSteering s2(UnifiedSteeringOptions{}, nullptr, nullptr);
    AgeScheduling age;
    const MachineConfig mc = MachineConfig::clustered(4);
    const SimResult a = TimingSim(mc, original, s1, age).run();
    // The mmap-backed view has no trace behind it at all: the core
    // gathers records from the mapped columns.
    const SimResult b = TimingSim(mc, soa, s2, age).run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.globalValues, b.globalValues);
    EXPECT_EQ(a.steerStallCycles, b.steerStallCycles);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------- //
// Phases

TEST(TraceStorePhases, SinglePhaseMatchesUnphasedRun)
{
    const Trace trace = smallTrace("gzip", 3000, 2);
    const MachineConfig mc = MachineConfig::clustered(4);
    AgeScheduling age;

    UnifiedSteering s1(UnifiedSteeringOptions{}, nullptr, nullptr);
    const SimResult plain = TimingSim(mc, trace, s1, age).run();

    SimOptions opt;
    opt.phases = {PhaseSpec{"all", 0, false}};
    UnifiedSteering s2(UnifiedSteeringOptions{}, nullptr, nullptr);
    const SimResult phased =
        TimingSim(mc, trace, s2, age, nullptr, opt).run();

    EXPECT_EQ(phased.cycles, plain.cycles);
    EXPECT_EQ(phased.instructions, plain.instructions);
    EXPECT_EQ(phased.globalValues, plain.globalValues);
    ASSERT_EQ(phased.phases.size(), 1u);
    EXPECT_EQ(phased.phases[0].name, "all");
    EXPECT_EQ(phased.phases[0].instructions, plain.instructions);
}

TEST(TraceStorePhases, WarmupPhaseIsExcludedFromTotals)
{
    const Trace trace = smallTrace("gzip", 3000, 2);
    const MachineConfig mc = MachineConfig::clustered(4);
    AgeScheduling age;

    SimOptions opt;
    opt.phases = {PhaseSpec{"warmup", 1000, true},
                  PhaseSpec{"measure", 0, false}};
    UnifiedSteering st(UnifiedSteeringOptions{}, nullptr, nullptr);
    const SimResult r =
        TimingSim(mc, trace, st, age, nullptr, opt).run();

    ASSERT_EQ(r.phases.size(), 2u);
    EXPECT_EQ(r.phases[0].instructions, 1000u);
    EXPECT_TRUE(r.phases[0].isWarmup);
    EXPECT_EQ(r.phases[1].instructions, trace.size() - 1000);
    EXPECT_FALSE(r.phases[1].isWarmup);

    // Top-level totals cover measured phases only; phase boundaries
    // reset stats, not microarchitectural state, so the phase spans
    // tile the run exactly.
    EXPECT_EQ(r.instructions, trace.size() - 1000);
    EXPECT_EQ(r.cycles,
              r.phases[1].cycles);
    ASSERT_GT(r.phases[0].cycles, 0u);

    // An unphased run over the same trace commits the same stream;
    // the phased run's spans must sum to its full length.
    UnifiedSteering s2(UnifiedSteeringOptions{}, nullptr, nullptr);
    const SimResult plain = TimingSim(mc, trace, s2, age).run();
    EXPECT_EQ(r.phases[0].cycles + r.phases[1].cycles, plain.cycles);
    EXPECT_EQ(r.phases[0].instructions + r.phases[1].instructions,
              plain.instructions);
}

// ---------------------------------------------------------------- //
// Region sampling

TEST(TraceStoreRegions, RegionSampledCellIsDeterministic)
{
    const Trace trace = smallTrace("gzip", 8000, 3);
    const TraceSoA soa = trace.soa();

    ExperimentConfig cfg;
    cfg.instructions = trace.size();
    cfg.regions = 4;
    cfg.regionLen = 600;
    cfg.regionWarmup = 200;
    const MachineConfig mc = MachineConfig::clustered(4);

    const AggregateResult a =
        runRegionSampledCell(soa, mc, PolicyKind::Focused, cfg);
    const AggregateResult b =
        runRegionSampledCell(soa, mc, PolicyKind::Focused, cfg);

    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    // Regions merge like-named phases elementwise: warmup + measure.
    ASSERT_EQ(a.phases.size(), 2u);
    EXPECT_EQ(a.phases[0].name, "warmup");
    EXPECT_TRUE(a.phases[0].isWarmup);
    EXPECT_EQ(a.phases[1].name, "measure");
    EXPECT_EQ(a.phases[0].instructions, 4 * 200u);
    EXPECT_EQ(a.phases[1].instructions, 4 * 600u);
    // The aggregate's measured totals are the measure phase's.
    EXPECT_EQ(a.instructions, a.phases[1].instructions);
    ASSERT_EQ(b.phases.size(), 2u);
    EXPECT_EQ(a.phases[1].cycles, b.phases[1].cycles);
}

TEST(TraceStoreRegions, SampledSubsetIsCheaperThanFullRun)
{
    const Trace trace = smallTrace("gzip", 8000, 3);
    const TraceSoA soa = trace.soa();
    ExperimentConfig cfg;
    cfg.instructions = trace.size();
    cfg.regions = 2;
    cfg.regionLen = 500;
    cfg.regionWarmup = 100;
    const AggregateResult sampled = runRegionSampledCell(
        soa, MachineConfig::clustered(4), PolicyKind::Focused, cfg);
    EXPECT_EQ(sampled.instructions, 2 * 500u);
    EXPECT_LT(sampled.instructions, trace.size());
    EXPECT_GT(sampled.cpi(), 0.0);
}

TEST(TraceStoreRegions, ExactFitBudgetAndSingleRegionAreAccepted)
{
    // k * (warmup + len) == n is the largest legal budget; with one
    // region the span may cover the whole store.
    const Trace trace = smallTrace("gzip", 4000, 3);
    const TraceSoA soa = trace.soa();
    ExperimentConfig cfg;
    cfg.instructions = trace.size();
    cfg.regions = 4;
    cfg.regionLen = 900;
    cfg.regionWarmup = 100;
    const AggregateResult tight = runRegionSampledCell(
        soa, MachineConfig::clustered(4), PolicyKind::Focused, cfg);
    EXPECT_EQ(tight.instructions, 4 * 900u);

    cfg.regions = 1;
    cfg.regionLen = trace.size() - 100;
    const AggregateResult whole = runRegionSampledCell(
        soa, MachineConfig::clustered(4), PolicyKind::Focused, cfg);
    EXPECT_EQ(whole.instructions, trace.size() - 100);
}

TEST(TraceStoreRegions, SampledStoreKeepsAtMostOneRegionResident)
{
    // extractRegion drops the store mapping's pages once it has copied
    // a region out, so after any number of sampled regions at most one
    // region's column bytes of the mapping stay resident; without the
    // release every region's pages (and the neighbours each fault maps
    // with them) would. The outcome is the in-memory trace's.
    const Trace trace = smallTrace("gcc", 64000, 2);
    const std::string path = tempPath("resident");
    ASSERT_TRUE(saveTraceStore(trace, path));
    TraceSoA soa;
    ASSERT_EQ(loadTraceStore(soa, path), TraceIoStatus::Ok);

    // The reader sees the mapping: reading the pc column makes at
    // least that column resident.
    const std::span<const Addr> pc = soa.pc();
    Addr sum = 0;
    for (const Addr a : pc)
        sum += a;
    EXPECT_NE(sum, 0u);
    EXPECT_GE(residentBytesOfMapping(pc.data()), pc.size_bytes());

    ExperimentConfig cfg;
    cfg.instructions = trace.size();
    cfg.regions = 8;
    cfg.regionLen = 1000;
    cfg.regionWarmup = 200;
    const MachineConfig mc = MachineConfig::clustered(4);
    const AggregateResult mapped =
        runRegionSampledCell(soa, mc, PolicyKind::Focused, cfg);
    EXPECT_LE(residentBytesOfMapping(pc.data()),
              Trace::bytesPerInstruction *
                  (cfg.regionWarmup + cfg.regionLen));

    const AggregateResult held =
        runRegionSampledCell(trace.soa(), mc, PolicyKind::Focused, cfg);
    EXPECT_EQ(mapped.instructions, 8 * cfg.regionLen);
    EXPECT_EQ(mapped.instructions, held.instructions);
    EXPECT_EQ(mapped.cycles, held.cycles);
    EXPECT_EQ(statsDigest(mapped.stats), statsDigest(held.stats));
    ASSERT_EQ(mapped.phases.size(), held.phases.size());
    for (std::size_t i = 0; i < mapped.phases.size(); ++i) {
        EXPECT_EQ(mapped.phases[i].instructions,
                  held.phases[i].instructions);
        EXPECT_EQ(mapped.phases[i].cycles, held.phases[i].cycles);
        EXPECT_EQ(statsDigest(mapped.phases[i].stats),
                  statsDigest(held.phases[i].stats));
    }
    std::remove(path.c_str());
}

TEST(TraceStoreRegionsDeath, RegionBudgetExceedingStoreIsFatal)
{
    // 4 x (200 + 1900) = 8400 > 8000: evenly spaced starts at stride
    // 2000 would overlap every adjacent region and double-count the
    // overlap in the merged phases. Must be a clean fatal, not a
    // silent wrong answer.
    const Trace trace = smallTrace("gzip", 8000, 3);
    const TraceSoA soa = trace.soa();
    ExperimentConfig cfg;
    cfg.instructions = trace.size();
    cfg.regions = 4;
    cfg.regionLen = 1900;
    cfg.regionWarmup = 200;
    EXPECT_EXIT(runRegionSampledCell(soa, MachineConfig::clustered(4),
                                     PolicyKind::Focused, cfg),
                ::testing::ExitedWithCode(1),
                "fatal: region sampling: .*exceed");
}

TEST(TraceStoreRegionsDeath, RegionCountExceedingStoreIsFatal)
{
    const Trace trace = smallTrace("vpr", 300, 2);
    const TraceSoA soa = trace.soa();
    ExperimentConfig cfg;
    cfg.instructions = trace.size();
    cfg.regions = trace.size() + 1;
    cfg.regionLen = 1;
    EXPECT_EXIT(runRegionSampledCell(soa, MachineConfig::clustered(4),
                                     PolicyKind::Focused, cfg),
                ::testing::ExitedWithCode(1),
                "fatal: region sampling: region count .*out of range");
}

TEST(TraceStoreRegionsDeath, ZeroRegionLenIsFatal)
{
    const Trace trace = smallTrace("vpr", 300, 2);
    const TraceSoA soa = trace.soa();
    ExperimentConfig cfg;
    cfg.instructions = trace.size();
    cfg.regions = 2;
    cfg.regionLen = 0;
    EXPECT_EXIT(runRegionSampledCell(soa, MachineConfig::clustered(4),
                                     PolicyKind::Focused, cfg),
                ::testing::ExitedWithCode(1),
                "fatal: region sampling: region length");
}

// ---------------------------------------------------------------- //
// Corrupt / hostile store files

// Byte-level builder for hand-crafted hostile stores. The layout
// constants mirror the static_asserts pinning the v2 format in
// trace_store.cc: 240-byte header, {offset, bytes} column descriptor
// pairs starting at byte 48.
struct CraftedStore
{
    std::vector<std::uint8_t> bytes;

    explicit CraftedStore(std::size_t fileBytes)
        : bytes(fileBytes, 0)
    {
        std::memcpy(bytes.data(), "csimtrc2", 8);
        put32(8, 2);            // version
        put32(12, 0x01020304u); // endian tag
        put64(16, 1);           // count
        put64(24, 1);           // capacity
        put64(32, 0);           // producer links
        put32(40, 0);           // flags
        put32(44, 12);          // column count
    }

    void
    put32(std::size_t off, std::uint32_t v)
    {
        std::memcpy(&bytes[off], &v, sizeof(v));
    }

    void
    put64(std::size_t off, std::uint64_t v)
    {
        std::memcpy(&bytes[off], &v, sizeof(v));
    }

    void
    col(std::size_t c, std::uint64_t offset, std::uint64_t size)
    {
        put64(48 + 16 * c, offset);
        put64(48 + 16 * c + 8, size);
    }

    /** Lay the twelve columns of `count` rows out back to back after
     *  the header, as the writer does for capacity == count. */
    void
    rawColumns(std::uint64_t count)
    {
        std::uint64_t off = 240;
        for (std::size_t c = 0; c < 12; ++c) {
            const std::uint64_t size = count * (c < 5 ? 8 : 1);
            col(c, off, size);
            off += (size + 7) & ~std::uint64_t{7};
        }
    }

    std::string
    write(const char *tag) const
    {
        const std::string path = tempPath(tag);
        std::FILE *f = std::fopen(path.c_str(), "wb");
        EXPECT_NE(f, nullptr);
        EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);
        return path;
    }
};

TEST(TraceStoreCorruption, CraftedOneRowStoreLoads)
{
    // The builder itself yields a valid store, so the rejections below
    // are down to the one field each test corrupts.
    CraftedStore f(344);
    f.rawColumns(1);
    const std::string path = f.write("craftedok");
    TraceSoA soa;
    EXPECT_EQ(loadTraceStore(soa, path), TraceIoStatus::Ok);
    EXPECT_EQ(soa.size(), 1u);
    std::remove(path.c_str());
}

TEST(TraceStoreCorruption, ColumnExtentOverflowIsRejected)
{
    // A count of 2^64 - 8 rows, with every column's byte count the
    // count times its element size: the sums wrap, so each offset +
    // bytes comes out below the file size and a naive extent check
    // passes. The view would then claim 2^64 - 8 rows backed by one
    // page. The wrap-safe check must reject the file instead.
    CraftedStore f(4096);
    const std::uint64_t count = ~std::uint64_t{0} - 7;
    f.put64(16, count);
    f.put64(24, count);
    for (std::size_t c = 0; c < 12; ++c)
        f.col(c, 240 + 8 * c, count * (c < 5 ? 8 : 1));

    const std::string path = f.write("extentwrap");
    TraceSoA soa;
    EXPECT_EQ(loadTraceStore(soa, path), TraceIoStatus::Truncated);
    std::remove(path.c_str());
}

TEST(TraceStoreCorruption, UnknownFlagIsBadVersion)
{
    // Bit 0 once marked varint-compressed wide columns; no flag bit is
    // understood any more, so a file carrying one is refused rather
    // than misread as raw columns.
    for (const std::uint32_t flag : {1u, 2u, 0x80000000u}) {
        SCOPED_TRACE(flag);
        CraftedStore f(344);
        f.rawColumns(1);
        f.put32(40, flag);
        const std::string path = f.write("flagged");
        TraceSoA soa;
        EXPECT_EQ(loadTraceStore(soa, path), TraceIoStatus::BadVersion);
        std::remove(path.c_str());
    }
}

TEST(TraceStoreCorruption, MisstatedLinkTotalSimulatesIdentically)
{
    // The header's producer-link total is outside input like any other
    // field, and nothing may be sized from it. A store claiming no
    // links, one link too few, one fewer than it has rows, or more
    // than three slots per row can hold must load and simulate exactly
    // like the honest one.
    const Trace original = smallTrace("gcc", 4000, 1);
    const std::string path = tempPath("linktotal");
    ASSERT_TRUE(saveTraceStore(original, path));
    const MachineConfig mc = MachineConfig::clustered(4);
    auto simulate = [&mc](const TraceSoA &soa) {
        UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr, nullptr);
        AgeScheduling age;
        return TimingSim(mc, soa, steer, age).run();
    };
    SimResult want;
    {
        TraceSoA honest;
        ASSERT_EQ(loadTraceStore(honest, path), TraceIoStatus::Ok);
        want = simulate(honest);
    }
    ASSERT_EQ(want.instructions, original.size());

    const std::uint64_t count = original.size();
    const std::uint64_t true_links = countLinks(original.soa());
    ASSERT_GT(true_links, 0u);
    for (const std::uint64_t links : {std::uint64_t{0}, true_links - 1,
                                      count - 1, 3 * count + 1}) {
        SCOPED_TRACE(links);
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        // The link total sits at byte 32, after count and capacity.
        ASSERT_EQ(std::fseek(f, 32, SEEK_SET), 0);
        ASSERT_EQ(std::fwrite(&links, sizeof(links), 1, f), 1u);
        std::fclose(f);

        TraceSoA soa;
        ASSERT_EQ(loadTraceStore(soa, path), TraceIoStatus::Ok);
        const SimResult got = simulate(soa);
        EXPECT_EQ(got.cycles, want.cycles);
        EXPECT_EQ(statsDigest(got.stats), statsDigest(want.stats));
    }
    std::remove(path.c_str());
}

TEST(TraceIo, StatusNames)
{
    EXPECT_STREQ(traceIoStatusName(TraceIoStatus::Ok), "ok");
    EXPECT_STREQ(traceIoStatusName(TraceIoStatus::BadVersion),
                 "bad version");
    EXPECT_STREQ(traceIoStatusName(TraceIoStatus::BadEndianness),
                 "bad endianness");
}

TEST(TraceIoV2, V1FileRejectedAsBadVersion)
{
    // The retired v1 format shares the "csimtrc" prefix and ends its
    // magic in a NUL, so its files are a version problem, not garbage.
    const std::string path = tempPath("v1magic");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite("csimtrc\0", 1, 8, f), 8u);
    std::fclose(f);

    TraceSoA soa;
    EXPECT_EQ(loadTraceStore(soa, path), TraceIoStatus::BadVersion);
    std::remove(path.c_str());
}

TEST(TraceIoV2, GarbageRejectedAsBadMagic)
{
    const std::string path = tempPath("v2badmagic");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    for (int i = 0; i < 64; ++i)
        std::fputs("definitely not a columnar store ", f);
    std::fclose(f);

    TraceSoA soa;
    EXPECT_EQ(loadTraceStore(soa, path), TraceIoStatus::BadMagic);
    std::remove(path.c_str());
}

TEST(TraceIoV2, MissingFile)
{
    TraceSoA soa;
    EXPECT_EQ(loadTraceStore(soa, "/nonexistent/dir/x.trc2"),
              TraceIoStatus::CannotOpen);
}

TEST(TraceIoV2, TruncationDetected)
{
    const Trace original = smallTrace("vpr", 400, 2);
    const std::string path = tempPath("v2trunc");
    ASSERT_TRUE(saveTraceStore(original, path));

    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);

    // Chop mid-column: the header promises more data than the file
    // holds.
    ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
    TraceSoA soa;
    EXPECT_EQ(loadTraceStore(soa, path), TraceIoStatus::Truncated);

    // Chop mid-header too.
    ASSERT_EQ(truncate(path.c_str(), 16), 0);
    EXPECT_EQ(loadTraceStore(soa, path), TraceIoStatus::Truncated);
    std::remove(path.c_str());
}

/**
 * Save a 64-instruction gcc trace as a store, then overwrite the
 * producer link of `row` in the first register slot with `link`. The
 * loader checks extents, not link values, so the file loads.
 */
std::string
storeWithPatchedLink(const char *tag, std::uint64_t row,
                     std::uint64_t link)
{
    const Trace original = smallTrace("gcc", 64, 1);
    const std::string path = tempPath(tag);
    EXPECT_TRUE(saveTraceStore(original, path));
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    EXPECT_NE(f, nullptr);
    // Descriptor 2 (the first producer column) sits at 48 + 16 * 2.
    std::uint64_t column = 0;
    EXPECT_EQ(std::fseek(f, 48 + 16 * 2, SEEK_SET), 0);
    EXPECT_EQ(std::fread(&column, sizeof(column), 1, f), 1u);
    EXPECT_EQ(std::fseek(f, static_cast<long>(column + 8 * row),
                         SEEK_SET), 0);
    EXPECT_EQ(std::fwrite(&link, sizeof(link), 1, f), 1u);
    std::fclose(f);
    return path;
}

TEST(TraceStoreCorruptionDeath, ForwardProducerLinkIsRejectedByTheCore)
{
    // A link at or past its consumer would index the core's side
    // tables (and the policy's view of the producer) out of range; the
    // core must stop on it before any index, whether it simulates the
    // mapped view directly or a region copied out of it.
    const MachineConfig mc = MachineConfig::clustered(4);
    ExperimentConfig cfg;
    cfg.instructions = 64;
    cfg.regions = 1;
    cfg.regionLen = 64;
    const char *const rejected =
        "assertion failed: rec.prod\\[slot\\] \\+ 1 <= id";
    for (const std::uint64_t link : {std::uint64_t{1} << 20,
                                     std::uint64_t{5}}) {
        SCOPED_TRACE(link);
        const std::string path =
            storeWithPatchedLink("badlink", 5, link);
        TraceSoA soa;
        ASSERT_EQ(loadTraceStore(soa, path), TraceIoStatus::Ok);
        std::remove(path.c_str());

        EXPECT_DEATH(
            {
                UnifiedSteering steer(UnifiedSteeringOptions{}, nullptr,
                                      nullptr);
                AgeScheduling age;
                TimingSim(mc, soa, steer, age).run();
            },
            rejected);
        EXPECT_DEATH(runRegionSampledCell(soa, mc, PolicyKind::Focused,
                                          cfg),
                     rejected);
    }
}

} // anonymous namespace
} // namespace csim
