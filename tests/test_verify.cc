/**
 * @file
 * Tests for the src/verify subsystem: the live pipeline invariant
 * checker, the post-hoc timing audit, the differential CPI oracles,
 * the fuzz input generators — and the timing-stat fixes the checker
 * work flushed out (priority-inversion semantics, priority-key
 * packing bounds, machine-config validation).
 *
 * The negative tests cover every invariant family by construction:
 * either auditTiming() over a deliberately corrupted copy of a real
 * run's timing, or a live checker built with a *stricter* geometry
 * than the simulator actually ran (the checker then flags exactly the
 * faults the gap injects — a dropped forwarding latency, an
 * oversubscribed window — without the core's own asserts firing).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "verify/pipeline_checker.hh"

#include "audit_reference.hh"

#include "harness/experiment.hh"
#include "policy/scheduling.hh"
#include "policy/steering.hh"
#include "verify/oracle.hh"
#include "verify/random_trace.hh"
#include "workloads/registry.hh"

namespace csim {
namespace {

Trace
workloadTrace(const std::string &name, std::uint64_t n = 6000,
              std::uint64_t seed = 1)
{
    WorkloadConfig wcfg;
    wcfg.targetInstructions = n;
    wcfg.seed = seed;
    return buildAnnotatedTrace(name, wcfg);
}

/** Run a trace with mod-n steering + age scheduling and a checker. */
SimResult
runChecked(const Trace &trace, const MachineConfig &machine,
           PipelineChecker &checker)
{
    ModNSteering steer;
    AgeScheduling age;
    SimOptions opt;
    opt.checker = &checker;
    return TimingSim(machine, trace, steer, age, nullptr, opt).run();
}

// ---------------------------------------------------------------------
// Live checker, clean paths.

TEST(PipelineChecker, CleanAcrossClusterCounts)
{
    const Trace trace = workloadTrace("gcc");
    for (unsigned n : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(n);
        const MachineConfig machine = MachineConfig::clustered(n);
        PipelineCheckerOptions copt;
        copt.panicOnViolation = false;
        PipelineChecker checker(machine, trace, copt);
        const SimResult res = runChecked(trace, machine, checker);

        EXPECT_TRUE(checker.report().ok())
            << checker.report().firstDetail;
        EXPECT_EQ(checker.report().checkedInstructions, trace.size());
        EXPECT_EQ(checker.report().checkedCycles, res.cycles);

        // The audit agrees with the live view.
        const VerifyReport audit =
            auditTiming(trace, res.timing, machine);
        EXPECT_TRUE(audit.ok()) << audit.firstDetail;
        EXPECT_EQ(audit.checkedInstructions, trace.size());
    }
}

TEST(PipelineChecker, CleanAcrossPolicies)
{
    const Trace trace = workloadTrace("mcf", 4000);
    const MachineConfig machine = MachineConfig::clustered(4);
    ExperimentConfig cfg;
    cfg.verify.checker = true;   // panicOnViolation defaults to true
    for (PolicyKind kind :
         {PolicyKind::ModN, PolicyKind::LoadBal, PolicyKind::Dep,
          PolicyKind::Focused, PolicyKind::FocusedLocStall}) {
        SCOPED_TRACE(policyName(kind));
        const PolicyRun run = runPolicy(trace, machine, kind, cfg);
        EXPECT_EQ(run.checkerViolations, 0u);
        // The checker's counters land in the run's registry.
        EXPECT_EQ(run.sim.stats.value("verify.checkedInstructions"),
                  static_cast<double>(trace.size()));
        EXPECT_EQ(run.sim.stats.value("verify.violations"), 0.0);
    }
}

TEST(PipelineChecker, CleanOnRandomTraces)
{
    for (std::uint64_t seed : {7ull, 8ull, 9ull}) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        const MachineConfig machine = randomMachineConfig(rng);
        const Trace trace = randomTrace(rng, 1500);
        PipelineCheckerOptions copt;
        copt.panicOnViolation = false;
        PipelineChecker checker(machine, trace, copt);
        const SimResult res = runChecked(trace, machine, checker);
        EXPECT_TRUE(checker.report().ok())
            << checker.report().firstDetail;
        EXPECT_TRUE(auditTiming(trace, res.timing, machine).ok());
    }
}

// ---------------------------------------------------------------------
// Negative tests: one per invariant family. A checker (or audit)
// holding the machine to a stricter geometry than it ran must flag
// the corresponding fault class.

TEST(PipelineCheckerNegative, DroppedForwardingLatencyLive)
{
    const Trace trace = workloadTrace("gzip", 3000);
    MachineConfig ran = MachineConfig::clustered(4);
    ran.fwdLatency = 0;          // the "bug": bypass latency dropped
    MachineConfig intended = ran;
    intended.fwdLatency = 2;

    PipelineCheckerOptions copt;
    copt.panicOnViolation = false;
    PipelineChecker checker(intended, trace, copt);
    const SimResult res = runChecked(trace, ran, checker);

    EXPECT_GT(checker.report().count(Invariant::Bypass), 0u)
        << "no cross-cluster operand issued early?";
    // Same fault through the post-hoc audit.
    const VerifyReport audit =
        auditTiming(trace, res.timing, intended);
    EXPECT_GT(audit.count(Invariant::Bypass), 0u);
}

TEST(PipelineCheckerNegative, SteerIntoFullWindowLive)
{
    const Trace trace = workloadTrace("gzip", 2000);
    const MachineConfig ran = MachineConfig::clustered(2);
    MachineConfig intended = ran;
    intended.windowPerCluster = 2;   // claims a tiny window

    PipelineCheckerOptions copt;
    copt.panicOnViolation = false;
    PipelineChecker checker(intended, trace, copt);
    const SimResult res = runChecked(trace, ran, checker);

    EXPECT_GT(checker.report().count(Invariant::Occupancy), 0u);
    EXPECT_GT(auditTiming(trace, res.timing, intended)
                  .count(Invariant::Occupancy),
              0u);
}

TEST(PipelineCheckerNegative, RobOverflow)
{
    const Trace trace = workloadTrace("gzip", 2000);
    const MachineConfig ran = MachineConfig::monolithic();
    MachineConfig intended = ran;
    intended.robEntries = 4;

    PipelineCheckerOptions copt;
    copt.panicOnViolation = false;
    PipelineChecker checker(intended, trace, copt);
    const SimResult res = runChecked(trace, ran, checker);

    EXPECT_GT(checker.report().count(Invariant::Rob), 0u);
    EXPECT_GT(
        auditTiming(trace, res.timing, intended).count(Invariant::Rob),
        0u);
}

TEST(PipelineCheckerNegative, IssueWidthOverrun)
{
    const Trace trace = workloadTrace("gzip", 2000);
    const MachineConfig ran = MachineConfig::monolithic();
    MachineConfig intended = ran;
    intended.cluster.issueWidth = 1;
    intended.cluster.intPorts = 1;

    PipelineCheckerOptions copt;
    copt.panicOnViolation = false;
    PipelineChecker checker(intended, trace, copt);
    const SimResult res = runChecked(trace, ran, checker);

    EXPECT_GT(checker.report().count(Invariant::Width), 0u);
    EXPECT_GT(auditTiming(trace, res.timing, intended)
                  .count(Invariant::Width),
              0u);
}

TEST(PipelineCheckerNegative, TamperedMonotoneStamp)
{
    const Trace trace = workloadTrace("gzip", 1000);
    const MachineConfig machine = MachineConfig::monolithic();
    PipelineCheckerOptions copt;
    copt.panicOnViolation = false;
    PipelineChecker checker(machine, trace, copt);
    SimResult res = runChecked(trace, machine, checker);
    ASSERT_TRUE(auditTiming(trace, res.timing, machine).ok());

    // An instruction "ready" before its operands were even renamed.
    std::vector<InstTiming> tampered = res.timing;
    tampered[500].ready = tampered[500].dispatch;
    EXPECT_GT(auditTiming(trace, tampered, machine)
                  .count(Invariant::Monotone),
              0u);

    // A completion that ignores the execution latency.
    tampered = res.timing;
    tampered[500].complete = tampered[500].issue;
    EXPECT_GT(auditTiming(trace, tampered, machine)
                  .count(Invariant::Monotone),
              0u);

    // A stamp never filled in.
    tampered = res.timing;
    tampered[500].commit = invalidCycle;
    EXPECT_GT(auditTiming(trace, tampered, machine)
                  .count(Invariant::Monotone),
              0u);
}

TEST(PipelineCheckerNegative, TamperedCommitOrder)
{
    const Trace trace = workloadTrace("gzip", 1000);
    const MachineConfig machine = MachineConfig::monolithic();
    ModNSteering steer;
    AgeScheduling age;
    SimResult res = TimingSim(machine, trace, steer, age).run();

    // Retire an old instruction after a much younger one.
    std::vector<InstTiming> tampered = res.timing;
    std::swap(tampered[400].commit, tampered[600].commit);
    const VerifyReport audit = auditTiming(trace, tampered, machine);
    EXPECT_GT(audit.count(Invariant::Order), 0u);
}

// ---------------------------------------------------------------------
// Audit differential: auditTiming() against the map-keyed event walk
// it replaced (audit_reference.hh), over real runs whose timing is
// randomly tampered and audited against optionally stricter
// geometries. The reports must agree exactly, first detail included.

/** A stage stamp of @p t by index: fetch, dispatch, ..., commit. */
Cycle &
stampAt(InstTiming &t, std::uint64_t which)
{
    switch (which) {
      case 0: return t.fetch;
      case 1: return t.dispatch;
      case 2: return t.ready;
      case 3: return t.issue;
      case 4: return t.complete;
      default: return t.commit;
    }
}

/** An instruction within 16 of @p i: most faults are local. */
std::size_t
nearby(Rng &rng, std::size_t i, std::size_t n)
{
    const std::int64_t j =
        static_cast<std::int64_t>(i) + rng.range(-16, 16);
    return static_cast<std::size_t>(
        std::clamp<std::int64_t>(j, 0, static_cast<std::int64_t>(n) - 1));
}

/** Apply one random fault to @p timing. */
void
tamper(Rng &rng, std::vector<InstTiming> &timing, unsigned clusters)
{
    const std::size_t n = timing.size();
    const std::size_t i = rng.below(n);
    const InstTiming other = timing[nearby(rng, i, n)];
    InstTiming &t = timing[i];
    switch (rng.below(6)) {
      case 0: {
        // Shift a stamp by a few cycles, or (wrapping) arbitrarily far.
        Cycle &stamp = stampAt(t, rng.below(6));
        stamp += rng.chance(1, 8)
            ? rng.next()
            : static_cast<Cycle>(rng.range(-6, 6));
        break;
      }
      case 1:
        stampAt(t, rng.below(6)) = invalidCycle;
        break;
      case 2:
        std::swap(t.commit, timing[nearby(rng, i, n)].commit);
        break;
      case 3:
        t.cluster = static_cast<ClusterId>(clusters +
                                           rng.below(256 - clusters));
        break;
      case 4:
        t.cluster = other.cluster;
        t.issue = other.issue;
        break;
      default:
        t.dispatch = other.dispatch;
        break;
    }
}

/** @p ran, with each audited bound independently maybe tightened. */
MachineConfig
stricterGeometry(Rng &rng, const MachineConfig &ran)
{
    MachineConfig m = ran;
    const auto tighten = [&rng](unsigned &bound) {
        if (rng.chance(1, 4))
            bound = 1 + static_cast<unsigned>(rng.below(bound));
    };
    tighten(m.windowPerCluster);
    tighten(m.robEntries);
    tighten(m.cluster.issueWidth);
    tighten(m.commitWidth);
    tighten(m.dispatchWidth);
    return m;
}

/** "" when the two reports agree on everything auditTiming fills. */
std::string
reportDiff(const VerifyReport &got, const VerifyReport &want)
{
    std::string out;
    for (std::size_t k = 0; k < numInvariants; ++k)
        if (got.byClass[k] != want.byClass[k])
            out += std::string(invariantName(static_cast<Invariant>(k))) +
                " " + std::to_string(got.byClass[k]) + " != " +
                std::to_string(want.byClass[k]) + "; ";
    if (got.firstDetail != want.firstDetail)
        out += "firstDetail '" + got.firstDetail + "' != '" +
            want.firstDetail + "'; ";
    if (got.checkedInstructions != want.checkedInstructions ||
        got.checkedCycles != want.checkedCycles)
        out += "checked counts differ; ";
    return out;
}

TEST(AuditDifferential, MatchesReferenceOnTamperedRuns)
{
    constexpr int casesPerRun = 60;
    Rng rng(0x5eed);
    std::uint64_t cases = 0;
    std::uint64_t flagged = 0;
    for (const char *wl : {"gzip", "mcf", "gcc", "eon"}) {
        const Trace trace = workloadTrace(wl, 2000);
        for (unsigned n : {1u, 2u, 4u, 8u}) {
            const MachineConfig ran = MachineConfig::clustered(n);
            ModNSteering steer;
            AgeScheduling age;
            const SimResult res =
                TimingSim(ran, trace, steer, age).run();
            ASSERT_TRUE(auditTiming(trace, res.timing, ran).ok());

            for (int k = 0; k < casesPerRun; ++k) {
                const MachineConfig audited = stricterGeometry(rng, ran);
                std::vector<InstTiming> timing = res.timing;
                // One case in seven is untampered: only a tightened
                // bound then fails, so the per-cycle checks (and the
                // order they report in) decide the first detail.
                const std::uint64_t faults = rng.below(7);
                for (std::uint64_t f = 0; f < faults; ++f)
                    tamper(rng, timing, n);

                const VerifyReport got =
                    auditTiming(trace, timing, audited);
                const VerifyReport want =
                    referenceAuditTiming(trace, timing, audited);
                const std::string diff = reportDiff(got, want);
                ASSERT_TRUE(diff.empty())
                    << wl << " " << ran.name() << " case " << k << ": "
                    << diff;
                ++cases;
                flagged += got.ok() ? 0 : 1;
            }
        }
    }
    // The faults must actually exercise the violation paths.
    EXPECT_GT(flagged, cases * 3 / 4);
}

TEST(AuditDifferential, StampsNearCycleMax)
{
    // Any stamp other than invalidCycle is a cycle: shift a clean run
    // to the top of the range. It stays clean, and a fault in it is
    // reported exactly as the reference does.
    const Trace trace = workloadTrace("gcc", 2000);
    const MachineConfig machine = MachineConfig::clustered(4);
    ModNSteering steer;
    AgeScheduling age;
    const SimResult res = TimingSim(machine, trace, steer, age).run();

    Cycle last = 0;
    for (const InstTiming &t : res.timing)
        last = std::max(last, t.commit);
    const Cycle shift = invalidCycle - 1 - last;
    std::vector<InstTiming> timing = res.timing;
    for (InstTiming &t : timing)
        for (std::uint64_t s = 0; s < 6; ++s)
            stampAt(t, s) += shift;
    const VerifyReport clean = auditTiming(trace, timing, machine);
    EXPECT_TRUE(clean.ok()) << clean.firstDetail;
    EXPECT_EQ(clean.checkedInstructions, trace.size());

    MachineConfig tight = machine;
    tight.robEntries = 8;
    tight.windowPerCluster = 4;
    timing[700].dispatch = timing[900].dispatch;
    const VerifyReport got = auditTiming(trace, timing, tight);
    EXPECT_GT(got.count(Invariant::Rob), 0u);
    EXPECT_GT(got.count(Invariant::Order), 0u);
    EXPECT_EQ(reportDiff(got, referenceAuditTiming(trace, timing, tight)),
              "");

    // An empty run audits clean on both sides.
    const Trace empty;
    EXPECT_EQ(reportDiff(auditTiming(empty, {}, machine),
                         referenceAuditTiming(empty, {}, machine)),
              "");
}

// ---------------------------------------------------------------------
// Priority-inversion accounting (the stat the checker work fixed:
// same-class age bypasses are port contention, not inversions).

/** Loads outrank everything; all else is one class below. */
class LoadsFirstScheduling : public SchedulingPolicy
{
  public:
    std::uint32_t
    priorityClass(const TraceRecord &rec) override
    {
        return rec.isLoad() ? 0 : 1;
    }
    const char *name() const override { return "loads-first"; }
};

Trace
contendedTrace()
{
    // Two independent loads plus four independent adds, all ready in
    // the same cycle. One memory port: the second load is denied
    // while the lower-class adds issue.
    Trace t;
    for (int i = 0; i < 2; ++i) {
        TraceRecord rec;
        rec.op = Opcode::Ld;
        rec.cls = OpClass::Load;
        rec.execLat = 3;
        rec.dest = static_cast<RegIndex>(1 + i);
        t.append(rec);
    }
    for (int i = 0; i < 4; ++i) {
        TraceRecord rec;
        rec.op = Opcode::Add;
        rec.cls = OpClass::IntAlu;
        rec.execLat = 1;
        rec.dest = static_cast<RegIndex>(10 + i);
        t.append(rec);
    }
    EXPECT_TRUE(t.wellFormed());
    return t;
}

MachineConfig
oneMemPortMachine()
{
    MachineConfig m = MachineConfig::monolithic();
    m.cluster.memPorts = 1;
    return m;
}

TEST(PriorityInversions, CrossClassBypassCounts)
{
    const Trace trace = contendedTrace();
    ModNSteering steer;
    LoadsFirstScheduling sched;
    SimResult res =
        TimingSim(oneMemPortMachine(), trace, steer, sched).run();
    // The denied load (class 0) was bypassed by four class-1 adds.
    EXPECT_GE(res.stats.value("sched.priorityInversions"), 1.0);
}

TEST(PriorityInversions, SameClassContentionDoesNotCount)
{
    const Trace trace = contendedTrace();
    ModNSteering steer;
    AgeScheduling age;    // everything in class 0
    SimResult res =
        TimingSim(oneMemPortMachine(), trace, steer, age).run();
    // The same port conflict occurs (second load is denied while
    // younger adds issue), but within one scheduling class that is
    // ordinary contention — the fixed stat must stay zero.
    EXPECT_GT(res.stats.value("sched.replayEvents"), 0.0);
    EXPECT_EQ(res.stats.value("sched.priorityInversions"), 0.0);
}

// ---------------------------------------------------------------------
// Priority-key packing bounds.

TEST(PrioKey, PacksClassAboveAge)
{
    EXPECT_LT(makePrioKey(0, 999), makePrioKey(1, 0));
    EXPECT_LT(makePrioKey(2, 0), makePrioKey(2, 1));
    EXPECT_EQ(prioKeyClass(makePrioKey(7, 123)), 7u);
    EXPECT_EQ(prioKeyClass(makePrioKey(maxPriorityClass,
                                       maxTraceInstructions - 1)),
              maxPriorityClass);
}

TEST(PrioKeyDeath, RejectsOverflowingId)
{
    EXPECT_DEATH((void)makePrioKey(0, maxTraceInstructions),
                 "assertion failed");
}

TEST(PrioKeyDeath, RejectsOverflowingClass)
{
    EXPECT_DEATH((void)makePrioKey(maxPriorityClass + 1, 0),
                 "assertion failed");
}

// ---------------------------------------------------------------------
// Machine-config validation.

TEST(MachineConfigValidation, AcceptsPaperGeometries)
{
    EXPECT_EQ(MachineConfig::monolithic().validationError(), "");
    for (unsigned n : {2u, 4u, 8u})
        EXPECT_EQ(MachineConfig::clustered(n).validationError(), "");
    EXPECT_EQ(MachineConfig::generic(16, 1).validationError(), "");
}

TEST(MachineConfigValidation, RejectsMaskOverflowingClusterCounts)
{
    MachineConfig bad = MachineConfig::generic(16, 1);
    bad.numClusters = 17;
    EXPECT_NE(bad.validationError(), "");
    bad.numClusters = 0;
    EXPECT_NE(bad.validationError(), "");
}

TEST(MachineConfigValidation, RejectsZeroResources)
{
    MachineConfig bad = MachineConfig::monolithic();
    bad.cluster.memPorts = 0;
    EXPECT_NE(bad.validationError(), "");

    bad = MachineConfig::monolithic();
    bad.windowPerCluster = 0;
    EXPECT_NE(bad.validationError(), "");

    bad = MachineConfig::monolithic();
    bad.commitWidth = 0;
    EXPECT_NE(bad.validationError(), "");
}

TEST(MachineConfigValidationDeath, SimRejectsInvalidConfig)
{
    MachineConfig bad = MachineConfig::monolithic();
    bad.numClusters = 17;
    const Trace trace = workloadTrace("gzip", 200);
    ModNSteering steer;
    AgeScheduling age;
    EXPECT_EXIT((void)TimingSim(bad, trace, steer, age),
                testing::ExitedWithCode(1), "invalid machine config");
}

// ---------------------------------------------------------------------
// Differential oracles.

TEST(Oracle, EnvelopeSumsClusterResources)
{
    const MachineConfig env =
        monolithicEnvelope(MachineConfig::clustered(8));
    EXPECT_EQ(env.numClusters, 1u);
    EXPECT_EQ(env.cluster.issueWidth, 8u);
    // clustered(8) rounds fp/mem ports up to 1 per cluster, so the
    // envelope owns 8 of each — more than the paper's 1x8w baseline.
    EXPECT_EQ(env.cluster.fpPorts, 8u);
    EXPECT_EQ(env.cluster.memPorts, 8u);
    EXPECT_EQ(env.windowPerCluster, 128u);
    EXPECT_EQ(env.fwdLatency, 0u);
    EXPECT_EQ(env.validationError(), "");
}

TEST(Oracle, BoundChecks)
{
    EXPECT_TRUE(checkCpiLowerBound(1.0, 0.9, 0.0, "x").ok);
    EXPECT_TRUE(checkCpiLowerBound(0.99, 1.0, 0.02, "x").ok);
    const OracleCheck bad = checkCpiLowerBound(0.5, 1.0, 0.02, "x");
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.detail.find("x"), std::string::npos);

    const MachineConfig mono = MachineConfig::monolithic();
    EXPECT_TRUE(checkCpiFloor(0.125, mono).ok);
    EXPECT_FALSE(checkCpiFloor(0.1, mono).ok);
}

TEST(Oracle, DifferentialBoundsHoldOnPolicyCells)
{
    const Trace trace = workloadTrace("vpr", 4000);
    ExperimentConfig cfg;
    cfg.verify.checker = true;
    cfg.verify.oracle = true;   // violations are fatal: surviving the
                                // calls is the assertion
    for (unsigned n : {1u, 2u, 4u}) {
        SCOPED_TRACE(n);
        const AggregateResult agg = runPolicyCell(
            trace, MachineConfig::clustered(n), PolicyKind::Dep, cfg);
        EXPECT_GT(agg.cpi(), 0.0);
    }
}

// ---------------------------------------------------------------------
// Fuzz input generators.

TEST(RandomInputs, ConfigsAreValidAndDeterministic)
{
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        Rng rng(seed);
        const MachineConfig c = randomMachineConfig(rng);
        EXPECT_EQ(c.validationError(), "") << "seed " << seed;
        EXPECT_LE(c.numClusters, maxClusters);
    }
    Rng a(42), b(42);
    const MachineConfig ca = randomMachineConfig(a);
    const MachineConfig cb = randomMachineConfig(b);
    EXPECT_EQ(ca.name(), cb.name());
    EXPECT_EQ(ca.robEntries, cb.robEntries);
}

TEST(RandomInputs, TracesAreWellFormedAndDeterministic)
{
    Rng a(5), b(5);
    const Trace ta = randomTrace(a, 2000);
    const Trace tb = randomTrace(b, 2000);
    ASSERT_EQ(ta.size(), 2000u);
    EXPECT_TRUE(ta.wellFormed());
    for (std::size_t i : {0ul, 500ul, 1999ul}) {
        EXPECT_EQ(ta[i].op, tb[i].op);
        EXPECT_EQ(ta[i].prod, tb[i].prod);
    }
    // A different seed produces a different instruction stream.
    Rng c(6);
    const Trace tc = randomTrace(c, 2000);
    bool differs = false;
    for (std::size_t i = 0; i < tc.size() && !differs; ++i)
        differs = tc[i].op != ta[i].op;
    EXPECT_TRUE(differs);
}

} // anonymous namespace
} // namespace csim
