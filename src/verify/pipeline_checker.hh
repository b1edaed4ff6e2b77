/**
 * @file
 * Pipeline invariant checker.
 *
 * The paper's claims are bounds over the timing model, so a silently
 * broken timing invariant poisons every reproduced figure at once.
 * PipelineChecker re-derives, independently of the core's own
 * bookkeeping, every invariant the clustered machine must honour and
 * counts violations into `verify.*` stats (panicking immediately when
 * asked to):
 *
 *  - monotone stage timestamps per instruction:
 *      fetch <= dispatch (>= fetch + frontendDepth),
 *      dispatch + 1 <= ready <= issue < complete (= issue + execLat)
 *      < commit;
 *  - in-order steer and commit, program-order instruction ids;
 *  - per-cluster window-occupancy conservation: the checker's own
 *    enter/exit balance must equal the core's occupancy() every cycle
 *    and never exceed windowPerCluster;
 *  - per-cluster-cycle issue width and int/fp/mem port bounds, plus
 *    dispatch- and commit-width bounds;
 *  - ROB occupancy (steered-but-uncommitted) <= robEntries;
 *  - the bypass lower bound: a consumer's ready/issue can never
 *    precede producer.complete, plus fwdLatency for cross-cluster
 *    register operands.
 *
 * Two entry points share the same invariant set: a live SimObserver
 * attached through SimOptions::checker (validates while the run
 * unfolds, catching transient states a post-hoc look cannot see), and
 * auditTiming(), which replays the checks over a finished SimResult's
 * timing records — the hammer the negative tests and the fuzzer use
 * on deliberately corrupted schedules.
 */

#ifndef CSIM_VERIFY_PIPELINE_CHECKER_HH
#define CSIM_VERIFY_PIPELINE_CHECKER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/machine_config.hh"
#include "core/sim_observer.hh"
#include "core/timing.hh"
#include "obs/stats_registry.hh"
#include "trace/trace.hh"
#include "trace/trace_soa.hh"

namespace csim {

/** The invariant families the checker distinguishes. */
enum class Invariant : std::uint8_t
{
    Monotone,   ///< stage timestamp ordering / latency consistency
    Order,      ///< in-order steer and commit, program-order ids
    Occupancy,  ///< window enter/exit conservation and bounds
    Width,      ///< issue/port/dispatch/commit per-cycle bounds
    Rob,        ///< ROB occupancy bound
    Bypass,     ///< operand availability incl. forwarding latency
    NumInvariants
};

inline constexpr std::size_t numInvariants =
    static_cast<std::size_t>(Invariant::NumInvariants);

/** Dotted-stat segment / display name of an invariant family. */
const char *invariantName(Invariant inv);

/** Violation tally of a checker pass (live or post-hoc audit). */
struct VerifyReport
{
    std::array<std::uint64_t, numInvariants> byClass = {};
    /** Human-readable description of the first violation seen. */
    std::string firstDetail;
    std::uint64_t checkedInstructions = 0;
    std::uint64_t checkedCycles = 0;

    std::uint64_t
    violations() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t v : byClass)
            sum += v;
        return sum;
    }

    std::uint64_t
    count(Invariant inv) const
    {
        return byClass[static_cast<std::size_t>(inv)];
    }

    bool ok() const { return violations() == 0; }

    /** Record one violation (keeps the first detail string). */
    void record(Invariant inv, std::string detail);
};

struct PipelineCheckerOptions
{
    /**
     * Abort on the first violation with the full detail message
     * (CSIM_PANIC_F). The harness turns this on so CI dies loudly at
     * the broken cycle; the fuzzer leaves it off and inspects the
     * report to dump a reproducer instead.
     */
    bool panicOnViolation = false;
};

/**
 * Live invariant checker. Construct with the *intended* machine
 * geometry — normally the same config the TimingSim runs — and attach
 * through SimOptions::checker. (The negative tests exploit the
 * separation: a checker constructed with a stricter geometry than the
 * sim's flags exactly the faults the gap injects, e.g. a dropped
 * forwarding latency or an oversubscribed window.)
 *
 * The report accumulates across runs; live per-run state resets at
 * onRunStart, so one checker can watch warmup + measured runs.
 */
class PipelineChecker : public SimObserver
{
  public:
    PipelineChecker(const MachineConfig &config, const Trace &trace,
                    PipelineCheckerOptions options =
                        PipelineCheckerOptions{});

    // SimObserver interface.
    void onRunStart(const CoreView &view) override;
    void onSteer(const CoreView &view, InstId id) override;
    void onIssue(const CoreView &view, InstId id) override;
    void onCommit(const CoreView &view, InstId id) override;
    void onCycleEnd(const CoreView &view) override;
    void registerStats(StatsRegistry &registry) override;

    const VerifyReport &report() const { return report_; }
    std::uint64_t violations() const { return report_.violations(); }

  private:
    /** Record (and optionally panic on) one violation. */
    void violation(Invariant inv, std::string detail);

    /** onIssue's operand-availability bounds. */
    void checkOperands(const CoreView &view, InstId id);

    struct ClusterState
    {
        std::uint64_t entered = 0;
        std::uint64_t exited = 0;
        // Per-cycle port use, reset at every cycle end.
        unsigned total = 0;
        unsigned intU = 0;
        unsigned fpU = 0;
        unsigned memU = 0;
    };

    const MachineConfig config_;
    /** The trace's column view (the trace must outlive the checker). */
    const TraceSoA trace_;
    PipelineCheckerOptions options_;

    VerifyReport report_;

    // Live per-run state.
    InstId nextSteer_ = 0;
    InstId nextCommit_ = 0;
    Cycle lastDispatch_ = 0;
    Cycle lastCommit_ = 0;
    std::uint64_t inFlight_ = 0;
    unsigned steersThisCycle_ = 0;
    unsigned commitsThisCycle_ = 0;
    std::vector<ClusterState> clusters_;

    // Optional registry bindings (mirror the report counts).
    Counter *statCheckedInsts_ = nullptr;
    Counter *statCheckedCycles_ = nullptr;
    Counter *statViolations_ = nullptr;
    std::array<Counter *, numInvariants> statByClass_ = {};
};

/**
 * Post-hoc audit: replay every checker invariant over the final
 * timing records of a finished run (occupancy and ROB bounds are
 * reconstructed from the dispatch/issue/commit event streams). Never
 * panics — callers inspect the returned report. Costs O(n log n) in
 * the instruction count whatever the stamps hold: any cycle other
 * than invalidCycle is valid. Violations are recorded in a fixed
 * order, which decides firstDetail: per-instruction checks in program
 * order, then issue/port groups by (cluster, cycle), commit width,
 * dispatch width, the window walk per cluster, and the ROB walk.
 */
VerifyReport auditTiming(const Trace &trace,
                         const std::vector<InstTiming> &timing,
                         const MachineConfig &config);

} // namespace csim

#endif // CSIM_VERIFY_PIPELINE_CHECKER_HH
