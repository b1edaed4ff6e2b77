/**
 * @file
 * One change per deterministic ExperimentConfig field, for the checks
 * that must tell every such change apart: configDigest (test_ledger)
 * and SweepSpec's cell equality (test_sweep).
 */

#ifndef CSIM_TESTS_CONFIG_KNOBS_HH
#define CSIM_TESTS_CONFIG_KNOBS_HH

#include <functional>
#include <utility>
#include <vector>

#include "harness/experiment.hh"

namespace csim {

/** A field's name and a change to it. */
using ConfigKnob =
    std::pair<const char *, std::function<void(ExperimentConfig &)>>;

inline std::vector<ConfigKnob>
configKnobs()
{
    using C = ExperimentConfig;
    return {
        {"instructions", [](C &c) { c.instructions += 1; }},
        {"seeds", [](C &c) { c.seeds.push_back(9); }},
        {"warmupRuns", [](C &c) { c.warmupRuns += 1; }},
        {"trainChunk", [](C &c) { c.trainChunk += 1; }},
        {"stallThreshold", [](C &c) { c.stallThreshold += 0.05; }},
        {"locLevels", [](C &c) { c.locLevels = 8; }},
        {"legacyStep", [](C &c) { c.simOptions.legacyStep = true; }},
        {"maxCpi", [](C &c) { c.simOptions.maxCpi += 1; }},
        {"phases",
         [](C &c) {
             c.simOptions.phases = {{"warmup", 100, true},
                                    {"measure", 0, false}};
         }},
        {"checker", [](C &c) { c.verify.checker = true; }},
        {"oracle", [](C &c) { c.verify.oracle = true; }},
        {"oracleRelTol", [](C &c) { c.verify.oracleRelTol += 0.01; }},
        {"panicOnViolation",
         [](C &c) { c.verify.panicOnViolation = false; }},
        {"profile", [](C &c) { c.profile.enabled = true; }},
        {"intervalCycles", [](C &c) { c.profile.intervalCycles += 1; }},
        {"scoreCriticality",
         [](C &c) { c.profile.scoreCriticality = false; }},
        {"regions", [](C &c) { c.regions = 4; }},
        {"regionLen", [](C &c) { c.regionLen = 100; }},
        {"regionWarmup", [](C &c) { c.regionWarmup = 50; }},
    };
}

} // namespace csim

#endif // CSIM_TESTS_CONFIG_KNOBS_HH
