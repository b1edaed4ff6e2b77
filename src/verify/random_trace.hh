/**
 * @file
 * Seeded random machine geometries and synthetic traces for the
 * differential fuzzer.
 *
 * Both generators draw only from Rng, so a fuzz case is reproducible
 * from its 64-bit seed alone — the reproducer a failing run prints is
 * just the seed and the derived geometry. Generated traces always
 * satisfy Trace::wellFormed() and generated configs always pass
 * MachineConfig::validate(); the fuzzer's job is to stress the timing
 * model, not the input validators.
 */

#ifndef CSIM_VERIFY_RANDOM_TRACE_HH
#define CSIM_VERIFY_RANDOM_TRACE_HH

#include <cstdint>

#include "common/rng.hh"
#include "core/machine_config.hh"
#include "trace/trace.hh"

namespace csim {

/**
 * A random but valid machine geometry: 1..16 clusters of width 1..4,
 * nonzero ports of every class, small-to-paper-sized windows and
 * stage widths, a 1..600-entry ROB, and forwarding latency 0..4.
 * Deliberately includes degenerate shapes (1-entry windows and ROBs,
 * single-port clusters, zero-latency forwarding) — those corners are
 * where occupancy, ring-aliasing and bypass bugs live.
 */
MachineConfig randomMachineConfig(Rng &rng);

/**
 * A random producer-linked trace of @p instructions records: a mix of
 * int/mul/fp/div ops, loads and stores (some linked store-to-load),
 * and branches (some annotated mispredicted), with register operands
 * wired to random recent producers. Latencies follow the opcode
 * model, with a slice of loads promoted to cache-miss latencies.
 */
Trace randomTrace(Rng &rng, std::uint64_t instructions);

} // namespace csim

#endif // CSIM_VERIFY_RANDOM_TRACE_HH
