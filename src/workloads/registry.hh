/**
 * @file
 * Workload registry: name -> builder, plus the standard preparation
 * pipeline (producer linking, branch annotation, cache annotation)
 * every consumer of a trace needs.
 */

#ifndef CSIM_WORKLOADS_REGISTRY_HH
#define CSIM_WORKLOADS_REGISTRY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "frontend/branch_annotator.hh"
#include "mem/latency_annotator.hh"
#include "workloads/workload.hh"

namespace csim {

/** The 12 SPECint 2000 proxies, in the paper's plotting order. */
const std::vector<std::string> &workloadNames();

/** Builder for a named workload; fatals on an unknown name. */
WorkloadBuilder workloadBuilder(const std::string &name);

/** Paused-at-entry preparer for a named workload (streaming builds);
 *  fatals on an unknown name. */
WorkloadPreparer workloadPreparer(const std::string &name);

/** Build the raw (unannotated) trace for a named workload. */
Trace buildWorkloadTrace(const std::string &name,
                         const WorkloadConfig &cfg);

/**
 * Build a fully annotated trace, all twelve columns: emulate, link
 * producers, annotate branch mispredictions (gshare) and load
 * latencies (L1 model). This is the reference build: the store and
 * simulation-only builds below reproduce its columns.
 */
Trace buildAnnotatedTrace(const std::string &name,
                          const WorkloadConfig &cfg,
                          const MemoryModelConfig &mem =
                              MemoryModelConfig{},
                          unsigned gshare_bits = 16);

/** Instructions per chunk of a streaming build: the store's default
 *  chunk, and the largest trace buildSimulationTrace builds in
 *  place. */
inline constexpr std::uint64_t defaultChunkInstructions = 1u << 16;

/**
 * Build a simulation-only trace (Trace's class comment): the eight
 * simulation columns of buildAnnotatedTrace's trace, 36 B/inst, with
 * no build columns. This is the form the harness TraceCache holds and
 * shares across concurrently running cells. A trace of at most one
 * chunk (defaultChunkInstructions) is built in place and then drops
 * its build columns. A longer one streams through the pipelined
 * chunk build of buildTraceStoreFile, each annotated chunk's
 * simulation columns appended as it lands, so full-length build
 * columns are never allocated.
 */
Trace buildSimulationTrace(const std::string &name,
                           const WorkloadConfig &cfg,
                           const MemoryModelConfig &mem =
                               MemoryModelConfig{},
                           unsigned gshare_bits = 16);

/** Outcome of a streaming store build. */
struct TraceStoreBuildResult
{
    bool ok = false;
    /** Dynamic instructions written (may stop short at Halt). */
    std::uint64_t instructions = 0;
};

/**
 * Stream-build the annotated trace for a named workload directly into
 * a v2 trace store file, all twelve columns. Three stages overlap on a
 * fixed ring of three chunk buffers: emulation on one thread, producer
 * linking plus branch and memory annotation on a second, and the
 * store append on the calling thread; buildSimulationTrace runs the
 * same chunk loop with an in-memory sink. Peak host memory is the
 * three chunks, 47 B per chunk instruction each, and no writer
 * staging: O(chunkInstructions), not O(targetInstructions). Because
 * every pass (linking, gshare, L1) carries its state across chunks
 * and every stage takes the chunks in order, the stored trace is
 * byte-identical to what buildAnnotatedTrace would produce with the
 * same arguments. A failed write stops and joins both producer
 * stages; the result then has ok == false and counts the
 * instructions written before the failing chunk.
 */
TraceStoreBuildResult
buildTraceStoreFile(const std::string &name, const WorkloadConfig &cfg,
                    const std::string &path,
                    std::uint64_t chunkInstructions =
                        defaultChunkInstructions,
                    const MemoryModelConfig &mem = MemoryModelConfig{},
                    unsigned gshare_bits = 16);

} // namespace csim

#endif // CSIM_WORKLOADS_REGISTRY_HH
