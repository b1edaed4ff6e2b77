/**
 * @file
 * Workload registry: name -> builder, plus the standard preparation
 * pipeline (producer linking, branch annotation, cache annotation)
 * every consumer of a trace needs.
 */

#ifndef CSIM_WORKLOADS_REGISTRY_HH
#define CSIM_WORKLOADS_REGISTRY_HH

#include <memory>
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
 * Build a simulation-ready trace: emulate, link producers, annotate
 * branch mispredictions (gshare) and load latencies (L1 model).
 */
Trace buildAnnotatedTrace(const std::string &name,
                          const WorkloadConfig &cfg,
                          const MemoryModelConfig &mem =
                              MemoryModelConfig{},
                          unsigned gshare_bits = 16);

/**
 * Build an annotated trace into immutable shared storage. This is the
 * form the harness TraceCache hands to concurrently running experiment
 * cells: every consumer downstream of the annotation passes takes
 * `const Trace &`, so one build can back any number of cells.
 */
std::shared_ptr<const Trace>
buildSharedAnnotatedTrace(const std::string &name,
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
 * a v2 trace store file. Three stages overlap on a fixed ring of three
 * chunk buffers: emulation on one thread, producer linking plus
 * branch and memory annotation on a second, and the store append on
 * the calling thread. Peak host memory is the three chunks plus the
 * writer's column staging, O(chunkInstructions), not
 * O(targetInstructions). Because every pass (linking, gshare, L1)
 * carries its state across chunks and every stage takes the chunks
 * in order, the stored trace is byte-identical to what
 * buildAnnotatedTrace would produce with the same arguments. A failed
 * write stops and joins both producer stages; the result then has
 * ok == false and counts the instructions written before the failing
 * chunk.
 */
TraceStoreBuildResult
buildTraceStoreFile(const std::string &name, const WorkloadConfig &cfg,
                    const std::string &path,
                    std::uint64_t chunkInstructions = 1u << 16,
                    const MemoryModelConfig &mem = MemoryModelConfig{},
                    unsigned gshare_bits = 16);

} // namespace csim

#endif // CSIM_WORKLOADS_REGISTRY_HH
