/**
 * @file
 * Micro-kernels reproducing the paper's illustrative code examples:
 *
 *  - Fig. 3: convergent dataflow from bzip2 — two independent
 *    load-chains reconverging at a dyadic op feeding a branch.
 *  - Fig. 9: a single chain of dependent adds — the canonical
 *    execute-critical program that load-balance steering smears
 *    across every cluster.
 *  - Fig. 7/10: a spine-and-ribs loop with a mispredicting rib.
 *  - Fig. 12: the early-exit search loop whose most critical consumer
 *    (the loop-carried update) is last in fetch order.
 *  - A parametric wide-ILP kernel (independent chains).
 *
 * These are tiny, fully-controlled programs used by bench_paper's
 * code-examples section and the tests to demonstrate each policy
 * mechanism on exactly the dataflow shape the paper draws.
 */

#ifndef CSIM_WORKLOADS_MICRO_HH
#define CSIM_WORKLOADS_MICRO_HH

#include "workloads/workload.hh"

namespace csim {

/** Fig. 9: one dependent add chain (execute-critical, ILP 1). */
Trace buildMicroSerialChain(const WorkloadConfig &cfg);

/** Fig. 3: two 2-deep load chains converging at xor -> branch. */
Trace buildMicroConvergent(const WorkloadConfig &cfg);

/** Fig. 7/10: spine-and-ribs with a hard-to-predict rib branch. */
Trace buildMicroSpineRibs(const WorkloadConfig &cfg);

/** Fig. 12: early-exit linear search, two loop-carried deps. */
Trace buildMicroEarlyExit(const WorkloadConfig &cfg);

/** `chains` independent add chains: available ILP == chains. */
Trace buildMicroWideIlp(const WorkloadConfig &cfg, unsigned chains);

} // namespace csim

#endif // CSIM_WORKLOADS_MICRO_HH
