/**
 * @file
 * Chrome trace-event export of interval-profiler series.
 *
 * Writes the JSON object format understood by chrome://tracing and
 * Perfetto: one process per profiled run (cell), one thread track per
 * cluster carrying a complete ("X") event per interval whose duration
 * is the interval's cycle span and whose args hold issue/occupancy
 * utilization, plus counter ("C") tracks for the CPI-stack components
 * and the predictor telemetry. Cycles are mapped 1:1 onto trace
 * microseconds, so the timeline ruler reads directly in cycles.
 *
 * The emitter writes its own JSON: src/obs sits below src/harness in
 * the link order, so the harness's JsonWriter is not reachable from
 * here (and the format is flat enough not to need it).
 */

#ifndef CSIM_OBS_CHROME_TRACE_HH
#define CSIM_OBS_CHROME_TRACE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/interval_profiler.hh"

namespace csim {

/** One run's series plus its display label ("gcc/4x2w/focused"). */
struct ChromeTraceRun
{
    std::string label;
    IntervalSeries series;
};

/**
 * Write all runs into one trace: each run becomes a process (pid =
 * index + 1) named by its label. Emission is fully deterministic —
 * iteration order is the caller's run order, so byte-identical inputs
 * yield byte-identical traces.
 */
void writeChromeTrace(std::ostream &os,
                      const std::vector<ChromeTraceRun> &runs);

/** Convenience wrapper: open `path` and write; panics on I/O failure. */
void writeChromeTraceFile(const std::string &path,
                          const std::vector<ChromeTraceRun> &runs);

} // namespace csim

#endif // CSIM_OBS_CHROME_TRACE_HH
