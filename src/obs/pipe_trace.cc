#include "obs/pipe_trace.hh"

#include <cinttypes>
#include <cstdio>

#include "common/logging.hh"
#include "trace/trace_soa.hh"

namespace csim {

PipeTracer::PipeTracer(std::ostream &out, PipeTraceOptions options)
    : out_(out), options_(options)
{
    CSIM_ASSERT(options_.startInst <= options_.endInst);
    CSIM_ASSERT(options_.startCycle <= options_.endCycle);
}

void
PipeTracer::onRetire(InstId id, const TraceRecord &rec,
                     const InstTiming &timing)
{
    if (id < options_.startInst || id >= options_.endInst)
        return;
    if (timing.fetch < options_.startCycle ||
        timing.fetch >= options_.endCycle)
        return;

    // A retired instruction must have a complete, ordered lifecycle;
    // anything else is a core bug the tracer refuses to paper over.
    CSIM_ASSERT(timing.fetch != invalidCycle);
    CSIM_ASSERT(timing.fetch <= timing.dispatch);
    CSIM_ASSERT(timing.dispatch <= timing.issue);
    CSIM_ASSERT(timing.issue <= timing.complete);
    CSIM_ASSERT(timing.complete < timing.commit);

    char buf[256];
    std::snprintf(
        buf, sizeof buf,
        "O3PipeView:fetch:%" PRIu64 ":0x%08" PRIx64 ":0:%" PRIu64
        ":%s c%u crit=%d loc=%u\n"
        "O3PipeView:decode:%" PRIu64 "\n"
        "O3PipeView:rename:%" PRIu64 "\n"
        "O3PipeView:dispatch:%" PRIu64 "\n"
        "O3PipeView:issue:%" PRIu64 "\n"
        "O3PipeView:complete:%" PRIu64 "\n"
        "O3PipeView:retire:%" PRIu64 ":store:0\n",
        timing.fetch, rec.pc, id,
        std::string(opName(rec.op)).c_str(),
        static_cast<unsigned>(timing.cluster),
        timing.predictedCritical ? 1 : 0,
        static_cast<unsigned>(timing.locLevel),
        timing.dispatch, timing.dispatch, timing.dispatch,
        timing.issue, timing.complete, timing.commit);
    out_ << buf;
    ++traced_;
}

void
writePipeTrace(std::ostream &out, const Trace &trace,
               const std::vector<InstTiming> &timing,
               PipeTraceOptions options)
{
    const TraceSoA view = trace.soa();
    CSIM_ASSERT(timing.size() >= view.size());
    PipeTracer tracer(out, options);
    // The O3PipeView lines carry only the pc and the opcode.
    TraceRecord rec;
    for (InstId id = 0; id < view.size(); ++id) {
        rec.pc = view.pc()[id];
        rec.op = view.op()[id];
        tracer.onRetire(id, rec, timing[id]);
    }
}

} // namespace csim
