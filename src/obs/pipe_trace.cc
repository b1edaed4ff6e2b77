#include "obs/pipe_trace.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/logging.hh"
#include "trace/trace_soa.hh"

namespace csim {

std::uint64_t
writePipeTrace(std::ostream &out, const Trace &trace,
               const std::vector<InstTiming> &timing,
               PipeTraceOptions options)
{
    CSIM_ASSERT(options.startInst <= options.endInst);
    CSIM_ASSERT(options.startCycle <= options.endCycle);
    const TraceSoA view = trace.soa();
    CSIM_ASSERT(timing.size() >= view.size());
    std::uint64_t traced = 0;
    const InstId end = std::min<std::uint64_t>(view.size(),
                                               options.endInst);
    for (InstId id = options.startInst; id < end; ++id) {
        const InstTiming &t = timing[id];
        if (t.fetch < options.startCycle || t.fetch >= options.endCycle)
            continue;

        // A retired instruction must have a complete, ordered
        // lifecycle; anything else is a core bug the tracer refuses to
        // paper over.
        CSIM_ASSERT(t.fetch != invalidCycle);
        CSIM_ASSERT(t.fetch <= t.dispatch);
        CSIM_ASSERT(t.dispatch <= t.issue);
        CSIM_ASSERT(t.issue <= t.complete);
        CSIM_ASSERT(t.complete < t.commit);

        // The O3PipeView lines carry only the pc and the opcode. The
        // seven lines fit in 512 bytes even with 20-digit cycles.
        char buf[512];
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
            Cycle{t.fetch}, view.pc()[id], id,
            std::string(opName(view.op()[id])).c_str(),
            static_cast<unsigned>(t.cluster),
            t.predictedCritical ? 1 : 0,
            static_cast<unsigned>(t.locLevel),
            Cycle{t.dispatch}, Cycle{t.dispatch}, Cycle{t.dispatch},
            Cycle{t.issue}, Cycle{t.complete}, Cycle{t.commit});
        out << buf;
        ++traced;
    }
    return traced;
}

} // namespace csim
