#include "mem/latency_annotator.hh"

#include "common/logging.hh"
#include "trace/trace_soa.hh"

namespace csim {

MemAnnotateResult
annotateMemory(Trace &trace, const MemoryModelConfig &config)
{
    Cache l1(config.l1);
    return annotateMemory(trace, l1, config);
}

MemAnnotateResult
annotateMemory(Trace &trace, Cache &l1, const MemoryModelConfig &config)
{
    trace.requireBuildColumns("annotateMemory");
    MemAnnotateResult res;

    const TraceSoA view = trace.soa();
    for (std::size_t i = 0; i < view.size(); ++i) {
        if (view.isLoad(i)) {
            bool hit = l1.access(view.memAddr()[i]);
            trace.setL1Miss(i, !hit);
            unsigned lat = config.loadToUse + (hit ? 0 : config.l2Latency);
            CSIM_ASSERT(lat <= 255);
            trace.setExecLat(i, static_cast<std::uint8_t>(lat));
            if (!hit)
                ++res.loadMisses;
        } else if (view.isStore(i)) {
            l1.access(view.memAddr()[i]);
        }
    }

    res.l1 = l1.stats();
    return res;
}

} // namespace csim
