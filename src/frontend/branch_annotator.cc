#include "frontend/branch_annotator.hh"

#include "frontend/gshare.hh"
#include "trace/trace_soa.hh"

namespace csim {

BranchAnnotateResult
annotateBranches(Trace &trace, unsigned history_bits)
{
    GsharePredictor pred(history_bits);
    return annotateBranches(trace, pred);
}

BranchAnnotateResult
annotateBranches(Trace &trace, GsharePredictor &pred)
{
    BranchAnnotateResult res;
    const TraceSoA view = trace.soa();
    for (std::size_t i = 0; i < view.size(); ++i) {
        if (!view.isCondBranch(i)) {
            trace.setMispredicted(i, false);
            continue;
        }
        ++res.condBranches;
        const bool miss = pred.mispredicts(view.pc()[i], view.taken(i));
        trace.setMispredicted(i, miss);
        if (miss)
            ++res.mispredictions;
    }
    return res;
}

} // namespace csim
