#include "listsched/region.hh"

#include "common/logging.hh"
#include "trace/trace_soa.hh"

namespace csim {

std::vector<Region>
splitRegions(const Trace &trace, std::uint64_t max_length)
{
    CSIM_ASSERT(max_length >= 1);
    std::vector<Region> regions;
    const TraceSoA view = trace.soa();
    const std::uint64_t n = view.size();
    std::uint64_t begin = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const bool mispred = view.isCondBranch(i) && view.mispredicted(i);
        const bool full = (i + 1 - begin) >= max_length;
        if (mispred || full || i + 1 == n) {
            regions.push_back(Region{begin, i + 1, mispred});
            begin = i + 1;
        }
    }
    return regions;
}

} // namespace csim
