/**
 * @file
 * Trace store v2: a columnar, mmap-able binary trace format.
 *
 * The store writes a trace's columns themselves: the on-disk layout
 * after the header is the twelve columns a built Trace holds (five
 * 8-byte columns, then seven byte columns, each 8-byte aligned), so
 * loading is one mmap + header validation and the mapping itself
 * backs a zero-copy TraceSoA. A simulation-only trace, which has
 * dropped four of them, cannot be stored. Pages are faulted in only
 * as they are read, and extractRegion drops them again once it has
 * copied a region out, so region sampling over a multi-hundred-MB
 * store holds one region's pages at a time, not every region it has
 * sampled.
 *
 * Writing is streaming-friendly: TraceStoreWriter preallocates the
 * column layout for a declared capacity and pwrite()s each appended
 * chunk's column slices straight from the chunk's own columns at
 * their final offsets, so build-side memory is O(chunk). finalize()
 * stamps the real instruction count and the producer-link total into
 * the header. The link total is informational: loading ignores it,
 * and nothing is sized from it.
 *
 * All multi-byte fields are little-endian; the header carries an
 * endianness tag and loads reject foreign byte order with
 * TraceIoStatus::BadEndianness instead of misinterpreting.
 */

#ifndef CSIM_TRACE_TRACE_STORE_HH
#define CSIM_TRACE_TRACE_STORE_HH

#include <cstdint>
#include <string>

#include "trace/trace.hh"
#include "trace/trace_soa.hh"

namespace csim {

/** Result of a store load attempt. */
enum class TraceIoStatus
{
    Ok,
    CannotOpen,
    BadMagic,
    BadVersion,
    Truncated,
    /** File (or host) byte order does not match little-endian. */
    BadEndianness,
};

const char *traceIoStatusName(TraceIoStatus s);

/** Metadata of a loaded store (for stats and diagnostics). */
struct TraceStoreInfo
{
    std::uint64_t instructions = 0;
    /** Bytes of the file, all of which stay mmap-ed for the view's
     *  lifetime; only the pages read since the last extractRegion
     *  are resident. */
    std::uint64_t fileBytes = 0;
};

/**
 * Incremental v2 writer: declare a capacity, append chunks, then
 * finalize. Columns live at capacity-sized fixed offsets, so chunks
 * land at their final position without buffering the whole trace.
 * The file is invalid until finalize() returns true.
 */
class TraceStoreWriter
{
  public:
    TraceStoreWriter(const std::string &path,
                     std::uint64_t capacityInstructions);
    ~TraceStoreWriter();

    TraceStoreWriter(const TraceStoreWriter &) = delete;
    TraceStoreWriter &operator=(const TraceStoreWriter &) = delete;

    /** False after any I/O error (subsequent calls are no-ops). */
    bool ok() const { return fd_ >= 0 && !failed_; }

    /**
     * Append one chunk's columns as column slices. Producer links must
     * already be global (relative to the whole stored trace, not the
     * chunk). Returns false on I/O error, capacity overflow or a
     * simulation-only chunk (one without its build columns); each
     * fails the writer.
     */
    bool append(const Trace &chunk);

    /** Stamp the header with the real count and close. */
    bool finalize();

    std::uint64_t written() const { return written_; }

  private:
    int fd_ = -1;
    bool failed_ = false;
    bool finalized_ = false;
    std::string path_;
    std::uint64_t capacity_ = 0;
    std::uint64_t written_ = 0;
    /** Valid links counted over the appended producer columns. */
    std::uint64_t producerLinks_ = 0;
};

/**
 * Write a whole in-memory trace as one v2 store (the non-streaming
 * convenience path). @return true on success; false, with no file
 * written, for a simulation-only trace.
 */
bool saveTraceStore(const Trace &trace, const std::string &path);

/**
 * Load (mmap + validate) a v2 store as a zero-copy column view: the
 * returned TraceSoA's columns point into the mapping, which stays
 * alive as long as the view (or anything holding its keepalive) does.
 * The header and column extents are validated; producer links are
 * not (the timing core rejects a link that does not precede its
 * consumer), and the header's link total is not read at all.
 * @param[out] soa Replaced on success; untouched otherwise.
 */
TraceIoStatus loadTraceStore(TraceSoA &soa, const std::string &path,
                             TraceStoreInfo *info = nullptr);

/**
 * Copy rows [base, base+len) of a column view's eight simulation
 * columns into a standalone simulation-only trace, column range by
 * column range, remapping producer links into region-local indices
 * (links reaching before the region become invalidInstId — the operand
 * was ready at dispatch, exactly the semantics of a link reaching
 * before a trace window). The view may itself be simulation-only. A
 * region of a well-formed trace is wellFormed() and feeds TimingSim
 * like any built trace. For an mmap-backed view the copy faults in
 * the touched rows' pages, and then the whole mapping's resident
 * pages are dropped (madvise MADV_DONTNEED), so the process keeps the
 * region, not the store pages it came from; a later read of the view
 * re-faults from the page cache. A view of an in-memory Trace is left
 * as it is.
 */
Trace extractRegion(const TraceSoA &soa, std::uint64_t base,
                    std::uint64_t len);

} // namespace csim

#endif // CSIM_TRACE_TRACE_STORE_HH
