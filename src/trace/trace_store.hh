/**
 * @file
 * Trace store v2: a columnar, mmap-able binary trace format.
 *
 * The v1 format (trace_io) freads 48-byte packed AoS records into a
 * std::vector — loading a 10M-instruction trace costs a full pass of
 * per-record copies and ~640 MB of AoS heap before the SoA view is
 * even built. The v2 store writes the *columns* themselves: the
 * on-disk layout after the header is exactly TraceSoA's column arena
 * (five 8-byte columns, then seven byte columns, each 8-byte aligned),
 * so loading is one mmap + header validation and the mapping itself
 * backs a zero-copy TraceSoA. Pages are faulted in only as the timing
 * core touches them, which is what lets region-sampled runs over a
 * multi-hundred-MB store stay within a small resident set.
 *
 * Writing is streaming-friendly: TraceStoreWriter preallocates the
 * column layout for a declared capacity and pwrite()s each appended
 * chunk's column slices at their final offsets, staged through
 * buffers it reuses from chunk to chunk, so build-side memory is
 * O(chunk). finalize() stamps the real instruction count (and the
 * producer-link total the timing core needs to size its waiter pool)
 * into the header.
 *
 * An optional per-column LEB128 varint mode (saveTraceStore with
 * compressWide) shrinks the five wide columns — pc/memAddr deltas are
 * small and most producer links are near sentinels — at the cost of a
 * decode pass into an owned arena on load (no zero-copy).
 *
 * All multi-byte fields are little-endian; the header carries an
 * endianness tag and loads reject foreign byte order with
 * TraceIoStatus::BadEndianness instead of misinterpreting.
 */

#ifndef CSIM_TRACE_TRACE_STORE_HH
#define CSIM_TRACE_TRACE_STORE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace_io.hh"
#include "trace/trace_soa.hh"

namespace csim {

struct TraceStoreOptions
{
    /** LEB128-encode the five wide (8-byte) columns. Compressed
     *  stores load into an owned arena instead of zero-copy mmap. */
    bool compressWide = false;
};

/** Metadata of a loaded store (for stats and diagnostics). */
struct TraceStoreInfo
{
    std::uint64_t instructions = 0;
    std::uint64_t fileBytes = 0;
    /** Bytes kept mmap-ed for the view's lifetime (0 when the load
     *  decoded into an owned arena). */
    std::uint64_t mappedBytes = 0;
    bool compressed = false;
};

/**
 * Incremental v2 writer: declare a capacity, append AoS chunks, then
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
     * Append one chunk's records as column slices. Producer links must
     * already be global (relative to the whole stored trace, not the
     * chunk). Returns false on I/O error or capacity overflow.
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
    std::uint64_t producerLinks_ = 0;
    /** One appended chunk's columns, transposed for pwrite(): the
     *  five wide columns, then the seven byte columns, each a
     *  contiguous chunk-sized slice. Reused across append() calls. */
    std::vector<std::uint64_t> wideStage_;
    std::vector<std::uint8_t> narrowStage_;
};

/**
 * Write a whole in-memory trace as one v2 store (the non-streaming
 * convenience path; the only way to produce a compressed store).
 * @return true on success.
 */
bool saveTraceStore(const Trace &trace, const std::string &path,
                    TraceStoreOptions opts = {});

/**
 * Load (mmap + validate) a v2 store as a column view. Uncompressed
 * stores are zero-copy: the returned TraceSoA's columns point into
 * the mapping, which stays alive as long as the view (or anything
 * holding its keepalive) does. Compressed stores decode into an owned
 * arena. @param[out] soa Replaced on success; untouched otherwise.
 */
TraceIoStatus loadTraceStore(TraceSoA &soa, const std::string &path,
                             TraceStoreInfo *info = nullptr);

/**
 * Materialize rows [base, base+len) of a column view as a standalone
 * AoS trace, remapping producer links into region-local indices
 * (links reaching before the region become invalidInstId — the
 * operand was ready at dispatch, exactly the semantics of a link
 * reaching before a trace window). The result is wellFormed() and
 * feeds TimingSim like any built trace; only the touched rows' pages
 * of an mmap-backed view are faulted in.
 */
Trace extractRegion(const TraceSoA &soa, std::uint64_t base,
                    std::uint64_t len);

} // namespace csim

#endif // CSIM_TRACE_TRACE_STORE_HH
