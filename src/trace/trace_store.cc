#include "trace/trace_store.hh"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"

namespace csim {

namespace {

constexpr char storeMagic[8] = {'c', 's', 'i', 'm', 't', 'r', 'c', '2'};
constexpr std::uint32_t storeVersion = 2;
/** Written as 0x01020304 by a little-endian host; any other byte
 *  order reads it back differently. */
constexpr std::uint32_t endianTag = 0x01020304u;
/** Header flag bits this version understands (none: bit 0 once
 *  marked a varint-compressed layout, which is no longer read). */
constexpr std::uint32_t knownFlags = 0;

/** Columns in file order: five wide, then seven byte. */
constexpr std::size_t numColumns = 12;
constexpr std::size_t columnElemBytes[numColumns] = {8, 8, 8, 8, 8,
                                                     1, 1, 1, 1, 1,
                                                     1, 1};
static_assert(Trace::bytesPerInstruction == 5 * 8 + 7 * 1,
              "the store holds exactly a Trace's columns");

struct ColumnDesc
{
    std::uint64_t offset; ///< from file start; 8-byte aligned
    std::uint64_t bytes;  ///< count * element bytes
};

struct StoreHeader
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t endian;
    std::uint64_t count;
    std::uint64_t capacity;
    /** Valid producer links over all slots. Written for format
     *  stability; the loader ignores it, since nothing a reader sizes
     *  may come from an unchecked file field. */
    std::uint64_t producerLinks;
    std::uint32_t flags;
    std::uint32_t columnCount;
    ColumnDesc col[numColumns];
};

// The header is written/read as raw bytes, so its layout is the file
// format; pin it down.
static_assert(sizeof(ColumnDesc) == 16);
static_assert(sizeof(StoreHeader) == 240,
              "trace v2 header must stay 240 bytes");
static_assert(offsetof(StoreHeader, count) == 16 &&
                  offsetof(StoreHeader, flags) == 40 &&
                  offsetof(StoreHeader, col) == 48,
              "trace v2 header field offsets changed");
static_assert(sizeof(StoreHeader) % 8 == 0,
              "column offsets right after the header must stay "
              "8-byte aligned");
static_assert(sizeof(Addr) == 8 && sizeof(InstId) == 8 &&
                  sizeof(Opcode) == 1 && sizeof(OpClass) == 1 &&
                  sizeof(RegIndex) == 1,
              "column element types changed size; bump the store "
              "version");

std::uint64_t
alignUp8(std::uint64_t v)
{
    return (v + 7) & ~std::uint64_t{7};
}

/** Fixed (capacity-sized) column offsets for the raw layout. */
void
rawLayout(std::uint64_t capacity, ColumnDesc out[numColumns])
{
    std::uint64_t offset = sizeof(StoreHeader);
    for (std::size_t c = 0; c < numColumns; ++c) {
        out[c].offset = offset;
        out[c].bytes = capacity * columnElemBytes[c];
        offset = alignUp8(offset + out[c].bytes);
    }
}

std::uint64_t
rawLayoutEnd(std::uint64_t capacity)
{
    ColumnDesc col[numColumns];
    rawLayout(capacity, col);
    return alignUp8(col[numColumns - 1].offset +
                    col[numColumns - 1].bytes);
}

bool
pwriteAll(int fd, const void *buf, std::size_t len, std::uint64_t off)
{
    const char *p = static_cast<const char *>(buf);
    while (len > 0) {
        const ssize_t n = ::pwrite(fd, p, len, static_cast<off_t>(off));
        if (n <= 0)
            return false;
        p += n;
        len -= static_cast<std::size_t>(n);
        off += static_cast<std::uint64_t>(n);
    }
    return true;
}

/** Column c of a view, in file order. */
const void *
columnData(const TraceSoA &view, std::size_t c)
{
    switch (c) {
      case 0: return view.pc().data();
      case 1: return view.memAddr().data();
      case 2: case 3: case 4:
        return view.prod(static_cast<int>(c) - 2).data();
      case 5: return view.op().data();
      case 6: return view.cls().data();
      case 7: return view.execLat().data();
      case 8: return view.flags().data();
      case 9: return view.dest().data();
      case 10: return view.src1().data();
      case 11: return view.src2().data();
      default: CSIM_PANIC("columnData: bad column");
    }
}

struct Unmapper
{
    std::size_t len;
    void
    operator()(const void *base) const
    {
        ::munmap(const_cast<void *>(base), len);
    }
};

struct FdCloser
{
    int fd;
    ~FdCloser()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

/**
 * Drop a store view's pages from this process's resident set. The
 * mapping is private, read-only and never written, so this discards
 * no data: a later read re-faults its page from the page cache. The
 * whole mapping goes, not just the rows a region copied, because a
 * read fault also maps neighbouring pages (fault-around) that a
 * row-range release would leave resident; the kernel skips the
 * unpopulated ranges. A release the kernel refuses (a locked
 * mapping) only leaves the pages resident, so its result is ignored.
 */
void
releaseResidentPages(const TraceSoA &soa)
{
    const std::span<const std::byte> mapped = soa.mapped();
    if (!mapped.empty())
        (void)::madvise(const_cast<std::byte *>(mapped.data()),
                        mapped.size(), MADV_DONTNEED);
}

} // anonymous namespace

const char *
traceIoStatusName(TraceIoStatus s)
{
    switch (s) {
      case TraceIoStatus::Ok: return "ok";
      case TraceIoStatus::CannotOpen: return "cannot open";
      case TraceIoStatus::BadMagic: return "bad magic";
      case TraceIoStatus::BadVersion: return "bad version";
      case TraceIoStatus::Truncated: return "truncated";
      case TraceIoStatus::BadEndianness: return "bad endianness";
      default: return "unknown";
    }
}

TraceStoreWriter::TraceStoreWriter(const std::string &path,
                                   std::uint64_t capacityInstructions)
    : path_(path), capacity_(capacityInstructions)
{
    fd_ = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd_ < 0)
        return;
    // Placeholder header (count 0): a writer that dies before
    // finalize() leaves an explicitly empty store, not garbage.
    StoreHeader hdr = {};
    std::memcpy(hdr.magic, storeMagic, sizeof(storeMagic));
    hdr.version = storeVersion;
    hdr.endian = endianTag;
    hdr.count = 0;
    hdr.capacity = capacity_;
    hdr.flags = 0;
    hdr.columnCount = numColumns;
    rawLayout(capacity_, hdr.col);
    for (std::size_t c = 0; c < numColumns; ++c)
        hdr.col[c].bytes = 0;
    if (!pwriteAll(fd_, &hdr, sizeof(hdr), 0))
        failed_ = true;
}

TraceStoreWriter::~TraceStoreWriter()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
TraceStoreWriter::append(const Trace &chunk)
{
    if (!ok() || finalized_)
        return false;
    // A simulation-only chunk has no addresses or register names to
    // store; writing zeros in their place would corrupt the store.
    if (!chunk.hasBuildColumns() ||
        written_ + chunk.size() > capacity_) {
        failed_ = true;
        return false;
    }
    if (chunk.empty())
        return true;

    ColumnDesc col[numColumns];
    rawLayout(capacity_, col);
    const TraceSoA view = chunk.soa();
    const std::size_t n = view.size();
    for (std::size_t c = 0; c < numColumns; ++c) {
        const std::uint64_t off =
            col[c].offset + written_ * columnElemBytes[c];
        if (!pwriteAll(fd_, columnData(view, c), n * columnElemBytes[c],
                       off)) {
            failed_ = true;
            return false;
        }
    }
    for (int slot = 0; slot < numSrcSlots; ++slot)
        for (const InstId p : view.prod(slot))
            producerLinks_ += p != invalidInstId;
    written_ += n;
    return true;
}

bool
TraceStoreWriter::finalize()
{
    if (!ok() || finalized_)
        return false;
    StoreHeader hdr = {};
    std::memcpy(hdr.magic, storeMagic, sizeof(storeMagic));
    hdr.version = storeVersion;
    hdr.endian = endianTag;
    hdr.count = written_;
    hdr.capacity = capacity_;
    hdr.producerLinks = producerLinks_;
    hdr.flags = 0;
    hdr.columnCount = numColumns;
    rawLayout(capacity_, hdr.col);
    for (std::size_t c = 0; c < numColumns; ++c)
        hdr.col[c].bytes = written_ * columnElemBytes[c];
    // Extend to the full capacity layout (sparse when written_ <
    // capacity_) so every column's extent is inside the file.
    if (::ftruncate(fd_, static_cast<off_t>(rawLayoutEnd(capacity_))) !=
            0 ||
        !pwriteAll(fd_, &hdr, sizeof(hdr), 0)) {
        failed_ = true;
        return false;
    }
    finalized_ = true;
    ::close(fd_);
    fd_ = -1;
    return true;
}

bool
saveTraceStore(const Trace &trace, const std::string &path)
{
    if (!trace.hasBuildColumns())
        return false;
    TraceStoreWriter writer(path, trace.size());
    return writer.append(trace) && writer.finalize();
}

TraceIoStatus
loadTraceStore(TraceSoA &soa, const std::string &path,
               TraceStoreInfo *info)
{
    if constexpr (std::endian::native != std::endian::little)
        return TraceIoStatus::BadEndianness;

    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return TraceIoStatus::CannotOpen;
    FdCloser closer{fd};

    struct stat st = {};
    if (::fstat(fd, &st) != 0)
        return TraceIoStatus::CannotOpen;
    const std::uint64_t file_bytes =
        static_cast<std::uint64_t>(st.st_size);
    if (file_bytes < sizeof(storeMagic))
        return TraceIoStatus::Truncated;

    char got_magic[sizeof(storeMagic)];
    if (::pread(fd, got_magic, sizeof(got_magic), 0) !=
        static_cast<ssize_t>(sizeof(got_magic)))
        return TraceIoStatus::Truncated;
    if (std::memcmp(got_magic, storeMagic, 7) != 0)
        return TraceIoStatus::BadMagic;
    // Shared "csimtrc" prefix, different tail: the retired v1
    // format's NUL-terminated magic is a version mismatch, anything
    // else is not one of our trace files.
    if (got_magic[7] != storeMagic[7])
        return got_magic[7] == '\0' ? TraceIoStatus::BadVersion
                                    : TraceIoStatus::BadMagic;
    if (file_bytes < sizeof(StoreHeader))
        return TraceIoStatus::Truncated;

    void *base = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE,
                        fd, 0);
    if (base == MAP_FAILED)
        return TraceIoStatus::CannotOpen;
    std::shared_ptr<const void> mapping(
        base, Unmapper{static_cast<std::size_t>(file_bytes)});

    StoreHeader hdr;
    std::memcpy(&hdr, base, sizeof(hdr));
    if (hdr.version != storeVersion || hdr.columnCount != numColumns ||
        (hdr.flags & ~knownFlags))
        return TraceIoStatus::BadVersion;
    if (hdr.endian != endianTag)
        return TraceIoStatus::BadEndianness;
    if (hdr.count > hdr.capacity)
        return TraceIoStatus::Truncated;
    for (std::size_t c = 0; c < numColumns; ++c) {
        const ColumnDesc &col = hdr.col[c];
        // Extent check phrased to be immune to uint64 wrap: a crafted
        // col.bytes near 2^64 must not pass via offset+bytes overflow
        // and then read past the mapping.
        if (col.offset % 8 != 0 || col.offset < sizeof(StoreHeader) ||
            col.offset > static_cast<std::uint64_t>(file_bytes) ||
            col.bytes >
                static_cast<std::uint64_t>(file_bytes) - col.offset ||
            col.bytes != hdr.count * columnElemBytes[c])
            return TraceIoStatus::Truncated;
    }

    const std::byte *map = static_cast<const std::byte *>(base);
    TraceSoA::Columns cols;
    cols.size = hdr.count;
    cols.pc = reinterpret_cast<const Addr *>(map + hdr.col[0].offset);
    cols.memAddr = reinterpret_cast<const Addr *>(map + hdr.col[1].offset);
    for (int slot = 0; slot < numSrcSlots; ++slot)
        cols.prod[slot] = reinterpret_cast<const InstId *>(
            map + hdr.col[2 + slot].offset);
    cols.op = reinterpret_cast<const Opcode *>(map + hdr.col[5].offset);
    cols.cls = reinterpret_cast<const OpClass *>(map + hdr.col[6].offset);
    cols.execLat =
        reinterpret_cast<const std::uint8_t *>(map + hdr.col[7].offset);
    cols.flags =
        reinterpret_cast<const std::uint8_t *>(map + hdr.col[8].offset);
    cols.dest = reinterpret_cast<const RegIndex *>(map + hdr.col[9].offset);
    cols.src1 =
        reinterpret_cast<const RegIndex *>(map + hdr.col[10].offset);
    cols.src2 =
        reinterpret_cast<const RegIndex *>(map + hdr.col[11].offset);
    if (info) {
        info->instructions = hdr.count;
        info->fileBytes = file_bytes;
    }
    soa = TraceSoA(cols, std::move(mapping),
                   {map, static_cast<std::size_t>(file_bytes)});
    return TraceIoStatus::Ok;
}

Trace
extractRegion(const TraceSoA &soa, std::uint64_t base,
              std::uint64_t len)
{
    CSIM_ASSERT(base <= soa.size());
    const std::uint64_t n = std::min(len, soa.size() - base);
    auto copy = [&](auto &dst, auto column) {
        const auto rows = column.subspan(base, n);
        dst.assign(rows.begin(), rows.end());
    };
    Trace region;
    region.buildColumns_ = false;
    copy(region.pc_, soa.pc());
    for (int slot = 0; slot < numSrcSlots; ++slot) {
        const InstId *src = soa.prod(slot).data() + base;
        std::vector<InstId> &dst = region.prod_[slot];
        dst.resize(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            const InstId p = src[i];
            dst[i] = p != invalidInstId && p >= base ? p - base
                                                     : invalidInstId;
        }
    }
    copy(region.op_, soa.op());
    copy(region.cls_, soa.cls());
    copy(region.execLat_, soa.execLat());
    copy(region.flags_, soa.flags());
    releaseResidentPages(soa);
    return region;
}

} // namespace csim
