#include "trace/trace_store.hh"

#include <bit>
#include <cstddef>
#include <cstring>
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
constexpr std::uint32_t flagCompressWide = 1u << 0;
constexpr std::uint32_t knownFlags = flagCompressWide;

/** Columns in TraceSoA arena order: five wide, then seven byte. */
constexpr std::size_t numColumns = 12;
constexpr std::size_t numWideColumns = 2 + numSrcSlots;
constexpr std::size_t numByteColumns = numColumns - numWideColumns;
constexpr std::size_t columnElemBytes[numColumns] = {8, 8, 8, 8, 8,
                                                     1, 1, 1, 1, 1,
                                                     1, 1};

struct ColumnDesc
{
    std::uint64_t offset; ///< from file start; 8-byte aligned
    std::uint64_t bytes;  ///< encoded bytes (count*elem when raw)
};

struct StoreHeader
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t endian;
    std::uint64_t count;
    std::uint64_t capacity;
    std::uint64_t producerLinks;
    std::uint32_t flags;
    std::uint32_t columnCount;
    ColumnDesc col[numColumns];
};

// The header is written/read as raw bytes, so its layout is the file
// format; pin it down like trace_io's DiskRecord.
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

std::uint8_t
packFlags(const TraceRecord &rec)
{
    std::uint8_t f = 0;
    if (rec.isBranch)
        f |= TraceSoA::flagIsBranch;
    if (rec.isCondBranch)
        f |= TraceSoA::flagIsCondBranch;
    if (rec.taken)
        f |= TraceSoA::flagTaken;
    if (rec.mispredicted)
        f |= TraceSoA::flagMispredicted;
    if (rec.l1Miss)
        f |= TraceSoA::flagL1Miss;
    if (rec.hasDest())
        f |= TraceSoA::flagHasDest;
    return f;
}

/**
 * Transpose one chunk into column-major staging, reusing the buffers'
 * capacity: wide column c fills wide[c*n, (c+1)*n), byte column c
 * fills narrow[(c - numWideColumns)*n, ...). One pass over the rows.
 * @return the chunk's valid producer links.
 */
std::uint64_t
stageColumns(const Trace &chunk, std::vector<std::uint64_t> &wide,
             std::vector<std::uint8_t> &narrow)
{
    const std::size_t n = chunk.size();
    wide.resize(numWideColumns * n);
    narrow.resize(numByteColumns * n);
    std::uint64_t *const w = wide.data();
    std::uint8_t *const b = narrow.data();
    std::uint64_t producerLinks = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord &rec = chunk[i];
        w[i] = rec.pc;
        w[n + i] = rec.memAddr;
        for (int slot = 0; slot < numSrcSlots; ++slot) {
            w[(2 + slot) * n + i] = rec.prod[slot];
            if (rec.prod[slot] != invalidInstId)
                ++producerLinks;
        }
        b[i] = static_cast<std::uint8_t>(rec.op);
        b[n + i] = static_cast<std::uint8_t>(rec.cls);
        b[2 * n + i] = rec.execLat;
        b[3 * n + i] = packFlags(rec);
        b[4 * n + i] = rec.dest;
        b[5 * n + i] = rec.src1;
        b[6 * n + i] = rec.src2;
    }
    return producerLinks;
}

/** Column c of an n-row chunk staged by stageColumns. */
const void *
stagedColumn(const std::vector<std::uint64_t> &wide,
             const std::vector<std::uint8_t> &narrow, std::size_t n,
             std::size_t c)
{
    return c < numWideColumns
        ? static_cast<const void *>(wide.data() + c * n)
        : static_cast<const void *>(narrow.data() +
                                    (c - numWideColumns) * n);
}

// --- LEB128 (unsigned varint) for the compressed wide columns. ---
//
// Producer columns are mostly the all-ones sentinel, which a plain
// varint would inflate to ten bytes; encode prod values biased by +1
// so the sentinel wraps to 0 (one byte). Guarded by the 2^40 id bound
// the timing core already enforces, +1 cannot collide with it.

void
leb128Put(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

bool
leb128Get(const std::uint8_t *&p, const std::uint8_t *end,
          std::uint64_t &v)
{
    v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        if (p == end)
            return false;
        const std::uint8_t byte = *p++;
        // The 10th byte holds only bit 64 of the value: any payload
        // above 0x01 (or a continuation bit) would shift past 64 bits
        // and silently truncate, so a crafted file must be rejected,
        // not decoded to a wrong value.
        if (shift == 63 && byte > 0x01)
            return false;
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return true;
    }
    return false;
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

} // anonymous namespace

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
    if (written_ + chunk.size() > capacity_) {
        failed_ = true;
        return false;
    }
    if (chunk.empty())
        return true;

    ColumnDesc col[numColumns];
    rawLayout(capacity_, col);
    const std::size_t n = chunk.size();
    const std::uint64_t links =
        stageColumns(chunk, wideStage_, narrowStage_);
    for (std::size_t c = 0; c < numColumns; ++c) {
        const std::uint64_t off =
            col[c].offset + written_ * columnElemBytes[c];
        if (!pwriteAll(fd_, stagedColumn(wideStage_, narrowStage_, n, c),
                       n * columnElemBytes[c], off)) {
            failed_ = true;
            return false;
        }
    }
    producerLinks_ += links;
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
saveTraceStore(const Trace &trace, const std::string &path,
               TraceStoreOptions opts)
{
    if (!opts.compressWide) {
        TraceStoreWriter writer(path, trace.size());
        return writer.append(trace) && writer.finalize();
    }

    const int fd =
        ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0)
        return false;
    FdCloser closer{fd};

    std::vector<std::uint64_t> wide;
    std::vector<std::uint8_t> narrow;
    const std::uint64_t links = stageColumns(trace, wide, narrow);
    const std::size_t n = trace.size();

    std::vector<std::uint8_t> encoded[numWideColumns];
    for (std::size_t c = 0; c < numWideColumns; ++c) {
        encoded[c].reserve(n * 2);
        const bool isProd = c >= 2;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t v = wide[c * n + i];
            leb128Put(encoded[c], isProd ? v + 1 : v);
        }
    }

    StoreHeader hdr = {};
    std::memcpy(hdr.magic, storeMagic, sizeof(storeMagic));
    hdr.version = storeVersion;
    hdr.endian = endianTag;
    hdr.count = n;
    hdr.capacity = n;
    hdr.producerLinks = links;
    hdr.flags = flagCompressWide;
    hdr.columnCount = numColumns;
    std::uint64_t offset = sizeof(StoreHeader);
    for (std::size_t c = 0; c < numColumns; ++c) {
        hdr.col[c].offset = offset;
        hdr.col[c].bytes = c < numWideColumns
            ? encoded[c].size()
            : n * columnElemBytes[c];
        offset = alignUp8(offset + hdr.col[c].bytes);
    }

    if (!pwriteAll(fd, &hdr, sizeof(hdr), 0))
        return false;
    for (std::size_t c = 0; c < numColumns; ++c) {
        const void *data = c < numWideColumns
            ? static_cast<const void *>(encoded[c].data())
            : stagedColumn(wide, narrow, n, c);
        if (!pwriteAll(fd, data, hdr.col[c].bytes, hdr.col[c].offset))
            return false;
    }
    return ::ftruncate(fd, static_cast<off_t>(offset)) == 0;
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
    // Shared "csimtrc" prefix, different tail: a v1 file is a version
    // mismatch, anything else is not one of our trace files.
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
    const bool compressed = hdr.flags & flagCompressWide;
    for (std::size_t c = 0; c < numColumns; ++c) {
        const ColumnDesc &col = hdr.col[c];
        // Extent check phrased to be immune to uint64 wrap: a crafted
        // col.bytes near 2^64 must not pass via offset+bytes overflow
        // and then read past the mapping.
        if (col.offset % 8 != 0 || col.offset < sizeof(StoreHeader) ||
            col.offset > static_cast<std::uint64_t>(file_bytes) ||
            col.bytes >
                static_cast<std::uint64_t>(file_bytes) - col.offset)
            return TraceIoStatus::Truncated;
        const bool raw = !compressed || c >= numWideColumns;
        if (raw && col.bytes != hdr.count * columnElemBytes[c])
            return TraceIoStatus::Truncated;
    }

    const std::size_t n = hdr.count;
    const std::byte *map = static_cast<const std::byte *>(base);
    TraceSoA::Columns cols;
    cols.size = n;
    cols.producerLinks = hdr.producerLinks;

    if (!compressed) {
        cols.pc = reinterpret_cast<const Addr *>(map + hdr.col[0].offset);
        cols.memAddr =
            reinterpret_cast<const Addr *>(map + hdr.col[1].offset);
        for (int slot = 0; slot < numSrcSlots; ++slot)
            cols.prod[slot] = reinterpret_cast<const InstId *>(
                map + hdr.col[2 + slot].offset);
        cols.op =
            reinterpret_cast<const Opcode *>(map + hdr.col[5].offset);
        cols.cls =
            reinterpret_cast<const OpClass *>(map + hdr.col[6].offset);
        cols.execLat = reinterpret_cast<const std::uint8_t *>(
            map + hdr.col[7].offset);
        cols.flags = reinterpret_cast<const std::uint8_t *>(
            map + hdr.col[8].offset);
        cols.dest = reinterpret_cast<const RegIndex *>(
            map + hdr.col[9].offset);
        cols.src1 = reinterpret_cast<const RegIndex *>(
            map + hdr.col[10].offset);
        cols.src2 = reinterpret_cast<const RegIndex *>(
            map + hdr.col[11].offset);
        if (info) {
            info->instructions = n;
            info->fileBytes = file_bytes;
            info->mappedBytes = file_bytes;
            info->compressed = false;
        }
        soa = TraceSoA(cols, std::move(mapping));
        return TraceIoStatus::Ok;
    }

    // Compressed: decode the wide columns into an owned arena laid
    // out like TraceSoA's, copy the byte columns, drop the mapping.
    const std::size_t arena_bytes =
        n * (numWideColumns * sizeof(std::uint64_t) +
             (numColumns - numWideColumns));
    std::shared_ptr<std::byte[]> arena(new std::byte[arena_bytes]);
    std::byte *cursor = arena.get();
    std::uint64_t *wide[numWideColumns];
    for (std::size_t c = 0; c < numWideColumns; ++c) {
        wide[c] = reinterpret_cast<std::uint64_t *>(cursor);
        cursor += n * sizeof(std::uint64_t);
    }
    std::uint8_t *narrow[numColumns - numWideColumns];
    for (std::size_t c = numWideColumns; c < numColumns; ++c) {
        narrow[c - numWideColumns] =
            reinterpret_cast<std::uint8_t *>(cursor);
        cursor += n;
    }
    CSIM_ASSERT(cursor == arena.get() + arena_bytes);

    for (std::size_t c = 0; c < numWideColumns; ++c) {
        const std::uint8_t *p = reinterpret_cast<const std::uint8_t *>(
            map + hdr.col[c].offset);
        const std::uint8_t *end = p + hdr.col[c].bytes;
        const bool isProd = c >= 2;
        for (std::size_t i = 0; i < n; ++i) {
            std::uint64_t v = 0;
            if (!leb128Get(p, end, v))
                return TraceIoStatus::Truncated;
            wide[c][i] = isProd ? v - 1 : v;
        }
        if (p != end)
            return TraceIoStatus::Truncated;
    }
    for (std::size_t c = numWideColumns; c < numColumns; ++c)
        std::memcpy(narrow[c - numWideColumns],
                    map + hdr.col[c].offset, n);

    cols.pc = reinterpret_cast<const Addr *>(wide[0]);
    cols.memAddr = reinterpret_cast<const Addr *>(wide[1]);
    for (int slot = 0; slot < numSrcSlots; ++slot)
        cols.prod[slot] =
            reinterpret_cast<const InstId *>(wide[2 + slot]);
    cols.op = reinterpret_cast<const Opcode *>(narrow[0]);
    cols.cls = reinterpret_cast<const OpClass *>(narrow[1]);
    cols.execLat = narrow[2];
    cols.flags = narrow[3];
    cols.dest = narrow[4];
    cols.src1 = narrow[5];
    cols.src2 = narrow[6];
    if (info) {
        info->instructions = n;
        info->fileBytes = file_bytes;
        info->mappedBytes = 0;
        info->compressed = true;
    }
    soa = TraceSoA(cols, std::shared_ptr<const void>(
                             arena, arena.get()));
    return TraceIoStatus::Ok;
}

Trace
extractRegion(const TraceSoA &soa, std::uint64_t base,
              std::uint64_t len)
{
    CSIM_ASSERT(base <= soa.size());
    const std::uint64_t end =
        len < soa.size() - base ? base + len : soa.size();
    Trace region;
    for (std::uint64_t i = base; i < end; ++i) {
        TraceRecord rec = soa.record(i);
        for (int slot = 0; slot < numSrcSlots; ++slot) {
            const InstId p = rec.prod[slot];
            rec.prod[slot] = (p == invalidInstId || p < base)
                ? invalidInstId
                : p - base;
        }
        region.append(rec);
    }
    return region;
}

} // namespace csim
