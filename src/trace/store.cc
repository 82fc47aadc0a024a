#include "trace/store.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "mem/block.hh"
#include "trace/block_numbering.hh"
#include "trace/lowering.hh"
#include "util/hash.hh"
#include "util/aligned.hh"

// The reader hands engines pointers straight into the file mapping,
// so the in-memory and on-disk column layouts must coincide.  Every
// supported target is little-endian; refuse to build elsewhere rather
// than silently byte-swap the hot path.
static_assert(std::endian::native == std::endian::little,
              "stored-trace columns are little-endian on disk and "
              "mapped zero-copy");

namespace dirsim::trace
{

namespace
{

constexpr char kMagic[8] = {'D', 'S', 'P', 'T', 'R', 'A', 'C', 'E'};

/** Fixed header bytes before the name (see store.hh layout). */
constexpr std::uint64_t kFixedHeaderBytes = 88;
/** Header digest covers [kDigestFrom, 88 + nameLen): everything
 *  after magic + version, so a version bump reports as a version
 *  mismatch instead of generic corruption. */
constexpr std::uint64_t kDigestFrom = 12;
/** Sanity cap on the embedded workload name. */
constexpr std::uint64_t kMaxNameLen = 4096;

constexpr std::uint64_t
align8(std::uint64_t v)
{
    return (v + 7) & ~std::uint64_t{7};
}

constexpr std::uint64_t
align64(std::uint64_t v)
{
    return (v + 63) & ~std::uint64_t{63};
}

/** Bytes of one chunk's payload (block + unit + typeFlags columns). */
constexpr std::uint64_t
payloadBytes(std::uint64_t nRefs)
{
    return 6 * nRefs;
}

void
putLE16(std::vector<std::uint8_t> &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
putLE32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putLE64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t
getLE32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getLE64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

[[noreturn]] void
fail(const std::string &path, const std::string &what)
{
    throw std::runtime_error("StoredTrace: " + path + ": " + what);
}

[[noreturn]] void
failErrno(const std::string &path, const std::string &what)
{
    fail(path, what + ": " + std::strerror(errno));
}

/** pread exactly @p n bytes at @p offset or throw. */
void
preadFull(int fd, void *buf, std::size_t n, std::uint64_t offset,
          const std::string &path)
{
    auto *p = static_cast<unsigned char *>(buf);
    while (n != 0) {
        const ssize_t got = ::pread(fd, p, n, off_t(offset));
        if (got < 0) {
            if (errno == EINTR)
                continue;
            failErrno(path, "pread failed");
        }
        if (got == 0)
            fail(path, "unexpected end of file (truncated store)");
        p += got;
        offset += std::uint64_t(got);
        n -= std::size_t(got);
    }
}

/** Digest of one chunk's payload as laid out on disk. */
std::uint64_t
chunkDigest(const std::uint8_t *payload, std::uint64_t nRefs)
{
    return util::StreamHash64::of(payload, payloadBytes(nRefs));
}

/**
 * One movable read window into the store file: either a remapped
 * mmap region or a heap staging buffer filled by pread.  Exactly one
 * window's worth of chunk data is resident per cursor at any time —
 * this is the O(chunk) RSS bound.
 */
class FileWindow
{
  public:
    FileWindow(int fd, bool useMmap, const std::string &path)
        : _fd(fd), _mmap(useMmap), _path(&path)
    {
    }

    ~FileWindow() { drop(); }

    FileWindow(const FileWindow &) = delete;
    FileWindow &operator=(const FileWindow &) = delete;

    /** Make [offset, offset+len) of the file addressable and return
     *  a pointer to its first byte (8-aligned for aligned offsets). */
    const std::uint8_t *
    view(std::uint64_t offset, std::uint64_t len)
    {
        if (len == 0)
            return nullptr;
        if (_mmap) {
            drop();
            const std::uint64_t page =
                std::uint64_t(::sysconf(_SC_PAGESIZE));
            const std::uint64_t base = offset & ~(page - 1);
            _mapLen = std::size_t(len + (offset - base));
            void *m = ::mmap(nullptr, _mapLen, PROT_READ, MAP_PRIVATE,
                             _fd, off_t(base));
            if (m == MAP_FAILED) {
                _mapLen = 0;
                failErrno(*_path, "mmap window failed");
            }
            _map = m;
            ::madvise(_map, _mapLen, MADV_SEQUENTIAL);
            return static_cast<const std::uint8_t *>(_map) +
                   (offset - base);
        }
        _buf.resize(std::size_t(len));
        preadFull(_fd, _buf.data(), _buf.size(), offset, *_path);
        return _buf.data();
    }

    /** Hint the kernel to start reading the next window (pread
     *  mode's answer to readahead: the copy into the page cache
     *  overlaps with replay of the current chunk). */
    void
    prefetch(std::uint64_t offset, std::uint64_t len) const
    {
        if (!_mmap && len != 0)
            ::posix_fadvise(_fd, off_t(offset), off_t(len),
                            POSIX_FADV_WILLNEED);
    }

    /** Release the current window (mmap mode). */
    void
    drop()
    {
        if (_map != nullptr) {
            ::munmap(_map, _mapLen);
            _map = nullptr;
            _mapLen = 0;
        }
    }

  private:
    int _fd;
    bool _mmap;
    const std::string *_path;
    void *_map = nullptr;
    std::size_t _mapLen = 0;
    util::AlignedVector<std::uint8_t> _buf; //!< 64-aligned base.
};

/**
 * View the chunk at @p offset and check it: its digest (when
 * @p verify) and, always, that every data entry's block id is below
 * the trace's numBlocks() — engines index their state by it.
 */
const std::uint8_t *
viewChunk(FileWindow &win, const StoredTrace &trace, std::uint64_t offset,
          std::uint64_t nRefs, std::uint64_t digest, bool verify,
          const std::string &path)
{
    const std::uint8_t *p = win.view(offset, payloadBytes(nRefs));
    // Alignment contract: a 64-aligned chunk offset must surface as a
    // cache-line-aligned pointer (mmap bases are page-aligned, the
    // pread buffer is 64-aligned), so no column load splits a line.
    // Legacy 8-aligned chunks are exempt — they predate the contract.
    assert(offset % util::kCacheLineBytes != 0 ||
           reinterpret_cast<std::uintptr_t>(p) %
                   util::kCacheLineBytes ==
               0);
    if (verify && chunkDigest(p, nRefs) != digest)
        fail(path, "chunk digest mismatch at offset " +
                       std::to_string(offset) +
                       " (corrupted store) in trace '" + trace.name() +
                       "'");
    const auto *block = reinterpret_cast<const std::uint32_t *>(p);
    const std::size_t n = std::size_t(nRefs);
    const std::size_t bad =
        firstBlockOutOfRange(block, p + 5 * nRefs, n, trace.numBlocks());
    if (bad != n)
        fail(path, "block id " + std::to_string(block[bad]) +
                       " out of range (numBlocks " +
                       std::to_string(trace.numBlocks()) +
                       ") in the chunk at offset " +
                       std::to_string(offset) + " of trace '" +
                       trace.name() + "'");
    return p;
}

} // namespace

// ---------------------------------------------------------------------
// PreparedTraceWriter
// ---------------------------------------------------------------------

PreparedTraceWriter::PreparedTraceWriter(const std::string &path,
                                         const std::string &name,
                                         const PrepareOptions &opts,
                                         const StoreWriteOptions &store)
    : _path(path), _name(name), _opts(opts), _chunkRefs(store.chunkRefs),
      _configFingerprint(store.configFingerprint)
{
    if (_chunkRefs == 0)
        throw std::invalid_argument(
            "PreparedTraceWriter: chunkRefs must be >= 1");
    if (_name.size() > kMaxNameLen)
        throw std::invalid_argument(
            "PreparedTraceWriter: trace name longer than " +
            std::to_string(kMaxNameLen) + " bytes");
    _fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0644);
    if (_fd < 0)
        failErrno(path, "cannot create store file");
    // Reserve the header region (patched by finish()); zeros here
    // guarantee a crashed half-write never carries a valid magic.
    const std::vector<std::uint8_t> zeros(
        std::size_t(align8(kFixedHeaderBytes + _name.size() + 8)), 0);
    writeBytes(zeros.data(), zeros.size());
    _data.block.reserve(std::size_t(_chunkRefs));
    _data.unit.reserve(std::size_t(_chunkRefs));
    _data.typeFlags.reserve(std::size_t(_chunkRefs));
}

PreparedTraceWriter::~PreparedTraceWriter()
{
    if (_fd >= 0) {
        // finish() was never reached: abandon the partial file.
        ::close(_fd);
        ::unlink(_path.c_str());
    }
}

void
PreparedTraceWriter::appendCpu(unsigned cpu, std::uint32_t block,
                               std::uint8_t unit, std::uint8_t typeFlags)
{
    if (!_opts.timedStreams)
        throw std::logic_error(
            "PreparedTraceWriter: appendCpu() on an untimed store");
    if (cpu >= 256)
        throw std::invalid_argument(
            "PreparedTraceWriter: dense CPU index " +
            std::to_string(cpu) + " exceeds the 8-bit unit column");
    if (cpu >= _cpuBuffers.size()) {
        _cpuBuffers.resize(cpu + 1);
        _cpuRefs.resize(cpu + 1, 0);
        _cpuEntries.resize(cpu + 1);
    }
    ChunkBuffer &buf = _cpuBuffers[cpu];
    buf.block.push_back(block);
    buf.unit.push_back(unit);
    buf.typeFlags.push_back(typeFlags);
    ++_cpuRefs[cpu];
    if (buf.block.size() >= _chunkRefs)
        flushChunk(buf, _cpuEntries[cpu]);
}

void
PreparedTraceWriter::setUnits(unsigned nUnits, unsigned nCpus)
{
    if (nUnits > 256 || nCpus > 256)
        throw std::invalid_argument(
            "PreparedTraceWriter: unit/CPU count exceeds the 8-bit "
            "column (" + std::to_string(nUnits) + "/" +
            std::to_string(nCpus) + ")");
    _nUnits = nUnits;
    _nCpus = nCpus;
}

void
PreparedTraceWriter::flushChunk(ChunkBuffer &buf,
                                std::vector<ChunkEntry> &entries)
{
    if (buf.block.empty())
        return;
    // Start every chunk on a cache-line boundary: mmap windows then
    // hand replay 64-aligned column pointers for free.
    padTo64();
    const std::uint64_t n = buf.block.size();
    ChunkEntry entry;
    entry.offset = _pos;
    entry.nRefs = n;
    util::StreamHash64 hash;
    hash.update(buf.block.data(), std::size_t(4 * n));
    hash.update(buf.unit.data(), std::size_t(n));
    hash.update(buf.typeFlags.data(), std::size_t(n));
    entry.digest = hash.value();
    writeBytes(buf.block.data(), std::size_t(4 * n));
    writeBytes(buf.unit.data(), std::size_t(n));
    writeBytes(buf.typeFlags.data(), std::size_t(n));
    padTo8();
    entries.push_back(entry);
    buf.block.clear();
    buf.unit.clear();
    buf.typeFlags.clear();
}

void
PreparedTraceWriter::writeBytes(const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    while (n != 0) {
        const ssize_t put = ::write(_fd, p, n);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            failErrno(_path, "write failed");
        }
        p += put;
        n -= std::size_t(put);
        _pos += std::uint64_t(put);
    }
}

void
PreparedTraceWriter::padTo8()
{
    static const std::uint8_t zeros[8] = {};
    const std::uint64_t pad = align8(_pos) - _pos;
    if (pad != 0)
        writeBytes(zeros, std::size_t(pad));
}

void
PreparedTraceWriter::padTo64()
{
    static const std::uint8_t zeros[64] = {};
    const std::uint64_t pad = align64(_pos) - _pos;
    if (pad != 0)
        writeBytes(zeros, std::size_t(pad));
}

void
PreparedTraceWriter::finish()
{
    if (_finished)
        throw std::logic_error(
            "PreparedTraceWriter: finish() called twice");
    if (_opts.timedStreams && _cpuBuffers.size() > _nCpus)
        throw std::logic_error(
            "PreparedTraceWriter: appendCpu() saw CPU " +
            std::to_string(_cpuBuffers.size() - 1) +
            " but setUnits() declared only " + std::to_string(_nCpus));

    flushChunk(_data, _dataEntries);
    for (std::size_t c = 0; c < _cpuBuffers.size(); ++c)
        flushChunk(_cpuBuffers[c], _cpuEntries[c]);

    const std::uint64_t tableOffset = _pos;
    std::vector<std::uint8_t> table;
    for (const ChunkEntry &e : _dataEntries) {
        putLE64(table, e.offset);
        putLE64(table, e.nRefs);
        putLE64(table, e.digest);
    }
    if (_opts.timedStreams) {
        _cpuRefs.resize(_nCpus, 0);
        _cpuEntries.resize(_nCpus);
        for (unsigned c = 0; c < _nCpus; ++c)
            putLE64(table, _cpuRefs[c]);
        for (unsigned c = 0; c < _nCpus; ++c) {
            for (const ChunkEntry &e : _cpuEntries[c]) {
                putLE64(table, e.offset);
                putLE64(table, e.nRefs);
                putLE64(table, e.digest);
            }
        }
    }
    putLE64(table, _names.size());
    for (const std::uint32_t name : _names)
        putLE32(table, name);
    table.resize(std::size_t(align8(table.size())), 0);
    putLE64(table, util::StreamHash64::of(table.data(), table.size()));
    writeBytes(table.data(), table.size());

    // Assemble and patch the header now that every count is known.
    std::vector<std::uint8_t> header;
    header.insert(header.end(), kMagic, kMagic + 8);
    putLE32(header, kStoreFormatVersion);
    putLE32(header, std::uint32_t(kFixedHeaderBytes + _name.size() + 8));
    putLE64(header, _configFingerprint);
    putLE32(header, _opts.blockBytes);
    putLE32(header, std::uint32_t(_opts.domain));
    header.push_back(_opts.dropLockTests ? 1 : 0);
    header.push_back(_opts.timedStreams ? 1 : 0);
    putLE16(header, 0);
    putLE32(header, _nUnits);
    putLE32(header, _nCpus);
    putLE32(header, std::uint32_t(_name.size()));
    putLE64(header, _instrRefs);
    putLE64(header, _dataRefs);
    putLE64(header, _chunkRefs);
    putLE64(header, std::uint64_t(_dataEntries.size()));
    putLE64(header, tableOffset);
    header.insert(header.end(), _name.begin(), _name.end());
    putLE64(header,
            util::StreamHash64::of(header.data() + kDigestFrom,
                                   header.size() - kDigestFrom));

    std::size_t done = 0;
    while (done < header.size()) {
        const ssize_t put = ::pwrite(_fd, header.data() + done,
                                     header.size() - done, off_t(done));
        if (put < 0) {
            if (errno == EINTR)
                continue;
            failErrno(_path, "header pwrite failed");
        }
        done += std::size_t(put);
    }

    // Durability before any rename the caller does: a completed
    // finish() means the bytes are on their way to stable storage.
    if (::fsync(_fd) != 0)
        failErrno(_path, "fsync failed");
    ::close(_fd);
    _fd = -1;
    _finished = true;
}

// ---------------------------------------------------------------------
// StoredTrace reader
// ---------------------------------------------------------------------

std::shared_ptr<const StoredTrace>
StoredTrace::open(const std::string &path, const StoredTraceOptions &opts)
{
    // shared_ptr from the start: cursor factories use shared_from_this.
    std::shared_ptr<StoredTrace> t(new StoredTrace);
    t->_path = path;
    t->_readOpts = opts;
    t->_fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (t->_fd < 0)
        failErrno(path, "cannot open store file");

    struct stat st{};
    if (::fstat(t->_fd, &st) != 0)
        failErrno(path, "fstat failed");
    const std::uint64_t fileBytes = std::uint64_t(st.st_size);
    t->_fileBytes = fileBytes;
    if (fileBytes < kFixedHeaderBytes + 8 + 8)
        fail(path, "file too small to be a stored trace");

    // --- Header ------------------------------------------------------
    std::uint8_t fixed[kFixedHeaderBytes];
    preadFull(t->_fd, fixed, sizeof(fixed), 0, path);
    if (std::memcmp(fixed, kMagic, 8) != 0)
        fail(path, "bad magic (not a stored trace)");
    const std::uint32_t version = getLE32(fixed + 8);
    if (version != kStoreFormatVersion)
        fail(path, "unsupported stored-trace format version " +
                       std::to_string(version) + " (this build reads " +
                       std::to_string(kStoreFormatVersion) + ")");
    const std::uint32_t headerBytes = getLE32(fixed + 12);
    const std::uint32_t nameLen = getLE32(fixed + 44);
    if (nameLen > kMaxNameLen)
        fail(path, "unreasonable name length " + std::to_string(nameLen));
    if (headerBytes != kFixedHeaderBytes + nameLen + 8 ||
        align8(headerBytes) > fileBytes)
        fail(path, "inconsistent header size");

    std::vector<std::uint8_t> tail(nameLen + 8);
    preadFull(t->_fd, tail.data(), tail.size(), kFixedHeaderBytes, path);
    util::StreamHash64 hh;
    hh.update(fixed + kDigestFrom, sizeof(fixed) - kDigestFrom);
    hh.update(tail.data(), nameLen);
    if (hh.value() != getLE64(tail.data() + nameLen))
        fail(path, "header digest mismatch (corrupted store)");

    t->_configFingerprint = getLE64(fixed + 16);
    t->_opts.blockBytes = getLE32(fixed + 24);
    const std::uint32_t domain = getLE32(fixed + 28);
    if (domain > std::uint32_t(sim::SharingDomain::Processor))
        fail(path, "invalid sharing domain " + std::to_string(domain));
    t->_opts.domain = sim::SharingDomain(domain);
    t->_opts.dropLockTests = fixed[32] != 0;
    t->_opts.timedStreams = fixed[33] != 0;
    t->_nUnits = getLE32(fixed + 36);
    t->_nCpus = getLE32(fixed + 40);
    t->_name.assign(reinterpret_cast<const char *>(tail.data()),
                    nameLen);
    t->_instrRefs = getLE64(fixed + 48);
    t->_dataRefs = getLE64(fixed + 56);
    t->_chunkRefs = getLE64(fixed + 64);
    const std::uint64_t nChunks = getLE64(fixed + 72);
    const std::uint64_t tableOffset = getLE64(fixed + 80);
    if (t->_chunkRefs == 0)
        fail(path, "chunkRefs is zero");
    if (t->_nUnits > 256 || t->_nCpus > 256)
        fail(path, "unit/CPU count exceeds the 8-bit column");

    // --- Chunk table -------------------------------------------------
    if (tableOffset % 8 != 0 || tableOffset < align8(headerBytes) ||
        tableOffset + 8 > fileBytes)
        fail(path, "chunk table offset out of bounds");
    const std::uint64_t tableLen = fileBytes - tableOffset;
    std::vector<std::uint8_t> table(static_cast<std::size_t>(tableLen));
    preadFull(t->_fd, table.data(), table.size(), tableOffset, path);
    if (util::StreamHash64::of(table.data(), table.size() - 8) !=
        getLE64(table.data() + table.size() - 8))
        fail(path, "chunk table digest mismatch (corrupted or "
                   "truncated store)");

    const std::uint8_t *cur = table.data();
    const std::uint8_t *end = table.data() + table.size() - 8;
    auto need = [&](std::uint64_t bytes) {
        if (std::uint64_t(end - cur) < bytes)
            fail(path, "chunk table shorter than its header claims");
    };
    auto parseEntry = [&](std::uint64_t maxRefs) {
        need(24);
        ChunkRef c;
        c.offset = getLE64(cur);
        c.nRefs = getLE64(cur + 8);
        c.digest = getLE64(cur + 16);
        cur += 24;
        if (c.nRefs == 0 || c.nRefs > maxRefs)
            fail(path, "chunk reference count out of range");
        if (c.offset % 8 != 0 || c.offset < align8(headerBytes) ||
            c.offset + payloadBytes(c.nRefs) > tableOffset)
            fail(path, "chunk payload out of bounds");
        return c;
    };

    t->_dataChunks.reserve(std::size_t(nChunks));
    std::uint64_t dataSum = 0;
    for (std::uint64_t i = 0; i < nChunks; ++i) {
        t->_dataChunks.push_back(parseEntry(t->_chunkRefs));
        dataSum += t->_dataChunks.back().nRefs;
    }
    if (dataSum != t->_dataRefs)
        fail(path, "data chunk counts do not sum to the header's "
                   "reference count");

    if (t->_opts.timedStreams) {
        need(8 * std::uint64_t(t->_nCpus));
        t->_cpuRefCounts.resize(t->_nCpus);
        for (unsigned c = 0; c < t->_nCpus; ++c) {
            t->_cpuRefCounts[c] = getLE64(cur);
            cur += 8;
        }
        std::uint64_t cpuSum = 0;
        t->_cpuChunks.resize(t->_nCpus);
        for (unsigned c = 0; c < t->_nCpus; ++c) {
            const std::uint64_t refs = t->_cpuRefCounts[c];
            cpuSum += refs;
            const std::uint64_t chunks =
                (refs + t->_chunkRefs - 1) / t->_chunkRefs;
            std::uint64_t sum = 0;
            t->_cpuChunks[c].reserve(std::size_t(chunks));
            for (std::uint64_t i = 0; i < chunks; ++i) {
                t->_cpuChunks[c].push_back(parseEntry(t->_chunkRefs));
                sum += t->_cpuChunks[c].back().nRefs;
            }
            if (sum != refs)
                fail(path, "CPU stream chunk counts do not sum to the "
                           "table's per-CPU reference count");
        }
        // Every kept reference (instr + data) lands in exactly one
        // CPU stream, so the totals must agree.
        if (cpuSum != t->_instrRefs + t->_dataRefs)
            fail(path, "per-CPU stream totals disagree with the "
                       "header's reference counts");
    }

    // Each block is numbered by the first data reference to touch
    // it, so a trace has at most as many blocks as data references.
    need(8);
    const std::uint64_t nBlocks = getLE64(cur);
    cur += 8;
    if (nBlocks > t->_dataRefs)
        fail(path, "block names table holds " + std::to_string(nBlocks) +
                       " names but the trace has only " +
                       std::to_string(t->_dataRefs) +
                       " data references");
    need(align8(4 * nBlocks));
    t->_names.resize(std::size_t(nBlocks));
    for (std::uint32_t &name : t->_names) {
        name = getLE32(cur);
        cur += 4;
    }
    cur = table.data() + align8(std::uint64_t(cur - table.data()));
    if (cur != end)
        fail(path, "trailing bytes after the chunk table");

    // --- Probe the read mode -----------------------------------------
    if (opts.mode != StoreReadMode::Pread && fileBytes != 0) {
        const std::size_t probeLen = 4096;
        void *m = ::mmap(nullptr, probeLen, PROT_READ, MAP_PRIVATE,
                         t->_fd, 0);
        if (m != MAP_FAILED) {
            ::munmap(m, probeLen);
            t->_mmapOk = true;
        } else if (opts.mode == StoreReadMode::Mmap) {
            failErrno(path, "mmap unsupported on this file");
        }
    }

    return t;
}

StoredTrace::~StoredTrace()
{
    if (_fd >= 0)
        ::close(_fd);
}

// Cursor classes live at namespace scope (not anonymous) so
// StoredTrace's friend declarations name them; they are still
// private to this translation unit in practice — only the factory
// functions below construct them.

/** PreparedSpanSource over a StoredTrace's data chunks. */
class StoredSpanCursor final : public PreparedSpanSource
{
  public:
    explicit StoredSpanCursor(std::shared_ptr<const StoredTrace> trace)
        : _trace(std::move(trace)),
          _window(_trace->_fd, _trace->_mmapOk, _trace->path())
    {
    }

    const std::string &name() const override { return _trace->name(); }
    const PrepareOptions &options() const override
    {
        return _trace->options();
    }
    std::uint64_t instrRefs() const override
    {
        return _trace->instrRefs();
    }
    std::uint64_t dataRefs() const override
    {
        return _trace->dataRefs();
    }
    unsigned numUnits() const override { return _trace->numUnits(); }
    unsigned numCpus() const override { return _trace->numCpus(); }
    mem::BlockNames blockNames() const override
    {
        return _trace->blockNames();
    }

    bool
    nextSpan(PreparedSpan &span) override
    {
        const auto &chunks = _trace->_dataChunks;
        if (chunks.empty()) {
            // An empty stream yields exactly one empty span.
            if (_doneEmpty)
                return false;
            _doneEmpty = true;
            span = PreparedSpan{};
            return true;
        }
        if (_next >= chunks.size())
            return false;
        const StoredTrace::ChunkRef &c = chunks[_next];
        const std::uint8_t *p = viewChunk(
            _window, *_trace, c.offset, c.nRefs, c.digest,
            _trace->_readOpts.verifyDigests, _trace->path());
        span.block = reinterpret_cast<const std::uint32_t *>(p);
        span.unit = p + 4 * c.nRefs;
        span.typeFlags = p + 5 * c.nRefs;
        span.n = std::size_t(c.nRefs);
        ++_next;
        if (_next < chunks.size())
            _window.prefetch(chunks[_next].offset,
                             payloadBytes(chunks[_next].nRefs));
        return true;
    }

    void
    rewind() override
    {
        _next = 0;
        _doneEmpty = false;
        _window.drop();
    }

  private:
    std::shared_ptr<const StoredTrace> _trace;
    FileWindow _window;
    std::size_t _next = 0;
    bool _doneEmpty = false;
};

/** CpuRefCursor over one CPU's stream chunks in a StoredTrace. */
class StoredCpuCursor final : public CpuRefCursor
{
  public:
    StoredCpuCursor(std::shared_ptr<const StoredTrace> trace,
                    unsigned cpu)
        : _trace(std::move(trace)),
          _window(_trace->_fd, _trace->_mmapOk, _trace->path()),
          _chunks(&_trace->_cpuChunks.at(cpu))
    {
    }

    bool
    nextWindow(PreparedSpan &window) override
    {
        if (_next >= _chunks->size())
            return false;
        const StoredTrace::ChunkRef &c = (*_chunks)[_next];
        const std::uint8_t *p = viewChunk(
            _window, *_trace, c.offset, c.nRefs, c.digest,
            _trace->_readOpts.verifyDigests, _trace->path());
        window.block = reinterpret_cast<const std::uint32_t *>(p);
        window.unit = p + 4 * c.nRefs;
        window.typeFlags = p + 5 * c.nRefs;
        window.n = std::size_t(c.nRefs);
        ++_next;
        if (_next < _chunks->size())
            _window.prefetch((*_chunks)[_next].offset,
                             payloadBytes((*_chunks)[_next].nRefs));
        return true;
    }

  private:
    std::shared_ptr<const StoredTrace> _trace;
    FileWindow _window;
    const std::vector<StoredTrace::ChunkRef> *_chunks;
    std::size_t _next = 0;
};

std::unique_ptr<PreparedSpanSource>
StoredTrace::spanCursor() const
{
    return std::make_unique<StoredSpanCursor>(shared_from_this());
}

std::unique_ptr<CpuRefCursor>
StoredTrace::cpuCursor(unsigned cpu) const
{
    if (!_opts.timedStreams)
        throw std::logic_error(
            "StoredTrace: cpuCursor() on an untimed store '" + _name +
            "'");
    return std::make_unique<StoredCpuCursor>(shared_from_this(), cpu);
}

PreparedTrace
StoredTrace::loadAll() const
{
    PreparedTrace out;
    out._name = _name;
    out._opts = _opts;
    out._instrRefs = _instrRefs;
    out._nUnits = _nUnits;
    out._nCpus = _nCpus;
    out._names = _names;
    out._block.reserve(std::size_t(_dataRefs));
    out._unit.reserve(std::size_t(_dataRefs));
    out._typeFlags.reserve(std::size_t(_dataRefs));

    FileWindow win(_fd, _mmapOk, _path);
    auto appendColumns = [&](const ChunkRef &c,
                             util::AlignedVector<std::uint32_t> &block,
                             util::AlignedVector<std::uint8_t> &unit,
                             util::AlignedVector<std::uint8_t> &typeFlags) {
        const std::uint8_t *p =
            viewChunk(win, *this, c.offset, c.nRefs, c.digest,
                      _readOpts.verifyDigests, _path);
        const auto *b = reinterpret_cast<const std::uint32_t *>(p);
        block.insert(block.end(), b, b + c.nRefs);
        unit.insert(unit.end(), p + 4 * c.nRefs, p + 5 * c.nRefs);
        typeFlags.insert(typeFlags.end(), p + 5 * c.nRefs,
                         p + 6 * c.nRefs);
    };

    for (const ChunkRef &c : _dataChunks)
        appendColumns(c, out._block, out._unit, out._typeFlags);
    if (_opts.timedStreams) {
        out._cpuStreams.resize(_nCpus);
        for (unsigned c = 0; c < _nCpus; ++c) {
            PreparedCpuStream &s = out._cpuStreams[c];
            s.block.reserve(std::size_t(_cpuRefCounts[c]));
            s.unit.reserve(std::size_t(_cpuRefCounts[c]));
            s.typeFlags.reserve(std::size_t(_cpuRefCounts[c]));
            for (const ChunkRef &chunk : _cpuChunks[c])
                appendColumns(chunk, s.block, s.unit, s.typeFlags);
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Spill pipelines
// ---------------------------------------------------------------------

namespace
{

std::uint64_t
fileSizeOf(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0 ? std::uint64_t(st.st_size)
                                          : 0;
}

} // namespace

StoredTraceInfo
spillFromSource(RefSource &source, const std::string &name,
                const PrepareOptions &opts, const std::string &path,
                const StoreWriteOptions &store)
{
    PreparedTraceWriter writer(path, name, opts, store);
    StreamLowering lower(name, opts);
    while (lower.next(source)) {
        if (!opts.timedStreams) {
            const PreparedSpan data = lower.data();
            writer.appendDataBulk(data.block, data.unit, data.typeFlags,
                                  data.n);
            continue;
        }
        // Record by record, data column first: chunks then flush in
        // the order the file layout has always had.
        for (std::size_t i = 0; i < lower.keptRefs(); ++i) {
            const std::uint32_t block = lower.keptBlock()[i];
            const std::uint8_t unit = lower.keptUnit()[i];
            const std::uint8_t tf = lower.keptTypeFlags()[i];
            if (packedRefType(tf) != RefType::Instr)
                writer.appendData(block, unit, tf);
            writer.appendCpu(lower.keptCpu()[i], block, unit, tf);
        }
    }
    writer.addInstrRefs(lower.instrRefs());
    writer.setUnits(lower.numUnits(), lower.numCpus());
    writer.setBlockNames(lower.takeNames());

    StoredTraceInfo info;
    info.instrRefs = writer.instrRefs();
    info.dataRefs = writer.dataRefs();
    info.nUnits = lower.numUnits();
    info.nCpus = lower.numCpus();
    writer.finish();
    info.fileBytes = fileSizeOf(path);
    return info;
}

StoredTraceInfo
writeStored(const PreparedTrace &trace, const std::string &path,
            const StoreWriteOptions &store)
{
    PreparedTraceWriter writer(path, trace.name(), trace.options(),
                               store);
    writer.addInstrRefs(trace.instrRefs());
    writer.appendDataBulk(trace.blockData(), trace.unitData(),
                          trace.typeFlagsData(), trace.dataRefs());
    if (trace.options().timedStreams) {
        const std::vector<PreparedCpuStream> &streams =
            trace.cpuStreams();
        for (unsigned c = 0; c < streams.size(); ++c)
            for (std::size_t i = 0, n = streams[c].size(); i < n; ++i)
                writer.appendCpu(c, streams[c].block[i],
                                 streams[c].unit[i],
                                 streams[c].typeFlags[i]);
    }
    writer.setUnits(trace.numUnits(), trace.numCpus());
    const mem::BlockNames names = trace.blockNames();
    writer.setBlockNames({names.begin(), names.end()});

    StoredTraceInfo info;
    info.instrRefs = writer.instrRefs();
    info.dataRefs = writer.dataRefs();
    info.nUnits = trace.numUnits();
    info.nCpus = trace.numCpus();
    writer.finish();
    info.fileBytes = fileSizeOf(path);
    return info;
}

} // namespace dirsim::trace
