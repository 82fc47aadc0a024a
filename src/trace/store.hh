/**
 * @file
 * Out-of-core prepared-trace store: a versioned on-disk format for
 * the SoA replay columns, a streaming writer, and a windowed reader.
 *
 * The prepared format (trace/prepared.hh) made decoding a one-time
 * cost but still holds every column in RAM, which caps workloads at
 * memory size.  This store spills the same columns to disk and
 * replays them through the PreparedSpanSource chunk-iterator, so a
 * billion-reference trace replays with O(chunk) resident memory:
 * generate → prepare → spill runs as one serial streaming pass
 * (spillFromSource, no full materialisation at any stage), and replay
 * maps one chunk window at a time (mmap with a pread fallback).
 *
 * On-disk layout, format version 2 (all integers little-endian):
 *
 *   header   magic "DSPTRACE" | u32 version | u32 headerBytes |
 *            u64 configFingerprint | u32 blockBytes | u32 domain |
 *            u8 dropLockTests | u8 timedStreams | u16 reserved |
 *            u32 nUnits | u32 nCpus | u32 nameLen | u64 instrRefs |
 *            u64 dataRefs | u64 chunkRefs | u64 nChunks |
 *            u64 tableOffset | name bytes | u64 headerDigest
 *   chunks   per data chunk of n refs (offset 64-aligned when
 *            written by this build; readers accept any 8-aligned
 *            offset):
 *            u32 block[n] | u8 unit[n] | u8 typeFlags[n] | pad to 8
 *            (timed per-CPU stream chunks use the same framing).
 *            block holds dense first-touch ids in [0, numBlocks);
 *            timed instruction entries carry 0.
 *            The 64-byte chunk alignment keeps mmap'd column windows
 *            on cache-line boundaries, so no column load splits a
 *            line; it is a pure padding change — chunk offsets are
 *            explicit in the table, so no version bump.
 *   table    { u64 offset, u64 nRefs, u64 digest } per data chunk,
 *            then (timedStreams only) u64 cpuRefs[nCpus] followed by
 *            each CPU's chunk entries, then u64 numBlocks |
 *            u32 blockNames[numBlocks] | pad to 8 (the raw block index
 *            of every id), then u64 tableDigest; the table ends
 *            exactly at EOF.
 *
 * Version 2 added the names table and the dense block column; a
 * version 1 file (raw block indices, no names) fails the version
 * check, which sim::TraceRepository's disk tier treats as a miss.
 *
 * Integrity: headerDigest covers every header field after the
 * magic/version pair (so a version bump reports as a version
 * mismatch, not corruption), tableDigest covers the table (block
 * names included), and each chunk entry carries a digest of its
 * payload bytes, verified as the window is read — a single flipped
 * byte anywhere in the file is detected before any engine consumes
 * the data.  Block ids are range-checked against numBlocks in the
 * same pass, since engines index their state by them.  All digests are
 * util::StreamHash64.  Crash safety is the *caller's* job via
 * write-to-temp-then-rename (sim::TraceRepository's disk tier does
 * exactly that); a torn direct write is still detected at open.
 */

#ifndef DIRSIM_TRACE_STORE_HH
#define DIRSIM_TRACE_STORE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace/prepared.hh"
#include "trace/ref_source.hh"

namespace dirsim::trace
{

/** Format version written and required by this build. */
constexpr std::uint32_t kStoreFormatVersion = 2;

/** Default references per chunk (~6 MiB of data columns). */
constexpr std::uint64_t kDefaultChunkRefs = 1u << 20;

/** Parameters of one store file being written. */
struct StoreWriteOptions
{
    /** References per chunk; bounds replay RSS.  Must be >= 1. */
    std::uint64_t chunkRefs = kDefaultChunkRefs;
    /**
     * Caller-defined identity of the (workload, prepare) configuration
     * the file was built from; readers that know the expected value
     * can reject a file that belongs to a different configuration
     * (the disk cache keys files by a hash, and this field turns a
     * filename collision into a detected miss).  0 = not recorded.
     */
    std::uint64_t configFingerprint = 0;
};

/**
 * Streaming writer for the stored-trace format.
 *
 * Usage: construct (opens the file and reserves the header region),
 * append references in stream order — appendData() for the
 * interleaved data columns, appendCpu() for the per-CPU timed streams
 * when PrepareOptions::timedStreams is set, addInstrRefs() for bulk
 * instruction counts — then setUnits(), setBlockNames() and finish().
 * Block ids are the stream's dense first-touch ids
 * (trace/block_numbering.hh).  Chunks flush to
 * disk as they fill, so writer memory is O(chunkRefs) (times nCpus+1
 * when timed streams are on).  The destructor without finish()
 * abandons the file (best-effort unlink): a half-written store is
 * never left looking valid.
 */
class PreparedTraceWriter
{
  public:
    PreparedTraceWriter(const std::string &path, const std::string &name,
                        const PrepareOptions &opts,
                        const StoreWriteOptions &store = {});
    ~PreparedTraceWriter();

    PreparedTraceWriter(const PreparedTraceWriter &) = delete;
    PreparedTraceWriter &operator=(const PreparedTraceWriter &) = delete;

    /** Append one data reference to the interleaved columns. */
    void
    appendData(std::uint32_t block, std::uint8_t unit,
               std::uint8_t typeFlags)
    {
        _data.block.push_back(block);
        _data.unit.push_back(unit);
        _data.typeFlags.push_back(typeFlags);
        ++_dataRefs;
        if (_data.block.size() >= _chunkRefs)
            flushChunk(_data, _dataEntries);
    }

    /**
     * Append @p n data references from parallel column arrays.
     * Equivalent to n appendData() calls: the chunk buffer fills to
     * the same flush boundaries, so the produced file is byte-
     * identical whatever the caller's batching — spillFromSource hands
     * over lowering batches, writeStored() whole traces.
     */
    void
    appendDataBulk(const std::uint32_t *block, const std::uint8_t *unit,
                   const std::uint8_t *typeFlags, std::size_t n)
    {
        while (n > 0) {
            const std::size_t room = static_cast<std::size_t>(
                _chunkRefs - _data.block.size());
            const std::size_t take = n < room ? n : room;
            _data.block.insert(_data.block.end(), block, block + take);
            _data.unit.insert(_data.unit.end(), unit, unit + take);
            _data.typeFlags.insert(_data.typeFlags.end(), typeFlags,
                                   typeFlags + take);
            _dataRefs += take;
            block += take;
            unit += take;
            typeFlags += take;
            n -= take;
            if (_data.block.size() >= _chunkRefs)
                flushChunk(_data, _dataEntries);
        }
    }

    /** Append one reference to CPU @p cpu's timed stream (timed
     *  stores only; includes instruction fetches). */
    void appendCpu(unsigned cpu, std::uint32_t block, std::uint8_t unit,
                   std::uint8_t typeFlags);

    /** Count @p n instruction fetches (stripped from the data
     *  columns, reported in bulk at replay). */
    void addInstrRefs(std::uint64_t n) { _instrRefs += n; }

    /** Record the dense unit/CPU counts (before finish()). */
    void setUnits(unsigned nUnits, unsigned nCpus);

    /** Record the raw block index of every dense block id (before
     *  finish()). */
    void
    setBlockNames(std::vector<std::uint32_t> names)
    {
        _names = std::move(names);
    }

    /** Flush everything, write the chunk table, patch the header.
     *  The file is complete and readable once this returns. */
    void finish();

    std::uint64_t dataRefs() const { return _dataRefs; }
    std::uint64_t instrRefs() const { return _instrRefs; }

  private:
    struct ChunkBuffer
    {
        std::vector<std::uint32_t> block;
        std::vector<std::uint8_t> unit;
        std::vector<std::uint8_t> typeFlags;
    };

    struct ChunkEntry
    {
        std::uint64_t offset = 0;
        std::uint64_t nRefs = 0;
        std::uint64_t digest = 0;
    };

    void flushChunk(ChunkBuffer &buf, std::vector<ChunkEntry> &entries);
    void writeBytes(const void *data, std::size_t n);
    void padTo8();
    /** Pad to a cache-line boundary (chunk starts). */
    void padTo64();

    std::string _path;
    std::string _name;
    PrepareOptions _opts;
    std::uint64_t _chunkRefs;
    std::uint64_t _configFingerprint;
    int _fd = -1;
    std::uint64_t _pos = 0; //!< Current append offset.
    std::uint64_t _instrRefs = 0;
    std::uint64_t _dataRefs = 0;
    unsigned _nUnits = 0;
    unsigned _nCpus = 0;
    ChunkBuffer _data;
    std::vector<ChunkEntry> _dataEntries;
    std::vector<ChunkBuffer> _cpuBuffers;
    std::vector<std::uint64_t> _cpuRefs;
    std::vector<std::vector<ChunkEntry>> _cpuEntries;
    std::vector<std::uint32_t> _names;
    bool _finished = false;
};

/** How StoredTrace serves chunk windows. */
enum class StoreReadMode
{
    Auto,  //!< mmap, falling back to pread if mapping fails.
    Mmap,  //!< Windowed mmap only (open fails if unsupported).
    Pread, //!< Buffered pread with readahead hints only.
};

/** Reader options. */
struct StoredTraceOptions
{
    StoreReadMode mode = StoreReadMode::Auto;
    /** Check every chunk's digest as its window is read.  Costs one
     *  extra pass over each chunk; on by default because a silent
     *  bit-flip would otherwise replay as a different workload. */
    bool verifyDigests = true;
};

/**
 * A validated stored trace: shared immutable metadata plus cursor
 * factories.  Open with open(); the header and chunk table are fully
 * validated there (magic, version, digests, geometry bounds), so a
 * torn or corrupted file fails fast.  Chunk payload digests are
 * verified lazily as cursors read them.
 *
 * Thread safety: the StoredTrace itself is immutable after open();
 * each cursor owns its window state, so any number of cursors may
 * stream concurrently (pread and per-cursor mmap are independent).
 */
class StoredTrace : public std::enable_shared_from_this<StoredTrace>
{
  public:
    /**
     * Open and validate @p path.
     * @throws std::runtime_error on I/O error, bad magic, digest
     *         mismatch or malformed geometry (including more block
     *         names than data references); the message says which.
     *         A version other than kStoreFormatVersion reports a
     *         distinct "format version" error.
     */
    static std::shared_ptr<const StoredTrace>
    open(const std::string &path, const StoredTraceOptions &opts = {});

    ~StoredTrace();
    StoredTrace(const StoredTrace &) = delete;
    StoredTrace &operator=(const StoredTrace &) = delete;

    const std::string &name() const { return _name; }
    const PrepareOptions &options() const { return _opts; }
    std::uint64_t instrRefs() const { return _instrRefs; }
    std::uint64_t dataRefs() const { return _dataRefs; }
    std::uint64_t totalRefs() const { return _instrRefs + _dataRefs; }
    unsigned numUnits() const { return _nUnits; }
    unsigned numCpus() const { return _nCpus; }
    /** Distinct blocks: every block id lies in [0, numBlocks()). */
    std::uint64_t numBlocks() const { return _names.size(); }
    /** Raw block index of every dense block id (held in memory). */
    mem::BlockNames blockNames() const { return _names; }
    bool hasTimedStreams() const { return _opts.timedStreams; }
    std::uint64_t chunkRefs() const { return _chunkRefs; }
    std::size_t numChunks() const { return _dataChunks.size(); }
    std::uint64_t configFingerprint() const
    {
        return _configFingerprint;
    }
    /** Total file size in bytes (disk-cache budget accounting). */
    std::uint64_t fileBytes() const { return _fileBytes; }
    const std::string &path() const { return _path; }

    /**
     * A fresh span cursor over the interleaved data columns, holding
     * a reference on this trace.  Peak resident memory is one chunk
     * window (plus the names table) regardless of trace length.  A
     * chunk whose digest fails or whose block ids are not below
     * numBlocks() throws std::runtime_error when read.
     */
    std::unique_ptr<PreparedSpanSource> spanCursor() const;

    /**
     * A fresh cursor over CPU @p cpu's timed stream (timed stores
     * only; std::logic_error otherwise).
     */
    std::unique_ptr<CpuRefCursor> cpuCursor(unsigned cpu) const;

    /**
     * Materialise the whole trace back into memory (the disk-cache
     * warm-hit path: reading columns back is a sequential copy, not a
     * re-generate + re-decode).  Digest-verified chunk by chunk.
     */
    PreparedTrace loadAll() const;

  private:
    friend class StoredSpanCursor;
    friend class StoredCpuCursor;

    struct ChunkRef
    {
        std::uint64_t offset = 0;
        std::uint64_t nRefs = 0;
        std::uint64_t digest = 0;
    };

    StoredTrace() = default;

    std::string _path;
    std::string _name;
    PrepareOptions _opts;
    StoredTraceOptions _readOpts;
    std::uint64_t _configFingerprint = 0;
    std::uint64_t _instrRefs = 0;
    std::uint64_t _dataRefs = 0;
    unsigned _nUnits = 0;
    unsigned _nCpus = 0;
    std::uint64_t _chunkRefs = 0;
    std::uint64_t _fileBytes = 0;
    int _fd = -1;
    bool _mmapOk = false; //!< Probed at open for Auto mode.
    std::vector<ChunkRef> _dataChunks;
    /** cpuChunks[cpu] = that CPU's stream chunks (timed only). */
    std::vector<std::vector<ChunkRef>> _cpuChunks;
    std::vector<std::uint64_t> _cpuRefCounts;
    std::vector<std::uint32_t> _names;
};

/** Outcome summary of a spill. */
struct StoredTraceInfo
{
    std::uint64_t instrRefs = 0;
    std::uint64_t dataRefs = 0;
    unsigned nUnits = 0;
    unsigned nCpus = 0;
    std::uint64_t fileBytes = 0;
};

/**
 * The O(chunk) build pipeline: stream @p source once through the same
 * lowering as PreparedTrace::build (trace/lowering.hh), so the
 * spilled columns and names are bit-identical to an in-memory build
 * of the stream, and spill chunks to @p path as they fill.  Nothing
 * but the block numbering is ever fully materialised: peak memory is
 * one chunk buffer (plus one per CPU when opts.timedStreams) and
 * O(numBlocks) for the names.
 *
 * @throws std::invalid_argument when the stream does not fit the
 *         prepared widths (same limits as PreparedTrace::build);
 *         std::runtime_error on I/O failure.  Either way the partial
 *         file is removed.
 */
StoredTraceInfo
spillFromSource(RefSource &source, const std::string &name,
                const PrepareOptions &opts, const std::string &path,
                const StoreWriteOptions &store = {});

/** Spill an already-decoded trace (the disk tier's path when the
 *  in-memory build happened first). */
StoredTraceInfo
writeStored(const PreparedTrace &trace, const std::string &path,
            const StoreWriteOptions &store = {});

} // namespace dirsim::trace

#endif // DIRSIM_TRACE_STORE_HH
