#include "gen/direct_prepare.hh"

#include <cstring>
#include <exception>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mem/block.hh"
#include "trace/block_numbering.hh"
#include "util/thread_pool.hh"

namespace dirsim::gen
{

namespace
{

/** Largest block index the 32-bit column can hold. */
constexpr std::uint64_t maxBlockIndex = 0xffffffffULL;

/** Dense indices the 8-bit unit column can hold. */
constexpr unsigned maxDenseUnits = 256;

/**
 * One generation chunk, nearly in final column form: the generator's
 * order-dependent work is done (the filter, the dense unit numbers,
 * the block shift, the packed type+flags byte) and the block column
 * holds raw block indices.  What remains — first-touch block
 * numbering, then copying into the destination columns or the store
 * writer's append+digest — is the pack worker's.  The generator emits
 * 6 bytes per data reference here, versus the 16-byte TraceRecord the
 * legacy path materialises.
 */
struct GenChunk
{
    /** Columns stay at full chunk capacity; @ref n is the fill level
     *  (raw index stores beat three push_back bound checks in the
     *  per-record loop). */
    util::AlignedVector<std::uint32_t> block;
    util::AlignedVector<std::uint8_t> unit;
    util::AlignedVector<std::uint8_t> typeFlags;
    std::size_t n = 0;          //!< Data references filled.
    std::uint64_t instr = 0;    //!< Instruction fetches in this chunk.
    std::size_t dataOffset = 0; //!< Global index of the first data ref.

    std::size_t size() const { return n; }
};

/** Counts the generator accumulates across the whole stream. */
struct StreamTotals
{
    unsigned nUnits = 0;
    unsigned nCpus = 0;
    std::uint64_t instrRefs = 0;
    std::size_t dataRefs = 0;
};

/**
 * Schedules per-chunk pack work: on the single pool worker when
 * pipelining (FIFO, so chunks retire in submission order — the block
 * numbering and the store writer depend on that), inline otherwise.
 * run() drains the previous task first, so at most one task is ever
 * in flight — that wait is exactly the double-buffer handoff: when
 * the generator refills a buffer, the pack of the chunk *before last*
 * has retired.
 * Worker exceptions (e.g. disk-full from the store writer) are
 * captured and rethrown on the generator thread at the next
 * run()/drain(); the pool's wait() orders the capture before the
 * read.
 */
class ChunkRunner
{
  public:
    explicit ChunkRunner(bool pipelined)
    {
        if (pipelined)
            _pool.emplace(1);
    }

    template <typename Fn>
    void run(Fn &&fn)
    {
        if (!_pool) {
            fn();
            return;
        }
        sync();
        _pool->submit([this, fn = std::forward<Fn>(fn)]() mutable {
            try {
                fn();
            } catch (...) {
                _error = std::current_exception();
            }
        });
    }

    /** Wait for outstanding work; rethrows a captured task error. */
    void drain() { sync(); }

    /** Wait only — for unwind paths where a second throw would
     *  terminate; the captured error (if any) stays for drain(). */
    void waitQuiet() noexcept
    {
        if (_pool)
            _pool->wait();
    }

  private:
    void sync()
    {
        if (_pool)
            _pool->wait();
        if (_error)
            std::rethrow_exception(
                std::exchange(_error, nullptr));
    }

    std::optional<util::ThreadPool> _pool;
    std::exception_ptr _error;
};

/**
 * The serial generator loop: streams @p source, does every
 * order-dependent step (filter, first-seen numbering, width checks,
 * the block shift, type packing, offset accounting), and hands each
 * filled chunk — already in final column form — to @p onChunk in
 * stream order.  The callee owns scheduling; it may
 * keep a chunk in flight until the *next* onChunk call for the same
 * buffer parity (double buffering — buffers alternate, and the
 * callee's internal sync must retire a chunk before its buffer is
 * refilled; ChunkRunner::run does exactly that).
 *
 * The chunk buffers live in THIS frame, so in-flight tasks are
 * retired here — normal return and unwind both — before the frame
 * (and with it the buffers the tasks read) goes away.
 */
template <typename OnChunk>
StreamTotals
streamChunks(WorkloadSource &source, const trace::PrepareOptions &opts,
             std::uint64_t chunkRefs, ChunkRunner &runner,
             OnChunk &&onChunk)
{
    GenChunk bufs[2];
    for (GenChunk &b : bufs) {
        b.block.resize(static_cast<std::size_t>(chunkRefs));
        b.unit.resize(static_cast<std::size_t>(chunkRefs));
        b.typeFlags.resize(static_cast<std::size_t>(chunkRefs));
    }

    std::vector<std::int32_t> unitOf;
    // The prepared format records only the CPU *count* (there is no
    // cpu column outside timedStreams), so first-seen numbering
    // reduces to a seen-bitmap — rec.cpu is 8 bits wide.
    bool cpuSeen[256] = {};
    StreamTotals totals;
    const mem::BlockMapper toBlock(opts.blockBytes);
    std::uint64_t maxAddr = 0;

    trace::TraceRecord rec;
    bool more = true;
    int cur = 0;
    try {
        while (more) {
            GenChunk &chunk = bufs[cur];
            cur ^= 1;
            chunk.instr = 0;
            chunk.dataOffset = totals.dataRefs;
            // Raw cursor stores into the full-capacity columns; the
            // width/overflow throws below run once per chunk, BEFORE
            // onChunk, so a poisoned (truncated) chunk never escapes —
            // the same throw-after-scan semantics as the legacy
            // builder.
            std::uint32_t *outBlock = chunk.block.data();
            std::uint8_t *outUnit = chunk.unit.data();
            std::uint8_t *outType = chunk.typeFlags.data();
            std::size_t n = 0;
            while (n < chunkRefs && (more = source.next(rec))) {
                if (opts.dropLockTests && rec.isLockTest())
                    continue;
                const unsigned unit =
                    sim::mapDense(unitOf,
                                  sim::unitKey(rec, opts.domain),
                                  totals.nUnits);
                if (!cpuSeen[rec.cpu]) {
                    cpuSeen[rec.cpu] = true;
                    ++totals.nCpus;
                }
                if (rec.addr > maxAddr)
                    maxAddr = rec.addr;
                if (rec.isInstr()) {
                    ++chunk.instr;
                    ++totals.instrRefs;
                    continue;
                }
                outBlock[n] =
                    static_cast<std::uint32_t>(toBlock(rec.addr));
                outUnit[n] = static_cast<std::uint8_t>(unit);
                outType[n] = trace::packTypeFlags(rec.type, rec.flags);
                ++n;
            }
            chunk.n = n;
            if (totals.nUnits > maxDenseUnits ||
                totals.nCpus > maxDenseUnits)
                throw std::invalid_argument(
                    "generatePrepared: trace '" +
                    source.config().name +
                    "' uses more than 256 sharing units or CPUs; the "
                    "prepared 8-bit unit column cannot hold it");
            if (toBlock(maxAddr) > maxBlockIndex)
                throw std::invalid_argument(
                    "generatePrepared: address " +
                    std::to_string(maxAddr) +
                    " exceeds the 32-bit block index at block size " +
                    std::to_string(opts.blockBytes));
            totals.dataRefs += chunk.size();
            onChunk(chunk);
        }
    } catch (...) {
        // A task may still be reading bufs; quiesce it (without a
        // second throw) before this frame unwinds the buffers away.
        runner.waitQuiet();
        throw;
    }
    runner.drain();
    return totals;
}

} // namespace

trace::PreparedTrace
generatePrepared(const WorkloadConfig &cfg,
                 const trace::PrepareOptions &opts,
                 const DirectGenConfig &dg)
{
    if (opts.timedStreams) {
        // Timed per-CPU streams re-interleave instruction fetches;
        // that diagnostic decode keeps the two-phase builder.
        return trace::PreparedTrace::build(generateTrace(cfg), opts);
    }

    WorkloadSource source(cfg);
    const std::uint64_t chunkRefs =
        dg.chunkRefs > 0 ? dg.chunkRefs : 1;

    // Staging columns sized to the upper bound (every reference kept
    // as a data reference); each chunk's pack task writes a disjoint
    // [dataOffset, dataOffset + n) range.
    util::AlignedVector<std::uint32_t> block(
        static_cast<std::size_t>(cfg.totalRefs));
    util::AlignedVector<std::uint8_t> unit(
        static_cast<std::size_t>(cfg.totalRefs));
    util::AlignedVector<std::uint8_t> typeFlags(
        static_cast<std::size_t>(cfg.totalRefs));
    // Only pack tasks touch the numbering, one at a time, in stream
    // order; it outlives the runner, which joins first.
    trace::BlockNumbering blocks;

    ChunkRunner runner(dg.pipeline);
    const StreamTotals totals = streamChunks(
        source, opts, chunkRefs, runner, [&](GenChunk &chunk) {
            GenChunk *c = &chunk;
            runner.run([&block, &unit, &typeFlags, &blocks, c] {
                const std::size_t n = c->size();
                const std::size_t at = c->dataOffset;
                for (std::size_t i = 0; i < n; ++i)
                    block[at + i] = blocks.number(c->block[i]);
                if (n > 0) {
                    std::memcpy(unit.data() + at, c->unit.data(), n);
                    std::memcpy(typeFlags.data() + at,
                                c->typeFlags.data(), n);
                }
            });
        });

    // Exact-size final columns: the staging upper bound would
    // otherwise inflate byteSize() (the repository's LRU budget).
    util::AlignedVector<std::uint32_t> outBlock(totals.dataRefs);
    util::AlignedVector<std::uint8_t> outUnit(totals.dataRefs);
    util::AlignedVector<std::uint8_t> outTypeFlags(totals.dataRefs);
    if (totals.dataRefs > 0) {
        std::memcpy(outBlock.data(), block.data(),
                    totals.dataRefs * sizeof(std::uint32_t));
        std::memcpy(outUnit.data(), unit.data(), totals.dataRefs);
        std::memcpy(outTypeFlags.data(), typeFlags.data(),
                    totals.dataRefs);
    }
    return trace::PreparedTrace::fromColumns(
        cfg.name, opts, totals.instrRefs, totals.nUnits, totals.nCpus,
        std::move(outBlock), std::move(outUnit), std::move(outTypeFlags),
        blocks.takeNames());
}

trace::StoredTraceInfo
spillPrepared(const WorkloadConfig &cfg,
              const trace::PrepareOptions &opts, const std::string &path,
              const trace::StoreWriteOptions &store,
              const DirectGenConfig &dg)
{
    if (opts.timedStreams) {
        WorkloadSource source(cfg);
        return trace::spillFromSource(source, cfg.name, opts, path,
                                      store);
    }

    WorkloadSource source(cfg);
    const std::uint64_t chunkRefs =
        dg.chunkRefs > 0 ? dg.chunkRefs : 1;

    // Declaration order matters: the runner joins (and so retires any
    // in-flight writer append) before the numbering goes away and
    // before the writer's destructor can abandon a partial file on
    // the error path.
    trace::PreparedTraceWriter writer(path, cfg.name, opts, store);
    trace::BlockNumbering blocks;
    ChunkRunner runner(dg.pipeline);
    const StreamTotals totals = streamChunks(
        source, opts, chunkRefs, runner, [&](GenChunk &chunk) {
            // The worker owns the numbering and the writer between
            // handoffs: chunks retire in FIFO order on the single
            // worker, so blocks are numbered and appends land in
            // stream order, and digest/flush work overlaps
            // generation.  appendDataBulk re-chunks at the writer's
            // own flush boundaries — the file is byte-identical
            // whatever this pipeline's chunk size.
            GenChunk *c = &chunk;
            runner.run([&writer, &blocks, c] {
                blocks.numberAll(c->block.data(), c->size());
                writer.appendDataBulk(c->block.data(), c->unit.data(),
                                      c->typeFlags.data(), c->size());
                writer.addInstrRefs(c->instr);
            });
        });

    writer.setUnits(totals.nUnits, totals.nCpus);
    writer.setBlockNames(blocks.takeNames());
    trace::StoredTraceInfo info;
    info.instrRefs = writer.instrRefs();
    info.dataRefs = writer.dataRefs();
    info.nUnits = totals.nUnits;
    info.nCpus = totals.nCpus;
    writer.finish();
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(path, ec);
    info.fileBytes = ec ? 0 : static_cast<std::uint64_t>(bytes);
    return info;
}

} // namespace dirsim::gen
