#include "trace/prepared.hh"

#include <algorithm>
#include <stdexcept>

#include "mem/block.hh"
#include "trace/block_numbering.hh"

namespace dirsim::trace
{

namespace
{

/** Raw records per decode chunk: large enough that the per-chunk
 *  bookkeeping vanishes, small enough to spread across workers. */
constexpr std::size_t chunkRecords = 64 * 1024;

/** Largest block index the 32-bit column can hold. */
constexpr std::uint64_t maxBlockIndex = 0xffffffffULL;

/** Dense indices the 8-bit unit column can hold. */
constexpr unsigned maxDenseUnits = 256;

} // namespace

PreparedTraceBuilder::PreparedTraceBuilder(const MemoryTrace &trace,
                                           const PrepareOptions &opts)
    : _trace(trace)
{
    _out._name = trace.meta().name;
    _out._opts = opts;

    // --- Planning scan: number, count, validate -----------------------
    // The scan applies the same filter and visits records in the same
    // order as the raw replay path, so the dense numbering it freezes
    // is exactly what sim::UnitMapper (units) and the raw path's
    // BlockNumbering (blocks) would assign there.  Block numbering is
    // inherently serial, so the scan writes the block column itself;
    // the decode workers read it back for the timed streams.
    const std::vector<TraceRecord> &records = trace.records();
    const mem::BlockMapper toBlock(opts.blockBytes);
    BlockNumbering blocks;
    unsigned unitsSeen = 0;
    unsigned cpusSeen = 0;
    std::uint64_t maxAddr = 0;
    std::uint64_t instrRefs = 0;
    std::size_t dataTotal = 0;
    /** Kept references per dense CPU index so far (timed streams). */
    std::vector<std::size_t> cpuTotal;

    for (std::size_t begin = 0; begin < records.size();
         begin += chunkRecords) {
        ChunkPlan plan;
        plan.rawBegin = begin;
        plan.rawEnd = std::min(begin + chunkRecords, records.size());
        plan.dataOffset = dataTotal;
        if (opts.timedStreams)
            plan.cpuOffset = cpuTotal;

        for (std::size_t i = plan.rawBegin; i < plan.rawEnd; ++i) {
            const TraceRecord &rec = records[i];
            if (opts.dropLockTests && rec.isLockTest())
                continue;
            sim::mapDense(_unitOf, sim::unitKey(rec, opts.domain),
                          unitsSeen);
            const unsigned cpu =
                sim::mapDense(_cpuOf, rec.cpu, cpusSeen);
            if (rec.addr > maxAddr)
                maxAddr = rec.addr;
            if (rec.isInstr()) {
                ++instrRefs;
            } else {
                // Truncation past 32 bits is harmless: such a trace
                // is rejected below, before the builder is usable.
                _out._block.push_back(blocks.number(
                    static_cast<std::uint32_t>(toBlock(rec.addr))));
                ++dataTotal;
            }
            if (opts.timedStreams) {
                if (cpu >= cpuTotal.size())
                    cpuTotal.resize(cpu + 1, 0);
                ++cpuTotal[cpu];
            }
        }
        _chunks.push_back(std::move(plan));
    }

    if (unitsSeen > maxDenseUnits)
        throw std::invalid_argument(
            "PreparedTrace: trace '" + _out._name + "' uses " +
            std::to_string(unitsSeen) +
            " sharing units; the prepared 8-bit unit column holds at "
            "most " + std::to_string(maxDenseUnits));
    if (cpusSeen > maxDenseUnits)
        throw std::invalid_argument(
            "PreparedTrace: trace '" + _out._name + "' uses " +
            std::to_string(cpusSeen) +
            " CPUs; the prepared 8-bit unit column holds at most " +
            std::to_string(maxDenseUnits));
    if (toBlock(maxAddr) > maxBlockIndex)
        throw std::invalid_argument(
            "PreparedTrace: address " + std::to_string(maxAddr) +
            " exceeds the 32-bit block index at block size " +
            std::to_string(opts.blockBytes));

    // --- Allocate the output columns ---------------------------------
    _out._instrRefs = instrRefs;
    _out._nUnits = unitsSeen;
    _out._nCpus = cpusSeen;
    // Exact capacity: byteSize() feeds the repository's LRU budget.
    _out._block.shrink_to_fit();
    _out._names = blocks.takeNames();
    _out._unit.resize(dataTotal);
    _out._typeFlags.resize(dataTotal);
    if (opts.timedStreams) {
        _out._cpuStreams.resize(cpusSeen);
        for (unsigned c = 0; c < cpusSeen; ++c) {
            const std::size_t n =
                c < cpuTotal.size() ? cpuTotal[c] : 0;
            _out._cpuStreams[c].block.resize(n);
            _out._cpuStreams[c].unit.resize(n);
            _out._cpuStreams[c].typeFlags.resize(n);
        }
        // Pad every chunk's offset snapshot to the final CPU count: a
        // CPU first seen in a later chunk has written nothing before
        // it, so its prefix offset in earlier chunks is zero.
        for (ChunkPlan &plan : _chunks)
            plan.cpuOffset.resize(cpusSeen, 0);
    }
}

void
PreparedTraceBuilder::decodeChunk(std::size_t chunk)
{
    const ChunkPlan &plan = _chunks.at(chunk);
    const std::vector<TraceRecord> &records = _trace.records();
    const PrepareOptions &opts = _out._opts;

    std::size_t dataPos = plan.dataOffset;
    // Local write cursors; each chunk owns a disjoint slice of every
    // column, so concurrent decodeChunk calls never touch the same
    // element.
    std::vector<std::size_t> cpuPos = plan.cpuOffset;

    for (std::size_t i = plan.rawBegin; i < plan.rawEnd; ++i) {
        const TraceRecord &rec = records[i];
        if (opts.dropLockTests && rec.isLockTest())
            continue;
        const unsigned unit = static_cast<unsigned>(
            _unitOf[sim::unitKey(rec, opts.domain)]);
        // Instruction entries (timed streams only) carry block 0: no
        // engine reads an instruction's block.
        const std::uint32_t block =
            rec.isInstr() ? 0 : _out._block[dataPos];
        const std::uint8_t tf = packTypeFlags(rec.type, rec.flags);
        if (!rec.isInstr()) {
            _out._unit[dataPos] = static_cast<std::uint8_t>(unit);
            _out._typeFlags[dataPos] = tf;
            ++dataPos;
        }
        if (opts.timedStreams) {
            const unsigned cpu =
                static_cast<unsigned>(_cpuOf[rec.cpu]);
            PreparedCpuStream &stream = _out._cpuStreams[cpu];
            std::size_t &pos = cpuPos[cpu];
            stream.block[pos] = block;
            stream.unit[pos] = static_cast<std::uint8_t>(unit);
            stream.typeFlags[pos] = tf;
            ++pos;
        }
    }
    _decoded.fetch_add(1, std::memory_order_release);
}

PreparedTrace
PreparedTraceBuilder::finish()
{
    if (_finished)
        throw std::logic_error(
            "PreparedTraceBuilder: finish() called twice");
    if (_decoded.load(std::memory_order_acquire) != _chunks.size())
        throw std::logic_error(
            "PreparedTraceBuilder: finish() before every chunk was "
            "decoded");
    _finished = true;
    return std::move(_out);
}

PreparedTrace
PreparedTrace::fromColumns(std::string name, const PrepareOptions &opts,
                           std::uint64_t instrRefs, unsigned nUnits,
                           unsigned nCpus,
                           util::AlignedVector<std::uint32_t> block,
                           util::AlignedVector<std::uint8_t> unit,
                           util::AlignedVector<std::uint8_t> typeFlags,
                           std::vector<std::uint32_t> blockNames)
{
    if (unit.size() != block.size() ||
        typeFlags.size() != block.size())
        throw std::invalid_argument(
            "PreparedTrace::fromColumns: column lengths differ");
    if (nUnits > maxDenseUnits || nCpus > maxDenseUnits)
        throw std::invalid_argument(
            "PreparedTrace::fromColumns: more than 256 units or CPUs");
    if (opts.timedStreams)
        throw std::invalid_argument(
            "PreparedTrace::fromColumns: timed streams need the "
            "two-phase builder");
    const std::size_t bad = firstBlockOutOfRange(
        block.data(), nullptr, block.size(), blockNames.size());
    if (bad != block.size())
        throw std::invalid_argument(
            "PreparedTrace::fromColumns: block id " +
            std::to_string(block[bad]) + " is out of range (numBlocks " +
            std::to_string(blockNames.size()) + ")");
    PreparedTrace out;
    out._name = std::move(name);
    out._opts = opts;
    out._instrRefs = instrRefs;
    out._nUnits = nUnits;
    out._nCpus = nCpus;
    out._block = std::move(block);
    out._unit = std::move(unit);
    out._typeFlags = std::move(typeFlags);
    out._names = std::move(blockNames);
    return out;
}

PreparedTrace
PreparedTrace::build(const MemoryTrace &trace,
                     const PrepareOptions &opts)
{
    PreparedTraceBuilder builder(trace, opts);
    for (std::size_t c = 0; c < builder.numChunks(); ++c)
        builder.decodeChunk(c);
    return builder.finish();
}

bool
PreparedTraceSpans::nextSpan(PreparedSpan &span)
{
    const std::size_t total = _trace->dataRefs();
    if (_done || (_pos >= total && total != 0))
        return false;
    const std::size_t n =
        _window == 0 ? total
                     : std::min(_window, total - _pos);
    span.block = _trace->blockData() + _pos;
    span.unit = _trace->unitData() + _pos;
    span.typeFlags = _trace->typeFlagsData() + _pos;
    span.n = n;
    _pos += n;
    // An empty trace yields exactly one empty span, then ends.
    _done = total == 0 || _pos >= total;
    return true;
}

std::size_t
PreparedTrace::byteSize() const
{
    std::size_t bytes = sizeof(*this);
    bytes += _block.capacity() * sizeof(std::uint32_t);
    bytes += _unit.capacity() + _typeFlags.capacity();
    bytes += _names.capacity() * sizeof(std::uint32_t);
    for (const PreparedCpuStream &s : _cpuStreams) {
        bytes += s.block.capacity() * sizeof(std::uint32_t);
        bytes += s.unit.capacity() + s.typeFlags.capacity();
    }
    return bytes;
}

} // namespace dirsim::trace
