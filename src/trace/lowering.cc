#include "trace/lowering.hh"

#include <stdexcept>

#include "sim/unit_map.hh"

namespace dirsim::trace
{

namespace
{

/** Largest block index the 32-bit column can hold. */
constexpr std::uint64_t maxBlockIndex = 0xffffffffULL;

/** Dense indices the 8-bit unit column can hold.  CPUs need no check:
 *  a record's 8-bit cpu field names at most this many. */
constexpr unsigned maxDenseUnits = 256;

/** Dense CPU indices: a record's cpu field is 8 bits wide. */
constexpr unsigned maxCpus = 256;

} // namespace

StreamLowering::StreamLowering(std::string name,
                               const PrepareOptions &opts)
    : _name(std::move(name)), _opts(opts), _toBlock(opts.blockBytes),
      _unitOf(std::size_t{1} << 16, -1), _cpuOf(std::size_t{1} << 8, -1),
      _records(kBatchRecords), _block(kBatchRecords),
      _unit(kBatchRecords), _typeFlags(kBatchRecords)
{
    if (_opts.timedStreams) {
        _keptCpu.resize(kBatchRecords);
        _keptBlock.resize(kBatchRecords);
        _keptUnit.resize(kBatchRecords);
        _keptTypeFlags.resize(kBatchRecords);
        _keptOfData.resize(kBatchRecords);
    }
}

bool
StreamLowering::next(RefSource &source)
{
    const std::size_t n = source.nextBatch(_records.data(), kBatchRecords);
    if (_opts.timedStreams)
        lower<true>(n);
    else
        lower<false>(n);
    return n != 0;
}

void
StreamLowering::checkWidths() const
{
    if (_nUnits > maxDenseUnits)
        throw std::invalid_argument(
            "PreparedTrace: trace '" + _name + "' uses " +
            std::to_string(_nUnits) +
            " sharing units; the prepared 8-bit unit column holds at "
            "most " + std::to_string(maxDenseUnits));
    if (_toBlock(_maxAddr) > maxBlockIndex)
        throw std::invalid_argument(
            "PreparedTrace: address " + std::to_string(_maxAddr) +
            " exceeds the 32-bit block index at block size " +
            std::to_string(_opts.blockBytes));
}

template <bool Timed>
void
StreamLowering::lower(std::size_t n)
{
    // Counters and output cursors live in locals: the byte stores
    // below may alias any member, which would otherwise force a
    // reload of each one per record.
    const TraceRecord *const records = _records.data();
    std::int32_t *const unitOf = _unitOf.data();
    std::int32_t *const cpuOf = _cpuOf.data();
    std::uint32_t *const block = _block.data();
    std::uint8_t *const unitOut = _unit.data();
    std::uint8_t *const typeFlags = _typeFlags.data();
    std::uint8_t *const keptCpu = _keptCpu.data();
    std::uint32_t *const keptBlock = _keptBlock.data();
    std::uint8_t *const keptUnit = _keptUnit.data();
    std::uint8_t *const keptTypeFlags = _keptTypeFlags.data();
    std::uint32_t *const keptOfData = _keptOfData.data();
    const bool dropLockTests = _opts.dropLockTests;
    const sim::SharingDomain domain = _opts.domain;
    const mem::BlockMapper toBlock = _toBlock;
    unsigned nUnits = _nUnits;
    unsigned nCpus = _nCpus;
    std::uint64_t maxAddr = _maxAddr;
    std::uint64_t instrRefs = _instrRefs;
    std::size_t nData = 0;
    std::size_t nKept = 0;
    // First pass: everything but the block numbering.  Every kept
    // record writes at the data cursor and only a data reference
    // advances it, so the type is not branched on.
    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord &rec = records[i];
        if (dropLockTests && rec.isLockTest())
            continue;
        std::int32_t &unitSlot = unitOf[sim::unitKey(rec, domain)];
        if (unitSlot < 0)
            unitSlot = static_cast<std::int32_t>(nUnits++);
        const auto unit = static_cast<std::uint8_t>(unitSlot);
        std::int32_t &cpuSlot = cpuOf[rec.cpu];
        if (cpuSlot < 0)
            cpuSlot = static_cast<std::int32_t>(nCpus++);
        if (rec.addr > maxAddr)
            maxAddr = rec.addr;
        const std::uint8_t tf = packTypeFlags(rec.type, rec.flags);
        const bool isData = !rec.isInstr();
        // Truncation past 32 bits is harmless: checkWidths() rejects
        // the batch before anything is numbered.
        block[nData] = static_cast<std::uint32_t>(toBlock(rec.addr));
        unitOut[nData] = unit;
        typeFlags[nData] = tf;
        if constexpr (Timed) {
            keptOfData[nData] = static_cast<std::uint32_t>(nKept);
            keptCpu[nKept] = static_cast<std::uint8_t>(cpuSlot);
            keptBlock[nKept] = 0;
            keptUnit[nKept] = unit;
            keptTypeFlags[nKept] = tf;
            ++nKept;
        }
        nData += isData;
        instrRefs += !isData;
    }
    _nUnits = nUnits;
    _nCpus = nCpus;
    _maxAddr = maxAddr;
    _instrRefs = instrRefs;
    _nData = nData;
    _nKept = nKept;
    checkWidths();

    // Second pass: first-touch ids in stream order, in place.
    BlockNumbering &blocks = _blocks;
    for (std::size_t j = 0; j < nData; ++j) {
        const std::uint32_t id = blocks.number(block[j]);
        block[j] = id;
        if constexpr (Timed)
            keptBlock[keptOfData[j]] = id;
    }
}

void
StreamLowering::appendToCpuStreams(
    std::vector<PreparedCpuStream> &streams) const
{
    // Count per CPU, grow each stream once, then one scatter pass.
    // The batch is read through locals: the byte stores below may
    // alias any member.
    const std::size_t n = _nKept;
    const std::uint8_t *const keptCpu = _keptCpu.data();
    const std::uint32_t *const keptBlock = _keptBlock.data();
    const std::uint8_t *const keptUnit = _keptUnit.data();
    const std::uint8_t *const keptTypeFlags = _keptTypeFlags.data();
    if (streams.size() < _nCpus)
        streams.resize(_nCpus);
    std::size_t count[maxCpus] = {};
    for (std::size_t i = 0; i < n; ++i)
        ++count[keptCpu[i]];
    std::uint32_t *block[maxCpus] = {};
    std::uint8_t *unit[maxCpus] = {};
    std::uint8_t *typeFlags[maxCpus] = {};
    for (std::size_t c = 0; c < streams.size(); ++c) {
        PreparedCpuStream &s = streams[c];
        const std::size_t at = s.size();
        s.block.resize(at + count[c]);
        s.unit.resize(at + count[c]);
        s.typeFlags.resize(at + count[c]);
        block[c] = s.block.data() + at;
        unit[c] = s.unit.data() + at;
        typeFlags[c] = s.typeFlags.data() + at;
    }
    for (std::size_t i = 0; i < n; ++i) {
        const unsigned c = keptCpu[i];
        *block[c]++ = keptBlock[i];
        *unit[c]++ = keptUnit[i];
        *typeFlags[c]++ = keptTypeFlags[i];
    }
}

} // namespace dirsim::trace
