#include "trace/characterize.hh"

#include <stdexcept>

#include "trace/block_numbering.hh"

namespace dirsim::trace
{

double
TraceCharacteristics::readWriteRatio() const
{
    if (dataWrites == 0)
        return 0.0;
    return static_cast<double>(dataReads) /
           static_cast<double>(dataWrites);
}

double
TraceCharacteristics::lockTestReadFrac() const
{
    if (dataReads == 0)
        return 0.0;
    return static_cast<double>(lockTestReads) /
           static_cast<double>(dataReads);
}

TraceCharacteristics
characterize(RefSource &source, const std::string &name,
             unsigned blockBytes)
{
    TraceCharacteristics ch;
    ch.name = name;

    // Per data block, indexed by its dense first-touch id: the first
    // process to touch it, and whether a second one has (the block is
    // then "shared").
    struct BlockInfo
    {
        std::uint16_t firstPid = 0;
        bool shared = false;
        std::uint64_t refs = 0;
        std::uint64_t writes = 0;
    };
    BlockNumbering numbering;
    std::vector<BlockInfo> blocks;

    TraceRecord rec;
    while (source.next(rec)) {
        ++ch.refs;
        if (rec.isSystem())
            ++ch.system;
        else
            ++ch.user;
        if (rec.isInstr()) {
            ++ch.instr;
            continue;
        }
        if (rec.isRead()) {
            ++ch.dataReads;
            if (rec.isLockTest())
                ++ch.lockTestReads;
        } else {
            ++ch.dataWrites;
        }

        const std::uint64_t block = rec.addr / blockBytes;
        if (block > 0xffffffffULL)
            throw std::invalid_argument(
                "characterize: trace '" + name + "' has address " +
                std::to_string(rec.addr) +
                " past the 32-bit block index at block size " +
                std::to_string(blockBytes));
        const std::uint32_t id =
            numbering.number(static_cast<std::uint32_t>(block));
        if (id == blocks.size())
            blocks.push_back(BlockInfo{rec.pid});
        BlockInfo &info = blocks[id];
        if (info.firstPid != rec.pid)
            info.shared = true;
        ++info.refs;
        if (rec.isWrite())
            ++info.writes;
    }

    ch.uniqueDataBlocks = blocks.size();
    for (const BlockInfo &info : blocks) {
        if (info.shared) {
            ++ch.sharedDataBlocks;
            ch.refsToSharedBlocks += info.refs;
            ch.writesToSharedBlocks += info.writes;
        }
    }
    return ch;
}

} // namespace dirsim::trace
