/**
 * @file
 * Dragon (write-update) state engine.
 *
 * The update protocol of Section 3: stale copies are refreshed, never
 * invalidated, so with infinite caches a block stays in every cache
 * that ever loaded it.  The interesting events are write hits that
 * must be distributed over the bus (wh-distrib) versus purely local
 * write hits (wh-local), discriminated in hardware by the "shared"
 * bus line.  A dirty block is supplied by its owning cache on a miss
 * (rm-blk-drty / wm-blk-drty); ownership moves to the last writer.
 */

#ifndef DIRSIM_COHERENCE_DRAGON_ENGINE_HH
#define DIRSIM_COHERENCE_DRAGON_ENGINE_HH

#include "coherence/block_table.hh"
#include "coherence/engine.hh"

namespace dirsim::coherence
{

/** The Dragon update-protocol engine. */
class DragonEngine final : public CoherenceEngine
{
  public:
    explicit DragonEngine(unsigned nUnits);

    Outcome access(unsigned unit, trace::RefType type,
                   mem::BlockId block) override;
    void accessPrepared(const trace::PreparedSpan &span) override;
    void recordInstrs(std::uint64_t n) override;
    bool repeatReadsHit() const override { return true; }
    void recordRepeatReads(std::uint64_t n) override;
    const EngineResults &results() const override { return _results; }
    unsigned numUnits() const override { return _nUnits; }
    void reset() override;
    void reserveBlocks(std::uint64_t blocks) override
    {
        _blocks.reserve(blocks);
    }
    std::uint64_t blocksTracked() const override
    {
        return _blocks.count(
            [](const BlockState &st) { return st.referenced; });
    }

  private:
    struct BlockState
    {
        std::uint64_t holders = 0;
        /** Owning cache (memory is stale), -1 when memory is current. */
        std::int16_t owner = -1;
        bool referenced = false;
    };

    /** One reference, its outcome as @p Out: Outcome for access(),
     *  NoOutcome for the static replay loops. */
    template <typename Out>
    Out step(unsigned unit, trace::RefType type, mem::BlockId block);
    template <typename Out> Out handleRead(unsigned unit, BlockState &st);
    template <typename Out> Out handleWrite(unsigned unit, BlockState &st);

    unsigned _nUnits;
    EngineResults _results;
    BlockTable<BlockState> _blocks;
};

} // namespace dirsim::coherence

#endif // DIRSIM_COHERENCE_DRAGON_ENGINE_HH
