/**
 * @file
 * Berkeley Ownership state engine.
 *
 * The paper *estimates* Berkeley from the Dir0B engine by zeroing the
 * directory-check cost, noting that "the Berkeley scheme, in
 * addition, uses a different state for a dirty block that becomes
 * shared to enable the cache to supply a block rather than memory.
 * This optimization does not impact our performance metric in the
 * pipelined bus."  This engine implements the real protocol — states
 * Invalid / Valid / SharedDirty (owned) / Dirty — so the test suite
 * can verify both halves of that sentence: on a read miss to an owned
 * block the owner supplies the data *without a memory write-back* and
 * keeps ownership, so (a) the pipelined-bus cost equals the estimate,
 * and (b) the non-pipelined costs differ, because a cache access and
 * a flush-plus-snarf are no longer the same price.
 */

#ifndef DIRSIM_COHERENCE_BERKELEY_ENGINE_HH
#define DIRSIM_COHERENCE_BERKELEY_ENGINE_HH

#include "coherence/block_table.hh"
#include "coherence/engine.hh"

namespace dirsim::coherence
{

/** Ownership-based snoopy engine (Berkeley protocol). */
class BerkeleyEngine final : public CoherenceEngine
{
  public:
    explicit BerkeleyEngine(unsigned nUnits);

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

    /** Current owner of @p block (supplies data), or -1 if memory. */
    int owner(mem::BlockId block) const;

  private:
    struct BlockState
    {
        std::uint64_t holders = 0;
        /** Owning cache; memory is stale while >= 0. */
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

#endif // DIRSIM_COHERENCE_BERKELEY_ENGINE_HH
