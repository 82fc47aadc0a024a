/**
 * @file
 * True write-through-with-invalidate (WTI) state engine.
 *
 * The paper costs WTI from the Dir0B engine run, on the observation
 * that both protocols share one state-change model.  This engine
 * implements WTI's semantics directly — every write goes through to
 * memory, so no cached copy is ever dirty and every miss is serviced
 * by (always current) memory — which lets the test suite *verify* the
 * paper's frequency-equivalence claim instead of assuming it: hit and
 * miss totals must match the invalidation engine reference for
 * reference, while the dirty sub-classification collapses.
 *
 * A no-allocate mode is provided as an ablation: real write-through
 * caches often do not allocate on a write miss, which changes the
 * state dynamics (the writer gains no copy) and breaks the
 * equivalence — measurably.
 */

#ifndef DIRSIM_COHERENCE_WTI_ENGINE_HH
#define DIRSIM_COHERENCE_WTI_ENGINE_HH

#include "coherence/block_table.hh"
#include "coherence/engine.hh"

namespace dirsim::coherence
{

/** Snoopy write-through-with-invalidate engine. */
class WtiEngine final : public CoherenceEngine
{
  public:
    /**
     * @param nUnits Number of caches.
     * @param allocateOnWriteMiss Fetch the block on a write miss
     *        (true matches the paper's state model; false is the
     *        classic write-around ablation).
     */
    explicit WtiEngine(unsigned nUnits,
                       bool allocateOnWriteMiss = true);

    Outcome access(unsigned unit, trace::RefType type,
                   mem::BlockId block) override;
    void accessPrepared(const trace::PreparedSpan &span) override;
    void recordInstrs(std::uint64_t n) override;
    /** Write-around leaves a writer with no copy, so its next read
     *  misses. */
    bool repeatReadsHit() const override { return _allocate; }
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
        bool referenced = false;
    };

    /** One reference, its outcome as @p Out: Outcome for access(),
     *  NoOutcome for the static replay loops. */
    template <typename Out>
    Out step(unsigned unit, trace::RefType type, mem::BlockId block);
    template <typename Out> Out handleRead(unsigned unit, BlockState &st);
    template <typename Out> Out handleWrite(unsigned unit, BlockState &st);

    unsigned _nUnits;
    bool _allocate;
    EngineResults _results;
    BlockTable<BlockState> _blocks;
};

} // namespace dirsim::coherence

#endif // DIRSIM_COHERENCE_WTI_ENGINE_HH
