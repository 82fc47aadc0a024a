/**
 * @file
 * Limited-copy (no-broadcast) state engine: DiriNB.
 *
 * At most i caches may hold a block simultaneously; the directory
 * keeps i pointers and never broadcasts.  When an (i+1)-th cache read
 * misses, the directory invalidates one existing copy (oldest first)
 * to free a pointer — a "displacement invalidation".  Dir1NB, the
 * most restrictive scheme the paper evaluates, is the i = 1 instance:
 * every miss moves the sole copy between caches, which is what makes
 * spin locks bounce (Section 5.2).
 *
 * On a read miss to a dirty block the ex-owner's copy is written back;
 * with i = 1 the ex-owner must also be invalidated, with i >= 2 it
 * keeps a clean copy.
 */

#ifndef DIRSIM_COHERENCE_LIMITED_ENGINE_HH
#define DIRSIM_COHERENCE_LIMITED_ENGINE_HH

#include <cstdint>
#include <memory>

#include "coherence/block_table.hh"
#include "coherence/engine.hh"
#include "coherence/limited_policy.hh"
#include "directory/dir_cache.hh"

namespace dirsim::coherence
{

/** The DiriNB engine; i = 1 gives Dir1NB. */
class LimitedEngine final : public CoherenceEngine
{
  public:
    /**
     * @param nUnits Number of caches.
     * @param nPointers The i of DiriNB; 1 <= i <= nUnits, and at
     *        most 8 after clamping to nUnits — the paper's no-
     *        broadcast sweep tops out at Dir8NB, and the bound keeps
     *        every block's fill-order queue inline in one 64-bit
     *        word (see LimitedLane::fillq).
     * @param dirCache Optional finite directory-entry cache; the
     *        default (disabled) keeps an entry per block.
     */
    LimitedEngine(unsigned nUnits, unsigned nPointers,
                  const directory::DirCacheConfig &dirCache = {});

    Outcome access(unsigned unit, trace::RefType type,
                   mem::BlockId block) override;
    void accessPrepared(const trace::PreparedSpan &span) override;
    void recordInstrs(std::uint64_t n) override;
    const EngineResults &results() const override { return _results; }
    unsigned numUnits() const override { return _nUnits; }
    void reset() override;
    void reserveBlocks(std::uint64_t blocks) override
    {
        _blocks.reserve(blocks);
        if (_dirCache)
            _dirCache->reserveBlocks(blocks);
    }
    /** Forwards to the finite directory cache's set index. */
    void bindBlockNames(mem::BlockNames names) override
    {
        if (_dirCache)
            _dirCache->bindBlockNames(names);
    }
    std::uint64_t blocksTracked() const override
    {
        return _blocks.count(
            [](const BlockState &st) { return st.referenced; });
    }

    unsigned numPointers() const { return _nPointers; }
    /** The finite directory cache, or null when disabled. */
    const directory::DirectoryCache *dirCache() const
    {
        return _dirCache.get();
    }

  private:
    /**
     * A block's whole directory state is one LimitedLane — the shared
     * transition core in limited_policy.hh operates on it directly,
     * so this engine and MultiLimitedEngine provably execute the same
     * protocol.
     */
    using BlockState = LimitedLane;

    /** One reference, its outcome as @p Out: Outcome for access(),
     *  NoOutcome for the static replay loops. */
    template <typename Out>
    Out step(unsigned unit, trace::RefType type, mem::BlockId block);
    template <typename Out>
    Out handleRead(unsigned unit, mem::BlockId block, BlockState &st);
    template <typename Out>
    Out handleWrite(unsigned unit, mem::BlockId block, BlockState &st);
    /** Directory-cache lookup on a directory transaction; evicting a
     *  resident entry force-invalidates the victim's copies.  Returns
     *  the eviction traffic as an outcome with no event yet. */
    template <typename Out> Out touchDirCache(mem::BlockId block);

    unsigned _nUnits;
    unsigned _nPointers;
    EngineResults _results;
    BlockTable<BlockState> _blocks;
    std::unique_ptr<directory::DirectoryCache> _dirCache;
};

} // namespace dirsim::coherence

#endif // DIRSIM_COHERENCE_LIMITED_ENGINE_HH
