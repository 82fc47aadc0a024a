/**
 * @file
 * Write-invalidate state engine with unbounded copies.
 *
 * Implements the state-change model shared by Dir0B, WTI, DirnNB,
 * DiriB, the Berkeley-Ownership estimate and the Yen-Fu refinement:
 * a clean block may reside in any number of caches, a dirty block in
 * exactly one; a write invalidates all other copies; a read miss to a
 * dirty block flushes it to memory and the ex-owner keeps a clean
 * copy.
 *
 * Optionally carries a real directory organisation (DirEntry) per
 * block, recording what that organisation would have done —
 * directed invalidations, broadcasts, and overshoot — and optionally
 * finite set-associative caches, one tag-store copy per unit, for the
 * finite-cache extension.
 */

#ifndef DIRSIM_COHERENCE_INVAL_ENGINE_HH
#define DIRSIM_COHERENCE_INVAL_ENGINE_HH

#include <memory>
#include <optional>

#include "coherence/block_table.hh"
#include "coherence/engine.hh"
#include "directory/arena.hh"
#include "directory/dir_cache.hh"
#include "directory/entry.hh"
#include "mem/set_assoc.hh"

namespace dirsim::coherence
{

/** How memory blocks are assigned home nodes (Section 2/7: memory
 *  and directory distributed with the processors). */
enum class HomePolicy
{
    None,      //!< Centralised memory; no locality tracking.
    Modulo,    //!< Home = raw block index mod unit count (interleaved).
    FirstTouch,//!< Home = first unit to reference the block (NUMA).
};

/** Configuration for InvalEngine. */
struct InvalEngineConfig
{
    unsigned nUnits = 4;
    /** Distributed-directory home assignment to track. */
    HomePolicy homePolicy = HomePolicy::None;
    /** Optional directory organisation to shadow (may be null). */
    const directory::DirEntryFactory *dirFactory = nullptr;
    /**
     * Geometry of a finite cache per unit; unset means infinite
     * caches (the paper's model).
     */
    std::optional<mem::CacheGeometry> finiteCaches;
    /**
     * Finite directory-entry cache; disabled means the paper's
     * entry-per-block directory.
     */
    directory::DirCacheConfig dirCache;
};

/** The multiple-clean / single-dirty invalidation engine. */
class InvalEngine final : public CoherenceEngine
{
  public:
    explicit InvalEngine(const InvalEngineConfig &cfg);

    Outcome access(unsigned unit, trace::RefType type,
                   mem::BlockId block) override;
    void accessPrepared(const trace::PreparedSpan &span) override;
    void recordInstrs(std::uint64_t n) override;
    /** Finite caches and a finite directory cache take copies away. */
    bool repeatReadsHit() const override;
    void recordRepeatReads(std::uint64_t n) override;
    const EngineResults &results() const override { return _results; }
    unsigned numUnits() const override { return _cfg.nUnits; }
    void reset() override;
    void reserveBlocks(std::uint64_t blocks) override;
    /** Binds the names for HomePolicy::Modulo and forwards them to the
     *  finite caches and the directory cache. */
    void bindBlockNames(mem::BlockNames names) override;
    std::uint64_t blocksTracked() const override
    {
        return _blocks.count(
            [](const BlockState &st) { return st.referenced; });
    }

    /** Exact holder mask of @p block (tests / diagnostics). */
    std::uint64_t holders(mem::BlockId block) const;
    /** Dirty-owner unit of @p block, or -1. */
    int dirtyOwner(mem::BlockId block) const;
    /** The finite directory cache, or null when disabled. */
    const directory::DirectoryCache *dirCache() const
    {
        return _dirCache.get();
    }

  private:
    struct BlockState
    {
        std::uint64_t holders = 0;
        std::int16_t owner = -1; //!< Dirty owner, -1 when clean.
        std::int16_t home = -1;  //!< Home node (when tracked).
        bool referenced = false;
        /** Arena handle of the shadowed directory entry (npos when
         *  no organisation is shadowed). */
        directory::DirEntryArena::Index dir =
            directory::DirEntryArena::npos;
    };

    /** @p block's state, allocating its shadowed directory entry on
     *  first touch. */
    BlockState &lookup(mem::BlockId block);
    /** The shadowed entry of @p st, or null when none. */
    directory::DirEntry *dirOf(const BlockState &st)
    {
        return st.dir == directory::DirEntryArena::npos
                   ? nullptr
                   : &_dirArena.entry(st.dir);
    }
    /** One reference, its outcome as @p Out: Outcome for access(),
     *  NoOutcome for the static replay loops. */
    template <typename Out>
    Out step(unsigned unit, trace::RefType type, mem::BlockId block);
    template <typename Out>
    Out handleRead(unsigned unit, mem::BlockId block, BlockState &st);
    template <typename Out>
    Out handleWrite(unsigned unit, mem::BlockId block, BlockState &st);
    /** Classify a directory/memory transaction by home locality. */
    void recordHomeUse(unsigned unit, BlockState &st,
                       mem::BlockId block);
    /** Record what the shadowed directory would send for this write. */
    void recordDirActivity(unsigned unit, bool unitHasCopy,
                           const BlockState &st);
    /** Install @p block in @p unit's finite cache, evicting as needed;
     *  true when the victim was dirty and written back. */
    bool fillCache(unsigned unit, mem::BlockId block);
    /** Remove copies in @p mask (tag stores + holder bits). */
    void invalidateMask(mem::BlockId block, BlockState &st,
                        std::uint64_t mask);
    /**
     * Look up @p block in the finite directory cache (no-op when
     * disabled), force-invalidating every copy of the entry the fill
     * displaced.  Called on every directory transaction — all misses
     * and write hits to clean blocks — never on pure cache hits.
     * Returns the eviction traffic as an outcome with no event yet.
     */
    template <typename Out> Out touchDirCache(mem::BlockId block);

    InvalEngineConfig _cfg;
    EngineResults _results;
    BlockTable<BlockState> _blocks;
    mem::BlockNames _names;
    directory::DirEntryArena _dirArena;
    /** The finite caches, one copy per unit; empty with infinite
     *  caches. */
    std::optional<mem::SetAssocTagStore> _caches;
    std::unique_ptr<directory::DirectoryCache> _dirCache;
};

} // namespace dirsim::coherence

#endif // DIRSIM_COHERENCE_INVAL_ENGINE_HH
