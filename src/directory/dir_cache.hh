/**
 * @file
 * Finite sparse directory cache.
 *
 * The paper's cost model assumes the directory holds an entry for
 * every memory block.  Real machines keep directory state in a finite
 * set-associative store; when a lookup misses and the set is full, an
 * existing entry is replaced, and coherence demands that every cached
 * copy of the victim block be invalidated first (a dirty owner must
 * also write back).  DirectoryCache models exactly that structure:
 * the *engines* still keep precise sharing state per block, and this
 * class decides which blocks currently have a resident directory
 * entry and which resident entry each new entry displaces.
 *
 * The finite mode is a one-copy mem::SetAssocTagStore (true LRU,
 * 32-bit tags kept MRU-first), with one deliberate difference in its
 * default: raw block indices are sequential within each region, so
 * indexing sets by low bits would alias strided footprints
 * systematically.  The set index is therefore derived from
 * util::mix64 of the raw block index (configurable).  Entries are
 * tagged with the engines' dense block ids, and the raw index of each
 * comes from the bound names (bindBlockNames()), so a victim indexes
 * engine state directly.  LRU order never depends on id values, so
 * the results are those of raw-id tags.
 *
 * entries == 0 selects the unbounded mode: the cache records presence
 * (so hit/miss statistics stay meaningful) but never evicts, which by
 * construction reproduces the infinite-directory model bit-for-bit.
 */

#ifndef DIRSIM_DIRECTORY_DIR_CACHE_HH
#define DIRSIM_DIRECTORY_DIR_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/block.hh"
#include "mem/set_assoc.hh"

namespace dirsim::directory
{

/** Shape of the finite directory-entry store. */
struct DirCacheConfig
{
    /** Model a finite directory cache at all? */
    bool enabled = false;
    /** Total entries; 0 means unbounded (never evicts). */
    std::uint64_t entries = 0;
    /** Ways per set; entries/associativity sets (power of two). */
    unsigned associativity = 4;
    /**
     * Spread raw block indices across sets with util::mix64 before
     * masking.  Off, sequential blocks map to consecutive sets and
     * strided footprints collapse onto a few sets.
     */
    bool mixSetIndex = true;
};

/** Set-associative, true-LRU cache of directory entries. */
class DirectoryCache
{
  public:
    /**
     * @param cfg Geometry; with finite entries, entries must be a
     *            multiple of associativity and entries/associativity
     *            a nonzero power of two.
     */
    explicit DirectoryCache(const DirCacheConfig &cfg);

    /**
     * Look up @p block's entry, allocating one on a miss; the caller
     * must invalidate all copies of TouchResult::evictedBlock when
     * the fill replaced a resident entry.
     */
    mem::TouchResult
    touch(mem::BlockId block)
    {
        if (!_store)
            return touchPresence(block);
        const mem::TouchResult result = _store->touch(0, block);
        // Added on hits too: branching on the search's outcome here
        // measured slower.
        _setReplacements[result.set] += result.evicted;
        return result;
    }

    bool contains(mem::BlockId block) const;

    /** Resident entries. */
    std::uint64_t size() const;
    /** True in the unbounded (never-evicting) mode. */
    bool unbounded() const { return !_store; }
    /** Set count (0 in unbounded mode). */
    std::uint64_t numSets() const { return _setReplacements.size(); }

    /**
     * Replacements performed per set (empty in unbounded mode); a
     * skewed histogram means the set index is aliasing footprints.
     */
    const std::vector<std::uint64_t> &setReplacements() const
    {
        return _setReplacements;
    }

    /** Drop every entry and replacement count; keeps the storage. */
    void clear();
    /** Pre-size the unbounded store for dense ids [0, @p blocks). */
    void reserveBlocks(std::uint64_t blocks);
    /** Bind the raw block index of each dense id (mem::BlockNames);
     *  unbound, ids are raw indices. */
    void
    bindBlockNames(mem::BlockNames names)
    {
        if (_store)
            _store->bindBlockNames(names);
    }

  private:
    /** Unbounded mode: record presence, never evict. */
    mem::TouchResult touchPresence(mem::BlockId block);

    /** Finite mode: one copy of the configured geometry. */
    std::optional<mem::SetAssocTagStore> _store;
    std::vector<std::uint64_t> _setReplacements;
    /** Unbounded mode: presence only, indexed by dense id. */
    std::vector<std::uint8_t> _present;
    std::uint64_t _presentCount = 0;
};

} // namespace dirsim::directory

#endif // DIRSIM_DIRECTORY_DIR_CACHE_HH
