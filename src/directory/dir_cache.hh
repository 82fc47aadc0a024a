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
 * Geometry follows SetAssocTagStore (true LRU, ways kept MRU-first),
 * with one deliberate difference: raw block indices are sequential
 * within each region, so indexing sets by low bits would alias
 * strided footprints systematically.  The set index is therefore
 * derived from util::mix64 of the raw block index (configurable).
 * Entries are tagged with the engines' dense block ids, and the raw
 * index of each comes from the bound names (bindBlockNames()), so a
 * victim indexes engine state directly.  LRU order never depends on
 * id values, so the results are those of raw-id tags.
 *
 * entries == 0 selects the unbounded mode: the cache records presence
 * (so hit/miss statistics stay meaningful) but never evicts, which by
 * construction reproduces the infinite-directory model bit-for-bit.
 */

#ifndef DIRSIM_DIRECTORY_DIR_CACHE_HH
#define DIRSIM_DIRECTORY_DIR_CACHE_HH

#include <cstdint>
#include <vector>

#include "mem/block.hh"

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

/** Outcome of one directory-cache lookup-and-fill. */
struct DirCacheTouch
{
    bool hit = false;
    /** A resident entry was replaced to make room. */
    bool evicted = false;
    /** Dense id of the block whose entry was replaced (valid when
     *  evicted). */
    mem::BlockId victim = 0;
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
     * must invalidate all copies of DirCacheTouch::victim when the
     * fill replaced a resident entry.
     */
    DirCacheTouch touch(mem::BlockId block);

    bool contains(mem::BlockId block) const;

    /** Resident entries. */
    std::uint64_t size() const;
    /** True in the unbounded (never-evicting) mode. */
    bool unbounded() const { return _cfg.entries == 0; }
    /** Set count (0 in unbounded mode). */
    std::uint64_t numSets() const { return _numSets; }

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    std::uint64_t evictions() const { return _evictions; }

    /**
     * Replacements performed per set (empty in unbounded mode); a
     * skewed histogram means the set index is aliasing footprints.
     */
    const std::vector<std::uint64_t> &setReplacements() const
    {
        return _setReplacements;
    }

    /** Drop every entry and counter; keeps the storage. */
    void clear();
    /** Pre-size the unbounded store for dense ids [0, @p blocks). */
    void reserveBlocks(std::uint64_t blocks);
    /** Bind the raw block index of each dense id (mem::BlockNames);
     *  unbound, ids are raw indices. */
    void bindBlockNames(mem::BlockNames names) { _names = names; }

  private:
    struct Way
    {
        mem::BlockId block = 0;
        bool valid = false;
    };

    std::uint64_t setIndexOf(mem::BlockId block) const;

    DirCacheConfig _cfg;
    std::uint64_t _numSets = 0;
    std::uint64_t _setMask = 0;
    /** Finite mode: _numSets * associativity ways, MRU-first per set. */
    std::vector<Way> _ways;
    std::vector<std::uint64_t> _setReplacements;
    /** Unbounded mode: presence only, indexed by dense id. */
    std::vector<std::uint8_t> _present;
    mem::BlockNames _names;
    std::uint64_t _resident = 0;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _evictions = 0;
};

} // namespace dirsim::directory

#endif // DIRSIM_DIRECTORY_DIR_CACHE_HH
