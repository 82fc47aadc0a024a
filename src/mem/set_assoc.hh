/**
 * @file
 * Finite set-associative tag store with LRU replacement.
 *
 * Coherence engines track global block state themselves; a tag store
 * models a cache's *capacity*: which blocks fit.  The paper's
 * evaluation uses infinite caches ("to isolate the traffic incurred in
 * maintaining coherence"); this store powers the two extensions that
 * drop that assumption: the finite-cache study, where one store holds
 * a copy per unit of an InvalEngine, and the finite directory cache
 * (directory/dir_cache.hh), a one-copy store of directory entries.
 */

#ifndef DIRSIM_MEM_SET_ASSOC_HH
#define DIRSIM_MEM_SET_ASSOC_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "mem/block.hh"
#include "util/hash.hh"

namespace dirsim::mem
{

/** Geometry of a finite cache. */
struct CacheGeometry
{
    std::uint64_t capacityBytes = 64 * 1024;
    unsigned blockBytes = 16;
    unsigned ways = 4;
    /**
     * Spread raw block indices across sets with util::mix64 before
     * masking.  The default low-bits index aliases strided footprints
     * (every numSets-th block lands in one set); mixing breaks that
     * up.  Off by default: the original fixed mapping is what
     * hardware indexed by address bits does, and the finite-cache
     * golden digests pin it.
     */
    bool mixSetIndex = false;

    std::uint64_t
    numSets() const
    {
        const std::uint64_t way_bytes =
            static_cast<std::uint64_t>(blockBytes) * ways;
        return way_bytes == 0 ? 0 : capacityBytes / way_bytes;
    }
};

/** Result of touching a tag store with a reference. */
struct TouchResult
{
    bool hit = false;               //!< Block was already resident.
    bool evicted = false;           //!< A block was displaced to make room.
    std::uint32_t evictedBlock = 0; //!< Valid when evicted is true.
    std::uint64_t set = 0;          //!< Set of the block and its victim.
};

/**
 * One or more same-shaped set-associative caches with true-LRU
 * replacement, in one array of 32-bit tags.
 *
 * Each set of each copy keeps its resident blocks ordered most- to
 * least-recently used, at the front of its ways; the free ways after
 * them hold kEmpty.  A touch moves the block to the front, a fill
 * evicts the back.  The copies of one set lie side by side, so the
 * invalidations a write sends to every other holder of a block read
 * one neighbourhood.  Tags are the dense block ids the engines use,
 * which every prepared format keeps in 32 bits; the set index comes
 * from the raw block index (bindBlockNames()), as hardware indexes by
 * address bits.
 */
class SetAssocTagStore
{
  public:
    /**
     * @param geometry Cache shape; capacity, block size and ways must
     *                 yield a power-of-two, nonzero set count.
     * @param copies   Independent caches of that shape to hold.
     */
    explicit SetAssocTagStore(const CacheGeometry &geometry,
                              unsigned copies = 1);

    /** Reference @p block in cache @p copy, allocating it if absent. */
    TouchResult
    touch(unsigned copy, BlockId block)
    {
        assert(copy < _copies && block < kEmpty);
        const auto tag = static_cast<std::uint32_t>(block);
        TouchResult result;
        result.set = setIndex(block);
        std::uint32_t *ways = waysOf(copy, result.set);
        // A constant way count unrolls; four is every study's shape.
        std::uint32_t pushedOut = kEmpty;
        result.hit = _ways == 4 ? moveToFront<4>(ways, 4, tag, pushedOut)
                                : moveToFront<0>(ways, _ways, tag, pushedOut);
        if (result.hit)
            return result;
        if (pushedOut != kEmpty) {
            result.evicted = true;
            result.evictedBlock = pushedOut;
        } else {
            ++_resident;
        }
        return result;
    }

    /** Remove @p block from cache @p copy if present (coherence
     *  invalidation). */
    void
    invalidate(unsigned copy, BlockId block)
    {
        assert(copy < _copies && block < kEmpty);
        const auto tag = static_cast<std::uint32_t>(block);
        std::uint32_t *ways = waysOf(copy, setIndex(block));
        const unsigned n = _ways;
        for (unsigned w = 0; w < n; ++w) {
            if (ways[w] == tag) {
                // Compact the remaining ways towards the front; the
                // freed way becomes the LRU slot.
                for (unsigned v = w; v + 1 < n; ++v)
                    ways[v] = ways[v + 1];
                ways[n - 1] = kEmpty;
                --_resident;
                return;
            }
        }
    }

    /** True when @p block is resident in cache @p copy. */
    bool contains(unsigned copy, BlockId block) const;
    /** Resident blocks, summed over every copy. */
    std::uint64_t size() const { return _resident; }
    /** Drop all contents. */
    void clear();
    /**
     * Bind the raw block index of each dense block id (see
     * mem::BlockNames); sets are indexed by it.  Tags stay dense ids,
     * so a victim indexes engine state directly.  Unbound, ids are
     * raw indices.
     */
    void bindBlockNames(BlockNames names) { _names = names; }

    const CacheGeometry &geometry() const { return _geometry; }

  private:
    /** Tag of a free way; no block id reaches it. */
    static constexpr std::uint32_t kEmpty = ~0u;

    /**
     * Move @p tag to the front of the @p n ways at @p ways (N of them
     * when N is nonzero) in one pass: each way takes the tag before
     * it until @p tag's own way is reached, a hit, or the last tag,
     * kEmpty while the set has room, falls off the back into
     * @p pushedOut.
     */
    template <unsigned N>
    static bool
    moveToFront(std::uint32_t *ways, unsigned n, std::uint32_t tag,
                std::uint32_t &pushedOut)
    {
        if constexpr (N != 0)
            n = N;
        std::uint32_t carry = tag;
        for (unsigned w = 0; w < n; ++w) {
            const std::uint32_t held = ways[w];
            ways[w] = carry;
            if (held == tag)
                return true;
            carry = held;
        }
        pushedOut = carry;
        return false;
    }

    std::uint64_t
    setIndex(BlockId block) const
    {
        const BlockId raw = rawBlock(_names, block);
        const std::uint64_t key =
            _geometry.mixSetIndex ? util::mix64(raw) : raw;
        return key & _setMask;
    }
    /** Ways of one set of one copy, MRU first. */
    std::uint32_t *
    waysOf(unsigned copy, std::uint64_t set)
    {
        return &_tags[set * _setWays + copy * _ways];
    }
    const std::uint32_t *
    waysOf(unsigned copy, std::uint64_t set) const
    {
        return &_tags[set * _setWays + copy * _ways];
    }

    CacheGeometry _geometry;
    unsigned _ways;
    unsigned _copies;
    /** Ways of one set over every copy. */
    std::uint64_t _setWays;
    std::uint64_t _setMask;
    std::vector<std::uint32_t> _tags;
    BlockNames _names;
    std::uint64_t _resident = 0;
};

} // namespace dirsim::mem

#endif // DIRSIM_MEM_SET_ASSOC_HH
