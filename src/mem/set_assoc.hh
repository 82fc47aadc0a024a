/**
 * @file
 * Finite set-associative tag store with LRU replacement.
 *
 * Coherence engines track global block state themselves; a tag store
 * models one cache's *capacity*: which blocks fit.  The paper's
 * evaluation uses infinite caches ("to isolate the traffic incurred in
 * maintaining coherence"); this store powers the finite-cache
 * extension study, one per unit of an InvalEngine.
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
    bool hit = false;          //!< Block was already resident.
    bool evicted = false;      //!< A block was displaced to make room.
    BlockId evictedBlock = 0;  //!< Valid when evicted is true.
};

/**
 * A set-associative cache directory with true-LRU replacement.
 *
 * Each set keeps its resident blocks ordered most- to least-recently
 * used, at the front of its ways; the free ways after them hold
 * kEmpty.  A touch moves the block to the front, a fill evicts the
 * back.  Tags are the dense block ids the engines use; the set index
 * comes from the raw block index (bindBlockNames()), as hardware
 * indexes by address bits.
 */
class SetAssocTagStore
{
  public:
    /**
     * @param geometry Cache shape; capacity, block size and ways must
     *                 yield a power-of-two, nonzero set count.
     */
    explicit SetAssocTagStore(const CacheGeometry &geometry);

    /** Reference @p block, allocating it if absent. */
    TouchResult
    touch(BlockId block)
    {
        assert(block != kEmpty);
        TouchResult result;
        BlockId *ways = setBase(setIndex(block));
        const unsigned n = _geometry.ways;
        // Search; on a hit rotate the block to the MRU (front) way.
        for (unsigned w = 0; w < n; ++w) {
            if (ways[w] == block) {
                for (unsigned v = w; v > 0; --v)
                    ways[v] = ways[v - 1];
                ways[0] = block;
                result.hit = true;
                return result;
            }
        }
        // Miss: evict the LRU (back) way if every way is in use.
        if (ways[n - 1] != kEmpty) {
            result.evicted = true;
            result.evictedBlock = ways[n - 1];
        } else {
            ++_resident;
        }
        for (unsigned v = n - 1; v > 0; --v)
            ways[v] = ways[v - 1];
        ways[0] = block;
        return result;
    }

    /** Remove @p block if present (coherence invalidation). */
    void invalidate(BlockId block);
    /** True when @p block is resident. */
    bool contains(BlockId block) const;
    /** Number of resident blocks. */
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
    static constexpr BlockId kEmpty = ~BlockId(0);

    std::uint64_t
    setIndex(BlockId block) const
    {
        const BlockId raw = rawBlock(_names, block);
        const std::uint64_t key =
            _geometry.mixSetIndex ? util::mix64(raw) : raw;
        return key & _setMask;
    }
    /** Ways of one set, MRU first. */
    BlockId *setBase(std::uint64_t set)
    {
        return &_tags[set * _geometry.ways];
    }
    const BlockId *setBase(std::uint64_t set) const
    {
        return &_tags[set * _geometry.ways];
    }

    CacheGeometry _geometry;
    std::uint64_t _setMask;
    std::vector<BlockId> _tags;
    BlockNames _names;
    std::uint64_t _resident = 0;
};

} // namespace dirsim::mem

#endif // DIRSIM_MEM_SET_ASSOC_HH
