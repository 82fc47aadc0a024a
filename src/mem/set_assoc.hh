/**
 * @file
 * Finite set-associative tag store with LRU replacement.
 */

#ifndef DIRSIM_MEM_SET_ASSOC_HH
#define DIRSIM_MEM_SET_ASSOC_HH

#include <cstdint>
#include <vector>

#include "mem/tag_store.hh"

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

/**
 * A set-associative cache directory with true-LRU replacement.
 *
 * Each set keeps its ways ordered most- to least-recently used; a
 * touch moves the block to the front, a fill evicts the back.  Tags
 * are the dense block ids the engines use; the set index comes from
 * the raw block index (bindBlockNames()), as hardware indexes by
 * address bits.
 */
class SetAssocTagStore : public TagStore
{
  public:
    /**
     * @param geometry Cache shape; capacity, block size and ways must
     *                 yield a power-of-two, nonzero set count.
     */
    explicit SetAssocTagStore(const CacheGeometry &geometry);

    TouchResult touch(BlockId block) override;
    void invalidate(BlockId block) override;
    bool contains(BlockId block) const override;
    std::uint64_t size() const override;
    void clear() override;
    void bindBlockNames(BlockNames names) override { _names = names; }

    const CacheGeometry &geometry() const { return _geometry; }

  private:
    struct Way
    {
        BlockId block = 0;
        bool valid = false;
    };

    std::uint64_t setIndex(BlockId block) const;
    /** Ways of one set, MRU first. */
    Way *setBase(std::uint64_t set);
    const Way *setBase(std::uint64_t set) const;

    CacheGeometry _geometry;
    std::uint64_t _numSets;
    std::uint64_t _setMask;
    std::vector<Way> _ways;
    BlockNames _names;
    std::uint64_t _resident = 0;
};

} // namespace dirsim::mem

#endif // DIRSIM_MEM_SET_ASSOC_HH
