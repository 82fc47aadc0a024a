/**
 * @file
 * Cache tag-store interface.
 *
 * Coherence engines track global block state themselves; a TagStore
 * models one cache's *capacity*: which blocks fit.  The paper's
 * evaluation uses infinite caches ("to isolate the traffic incurred in
 * maintaining coherence"); the finite set-associative store powers the
 * finite-cache extension study.
 */

#ifndef DIRSIM_MEM_TAG_STORE_HH
#define DIRSIM_MEM_TAG_STORE_HH

#include <cstdint>

#include "mem/block.hh"

namespace dirsim::mem
{

/** Result of touching a tag store with a reference. */
struct TouchResult
{
    bool hit = false;          //!< Block was already resident.
    bool evicted = false;      //!< A block was displaced to make room.
    BlockId evictedBlock = 0;  //!< Valid when evicted is true.
};

/** Abstract per-cache tag store. */
class TagStore
{
  public:
    virtual ~TagStore() = default;

    /**
     * Reference @p block, allocating it if absent.
     * @return Hit/eviction outcome.
     */
    virtual TouchResult touch(BlockId block) = 0;
    /** Remove @p block if present (coherence invalidation). */
    virtual void invalidate(BlockId block) = 0;
    /** True when @p block is resident. */
    virtual bool contains(BlockId block) const = 0;
    /** Number of resident blocks. */
    virtual std::uint64_t size() const = 0;
    /** Drop all contents. */
    virtual void clear() = 0;
    /**
     * Bind the raw block index of each dense block id (see
     * mem::BlockNames).  A store whose placement depends on the
     * address reads it from here; tags stay dense ids, so a victim
     * indexes engine state directly.  Unbound, ids are raw indices.
     */
    virtual void bindBlockNames(BlockNames /*names*/) {}
};

} // namespace dirsim::mem

#endif // DIRSIM_MEM_TAG_STORE_HH
