/**
 * @file
 * Directory-entry interface.
 *
 * Section 2 of the paper surveys four directory organisations (Tang's
 * duplicate directories, Censier-Feautrier presence bits, Yen-Fu's
 * single-bit refinement, and the Archibald-Baer two-bit scheme) and
 * Section 6 adds limited-pointer and coarse-vector codes.  Each
 * organisation stores a different *approximation* of the set of caches
 * holding a block; the coherence engines keep the exact holder set and
 * consult a DirEntry to learn what a real directory of that
 * organisation would do — in particular, which caches it would send
 * invalidations to, and whether it must fall back to broadcast.
 */

#ifndef DIRSIM_DIRECTORY_ENTRY_HH
#define DIRSIM_DIRECTORY_ENTRY_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

#include "util/bits.hh"

namespace dirsim::directory
{

/** Maximum caches a directory entry tracks (bitmask width). */
constexpr unsigned maxUnits = 64;

/** What a directory would do to invalidate all other copies. */
struct InvalTargets
{
    /** Directory must broadcast: every cache gets the invalidation. */
    bool broadcast = false;
    /** Otherwise: bitmask of caches to send directed invalidations. */
    std::uint64_t mask = 0;

    /** Number of directed messages (meaningless when broadcasting). */
    unsigned count() const { return util::popcount(mask); }
};

/** One block's directory state under some organisation. */
class DirEntry
{
  public:
    virtual ~DirEntry() = default;

    /** A cache obtained a clean copy (read fill). */
    virtual void addSharer(unsigned unit) = 0;
    /** A cache wrote: it is now the sole (dirty) holder. */
    virtual void makeOwner(unsigned unit) = 0;
    /** A cache lost its copy (eviction or directed invalidation). */
    virtual void removeSharer(unsigned unit) = 0;
    /** The dirty block was written back; holders stay, all clean. */
    virtual void cleanse() = 0;

    /** Is some cache recorded as holding the block dirty? */
    virtual bool dirty() const = 0;
    /**
     * Which caches must a write by @p writer invalidate?
     *
     * @param writer The writing cache.
     * @param writerHasCopy True on a write hit (lets organisations
     *        that count copies but not identities, like the two-bit
     *        scheme, recognise the "clean in exactly one cache" case).
     */
    virtual InvalTargets invalTargets(unsigned writer,
                                      bool writerHasCopy) const = 0;
};

/**
 * Creates blank entries of one organisation.
 *
 * Two creation paths: make() heap-allocates an owned entry (tests,
 * ad-hoc use), while the size/align/construct triple lets
 * DirEntryArena placement-construct entries in bulk storage — the
 * hot path, where one malloc per block would dominate.
 */
class DirEntryFactory
{
  public:
    virtual ~DirEntryFactory() = default;
    /** @param nUnits Number of caches in the system. */
    virtual std::unique_ptr<DirEntry> make(unsigned nUnits) const = 0;

    /** Bytes one entry of this organisation occupies. */
    virtual std::size_t entryBytes() const = 0;
    /** Alignment one entry requires. */
    virtual std::size_t entryAlign() const = 0;
    /** Placement-construct a blank entry in @p mem (entryBytes()
     *  bytes, entryAlign()-aligned).  Destruction is the caller's:
     *  invoke the virtual destructor, do not delete. */
    virtual DirEntry *construct(void *mem, unsigned nUnits) const = 0;
};

} // namespace dirsim::directory

#endif // DIRSIM_DIRECTORY_ENTRY_HH
