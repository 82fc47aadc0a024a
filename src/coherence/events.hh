/**
 * @file
 * Coherence event taxonomy (the legend of Table 4 in the paper).
 *
 * Every memory reference is classified into exactly one event by a
 * coherence engine.  The paper's observation that event frequencies
 * depend only on the *state-change specification* (not on how the
 * protocol implements it) is what lets a single engine run serve
 * several protocols' cost models.
 *
 * Beyond the paper's legend we split "write hit to a clean block" into
 * the exclusive and shared cases (the Archibald-Baer "clean in exactly
 * one cache" state makes the two cost differently) and add *-Memory
 * events for misses that find the block in no cache, which occur only
 * with finite caches.
 */

#ifndef DIRSIM_COHERENCE_EVENTS_HH
#define DIRSIM_COHERENCE_EVENTS_HH

#include <array>
#include <cstdint>
#include <string>

namespace dirsim::coherence
{

/** Per-reference event classification. */
enum class Event : unsigned
{
    Instr,          //!< Instruction fetch (no coherence action).

    RdHit,          //!< Read hit.
    RmBlkCln,       //!< Read miss, block clean in another cache.
    RmBlkDrty,      //!< Read miss, block dirty in another cache.
    RmMemory,       //!< Read miss, block in no cache (finite only).
    RmFirstRef,     //!< Read miss, first reference to the block.

    WhBlkDrty,      //!< Write hit, block already dirty in this cache.
    WhBlkClnExcl,   //!< Write hit to a clean block held nowhere else.
    WhBlkClnShared, //!< Write hit to a clean block in other caches too.
    WhDistrib,      //!< Dragon: write hit, block in other caches.
    WhLocal,        //!< Dragon: write hit, block in no other cache.
    WmBlkCln,       //!< Write miss, block clean in other cache(s).
    WmBlkDrty,      //!< Write miss, block dirty in another cache.
    WmMemory,       //!< Write miss, block in no cache (finite only).
    WmFirstRef,     //!< Write miss, first reference to the block.

    NumEvents,
};

constexpr std::size_t numEvents =
    static_cast<std::size_t>(Event::NumEvents);

/** A write hit of any kind (its fanout sample goes to whClnFanout). */
constexpr bool
isWriteHit(Event event)
{
    return event >= Event::WhBlkDrty && event <= Event::WhLocal;
}

/** Short name used in tables ("rm-blk-cln" etc.). */
const std::string &eventName(Event event);

/** Raw counts for every event plus the reference total. */
class EventCounts
{
  public:
    EventCounts() { _counts.fill(0); }

    void
    record(Event event)
    {
        ++_counts[static_cast<std::size_t>(event)];
        ++_totalRefs;
    }

    /** Record @p n occurrences at once (bulk instruction counting). */
    void
    record(Event event, std::uint64_t n)
    {
        _counts[static_cast<std::size_t>(event)] += n;
        _totalRefs += n;
    }

    void merge(const EventCounts &other);

    std::uint64_t totalRefs() const { return _totalRefs; }
    std::uint64_t
    count(Event event) const
    {
        return _counts[static_cast<std::size_t>(event)];
    }

    /** Frequency of one event relative to all references. */
    double frac(Event event) const;

    /** @name Table 4 aggregates.
     *  @{ */
    /** All reads (hits + all miss kinds). */
    std::uint64_t reads() const;
    /** All writes. */
    std::uint64_t writes() const;
    /** Read misses excluding first references. */
    std::uint64_t readMisses() const;
    /** Write misses excluding first references. */
    std::uint64_t writeMisses() const;
    /** Write hits (all kinds). */
    std::uint64_t writeHits() const;
    /** Write hits to clean blocks (exclusive + shared). */
    std::uint64_t writeHitsClean() const;
    /** @} */

    bool
    operator==(const EventCounts &other) const
    {
        return _totalRefs == other._totalRefs &&
               _counts == other._counts;
    }

  private:
    std::array<std::uint64_t, numEvents> _counts;
    std::uint64_t _totalRefs = 0;
};

} // namespace dirsim::coherence

#endif // DIRSIM_COHERENCE_EVENTS_HH
