/**
 * @file
 * What one reference did, as the cost models see it.
 *
 * The cost models read a handful of EngineResults fields: the event
 * counts, the two invalidation-fanout histograms, 1→2 holder growth,
 * displacement invalidations, replacement write-backs and the
 * directory-cache eviction counters.  CoherenceEngine::access()
 * returns an Outcome holding this reference's share of each, so a
 * per-reference consumer (the timed bus) prices the reference
 * without diffing the whole results block.  Engines fill it at the
 * same spots they bump EngineResults, so summing the Outcomes of a
 * run reproduces those fields exactly (tests/coherence_test.cc holds
 * every engine configuration to that).
 *
 * The fields are packed one byte each into a single 64-bit word, so
 * engines build it with register operations and return it in one
 * register; a struct of byte fields would be assembled on the stack
 * with byte stores and reloaded whole, a store-forwarding stall on
 * every reference.  The bulk replay loop (accessPrepared) discards
 * the outcome, so engines instantiate their handlers for it with
 * NoOutcome, whose setters do nothing: that path compiles to the
 * counting alone.
 */

#ifndef DIRSIM_COHERENCE_OUTCOME_HH
#define DIRSIM_COHERENCE_OUTCOME_HH

#include <cstdint>
#include <type_traits>

#include "coherence/results.hh"

namespace dirsim::coherence
{

/**
 * One reference's event and its additions to the costed counters.  A
 * default-constructed Outcome is an instruction fetch that added
 * nothing.
 */
class Outcome
{
  public:
    Outcome() = default;

    Event event() const { return static_cast<Event>(get(EventField)); }
    /**
     * The reference took a fanout sample: into whClnFanout for a
     * write hit, wmClnFanout otherwise (see isWriteHit()).
     */
    bool sampled() const { return get(Sampled) != 0; }
    /** The sample's value (0 when none). */
    unsigned fanout() const { return get(Fanout); }
    unsigned holderGrowth12() const { return get(HolderGrowth12); }
    unsigned displacementInvals() const { return get(Displacements); }
    unsigned replacementWriteBacks() const { return get(ReplWriteBacks); }
    unsigned dirCacheEvictionInvals() const { return get(DirCacheInvals); }
    unsigned
    dirCacheEvictionWriteBacks() const
    {
        return get(DirCacheWriteBacks);
    }

    /**
     * Nothing beyond the event: every auxiliary count is zero and any
     * fanout sample is 0, so the reference costs exactly its event's
     * base charge.  True for every instruction fetch and hit.
     */
    bool eventOnly() const { return (_bits >> (8 * Fanout)) == 0; }

    /** @name Setters; engines call each at most once per reference.
     *  Counts must fit a byte (they are 0 or 1, or a holder count
     *  of at most 64). */
    /** @{ */
    void setEvent(Event e) { set(EventField, static_cast<unsigned>(e)); }
    void
    setFanout(unsigned fanout)
    {
        set(Sampled, 1);
        set(Fanout, fanout);
    }
    void setHolderGrowth12(unsigned n) { set(HolderGrowth12, n); }
    void setDisplacementInvals(unsigned n) { set(Displacements, n); }
    void setReplacementWriteBacks(unsigned n) { set(ReplWriteBacks, n); }
    void
    setDirCacheEviction(unsigned invals, unsigned writeBacks)
    {
        set(DirCacheInvals, invals);
        set(DirCacheWriteBacks, writeBacks);
    }
    /** @} */

  private:
    /** Byte index of each field in the word. */
    enum Field : unsigned
    {
        EventField,
        Sampled,
        Fanout, //!< First field eventOnly() requires to be zero.
        HolderGrowth12,
        Displacements,
        ReplWriteBacks,
        DirCacheInvals,
        DirCacheWriteBacks,
    };

    unsigned
    get(Field f) const
    {
        return static_cast<unsigned>(_bits >> (8 * f)) & 0xff;
    }

    void
    set(Field f, unsigned value)
    {
        _bits = (_bits & ~(std::uint64_t(0xff) << (8 * f))) |
                (std::uint64_t(value & 0xff) << (8 * f));
    }

    std::uint64_t _bits = 0;
};

static_assert(std::is_trivially_copyable_v<Outcome> &&
                  sizeof(Outcome) == 8,
              "an Outcome is returned in one register per reference");

/** Outcome's stand-in where the caller discards it: the same
 *  setters, doing nothing. */
struct NoOutcome
{
    void setEvent(Event) {}
    void setFanout(unsigned) {}
    void setHolderGrowth12(unsigned) {}
    void setDisplacementInvals(unsigned) {}
    void setReplacementWriteBacks(unsigned) {}
    void setDirCacheEviction(unsigned, unsigned) {}
};

/** Record @p event for this reference in @p results and @p out. */
template <typename Out>
inline void
classify(EngineResults &results, Out &out, Event event)
{
    results.events.record(event);
    out.setEvent(event);
}

/** Take a fanout sample of @p fanout into @p hist and @p out. */
template <typename Out>
inline void
sampleFanout(stats::Histogram &hist, Out &out, unsigned fanout)
{
    hist.sample(fanout);
    out.setFanout(fanout);
}

} // namespace dirsim::coherence

#endif // DIRSIM_COHERENCE_OUTCOME_HH
