/**
 * @file
 * The DiriNB transition core, shared by the single- and
 * multi-configuration engines.
 *
 * LimitedEngine (one pointer count per instance) and
 * MultiLimitedEngine (every pointer count of a sweep over one shared
 * block table) must classify every reference identically — the golden
 * digests are compared bit for bit across the two paths.  Rather than
 * rely on two copies of the protocol staying in sync, the transition
 * functions live here once, header-inline, and both engines call
 * them.  A lane is the per-configuration slice of a block's directory
 * state: the holder mask, the fill-order queue, the dirty owner and
 * the referenced bit.
 *
 * Call protocol (the split exists because the engines interpose a
 * directory-cache touch between the hit test and the miss service,
 * and hits must not touch the directory):
 *
 *   read:   if (laneReadHit(lane, unit, r, out)) return;       // no state
 *           <directory transaction bookkeeping>
 *           laneReadMiss(lane, unit, nPointers, r, out);
 *   write:  if (laneWriteDirtyHit(lane, unit, r, out)) return; // no state
 *           <directory transaction bookkeeping>
 *           laneWrite(lane, unit, r, out);
 *
 * Each function notes what it adds to @p r in the reference's
 * outcome @p out as well: an Outcome, or a NoOutcome where the caller
 * discards it (coherence/outcome.hh).
 *
 * Semantics (paper Sections 3-4): at most nPointers caches hold a
 * block; an (nPointers+1)-th read miss displaces the oldest holder
 * ("displacement invalidation"); a read miss to a dirty block writes
 * the owner's copy back, and with nPointers == 1 also invalidates the
 * ex-owner; a write invalidates every other copy and takes ownership.
 */

#ifndef DIRSIM_COHERENCE_LIMITED_POLICY_HH
#define DIRSIM_COHERENCE_LIMITED_POLICY_HH

#include <cassert>
#include <cstdint>

#include "coherence/outcome.hh"
#include "coherence/results.hh"
#include "util/bits.hh"

namespace dirsim::coherence
{

/** One configuration's directory state for one block. */
struct LimitedLane
{
    /**
     * Holder membership, one bit per unit (engines cap units at 64),
     * giving the hot-path holds() test a single mask probe with no
     * heap indirection.  The holder count is popcount(mask).
     */
    std::uint64_t mask = 0;
    /**
     * The same holders as a byte queue in fill order, oldest in the
     * low byte (hence <= 8 pointers): pushing is an OR at byte
     * popcount(mask), displacing the oldest is a right shift.
     * Keeping the queue inline means a lane is two words with no
     * heap spill.
     */
    std::uint64_t fillq = 0;
    std::int16_t owner = -1;
    bool referenced = false;
};

/** Does @p unit hold a copy under this holder mask? */
inline bool
laneHolds(std::uint64_t mask, unsigned unit)
{
    return (mask >> unit) & 1;
}

/**
 * Read-hit test: records RdHit and returns true when @p unit already
 * holds a copy (no state change, no directory transaction).
 */
template <typename Out>
inline bool
laneReadHit(const LimitedLane &st, unsigned unit, EngineResults &r,
            Out &out)
{
    if (!laneHolds(st.mask, unit))
        return false;
    classify(r, out, Event::RdHit);
    return true;
}

/**
 * Write-hit-to-owned test: records WhBlkDrty and returns true when
 * @p unit holds the block dirty (no state change, no directory
 * transaction).  A hit to a *clean* copy is not silent — it needs
 * the directory, so it falls through to laneWrite().
 */
template <typename Out>
inline bool
laneWriteDirtyHit(const LimitedLane &st, unsigned unit,
                  EngineResults &r, Out &out)
{
    if (!(laneHolds(st.mask, unit) &&
          st.owner == static_cast<int>(unit)))
        return false;
    classify(r, out, Event::WhBlkDrty);
    return true;
}

/**
 * Service a read miss for @p unit: classify it, write back (and with
 * nPointers == 1 invalidate) a dirty owner, displace the oldest
 * holder if all @p nPointers pointers are in use, and install the new
 * copy at the back of the fill queue.
 */
template <typename Out>
inline void
laneReadMiss(LimitedLane &st, unsigned unit, unsigned nPointers,
             EngineResults &r, Out &out)
{
    if (!st.referenced) {
        st.referenced = true;
        classify(r, out, Event::RmFirstRef);
    } else if (st.owner >= 0) {
        // Write back; with a single pointer the ex-owner is also
        // invalidated, otherwise it keeps a clean copy.
        classify(r, out, Event::RmBlkDrty);
        st.owner = -1;
        if (nPointers == 1) {
            st.mask = 0;
            st.fillq = 0;
            // The forced removal of the ex-owner's copy is part of
            // the miss service, not an extra displacement.
        }
    } else if (st.mask != 0) {
        classify(r, out, Event::RmBlkCln);
    } else {
        classify(r, out, Event::RmMemory);
    }

    unsigned nHolders = util::popcount(st.mask);
    if (nHolders == 1) {
        ++r.holderGrowth12;
        out.setHolderGrowth12(1);
    }
    if (nHolders == nPointers) {
        // Displace the oldest holder (the queue's low byte) to free
        // a pointer for the new copy.
        st.mask &= ~(std::uint64_t(1) << (st.fillq & 0xff));
        st.fillq >>= 8;
        --nHolders;
        ++r.displacementInvals;
        out.setDisplacementInvals(1);
    }
    st.mask |= std::uint64_t(1) << unit;
    st.fillq |= std::uint64_t(unit) << (8 * nHolders);
}

/**
 * Service a write that needs the directory (a miss, or a hit to a
 * clean copy): classify it, invalidate every other copy and make
 * @p unit the sole dirty owner.
 */
template <typename Out>
inline void
laneWrite(LimitedLane &st, unsigned unit, EngineResults &r, Out &out)
{
    if (laneHolds(st.mask, unit)) {
        // Hit to a clean copy (a dirty hit never reaches here).
        assert(st.owner < 0);
        const unsigned fanout =
            util::popcount(st.mask) - 1u;
        classify(r, out,
                 fanout == 0 ? Event::WhBlkClnExcl
                             : Event::WhBlkClnShared);
        sampleFanout(r.whClnFanout, out, fanout);
    } else if (!st.referenced) {
        st.referenced = true;
        classify(r, out, Event::WmFirstRef);
    } else if (st.owner >= 0) {
        classify(r, out, Event::WmBlkDrty);
    } else if (st.mask != 0) {
        classify(r, out, Event::WmBlkCln);
        sampleFanout(r.wmClnFanout, out,
                     util::popcount(st.mask));
    } else {
        classify(r, out, Event::WmMemory);
    }

    st.mask = std::uint64_t(1) << unit;
    st.fillq = unit;
    st.owner = static_cast<std::int16_t>(unit);
}

} // namespace dirsim::coherence

#endif // DIRSIM_COHERENCE_LIMITED_POLICY_HH
