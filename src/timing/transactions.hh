/**
 * @file
 * The bus charge table: per-reference tenures for the timed model and
 * aggregate bus cycles for the static one, from a single encoding.
 *
 * The paper prices coherence traffic as a constant per event times
 * the event's frequency (Tables 1-2).  TransactionModel writes those
 * constants down once per (scheme, bus, CostOptions) as a table: the
 * bus tenures each event needs, how the first tenure grows with the
 * reference's invalidation fanout, and what each auxiliary count
 * (pointer displacements, 1→2 holder growth, replacement and
 * directory-cache eviction traffic) adds.  Two consumers read it:
 *
 *  - the timed bus prices each reference's coherence::Outcome with
 *    charge(); an outcome that carries only its event (every
 *    instruction fetch and hit) gets the event's precomputed charge;
 *  - staticBusCycles() sums the same table over a run's event counts,
 *    fanout histograms and auxiliary totals, in exact integers.
 *
 * The two agree by construction whenever a run's outcomes sum to its
 * EngineResults, which tests/coherence_test.cc checks for every
 * engine configuration.  sim::computeCost stays the independent
 * double-precision reference the equivalence tests compare against.
 *
 * Tenure granularity matches the cost model's transactionsPerRef
 * accounting: one tenure per counted transaction (a dirty-miss
 * service is one tenure covering request + invalidate + write-back; a
 * WTI write miss is two, the fill and the write-through), each
 * carrying the per-transaction overhead q.  Charges with no counted
 * transaction of their own (displacement invalidates, replacement
 * write-backs, directory-cache evictions) fold into the reference's
 * last tenure, or ride alone without q when it has none.
 */

#ifndef DIRSIM_TIMING_TRANSACTIONS_HH
#define DIRSIM_TIMING_TRANSACTIONS_HH

#include <array>
#include <cstdint>

#include "bus/bus_model.hh"
#include "coherence/outcome.hh"
#include "coherence/results.hh"
#include "sim/cost_model.hh"

namespace dirsim::timing
{

/** One bus tenure a reference needs. */
struct TxnCharge
{
    /** Bus occupancy in cycles, including any per-transaction
     *  overhead q (CostOptions::overheadQ). */
    std::uint32_t busCycles = 0;
    /** Carries a main-memory block read (pipelined buses add the
     *  off-bus memory wait to the requester's latency). */
    bool usesMemory = false;
};

/** Everything one reference asks of the bus (possibly nothing). */
struct RefCharge
{
    std::array<TxnCharge, 3> txns;
    unsigned count = 0;

    void
    add(std::uint64_t cycles, bool usesMemory)
    {
        txns[count++] =
            TxnCharge{static_cast<std::uint32_t>(cycles), usesMemory};
    }

    bool empty() const { return count == 0; }
};

/**
 * The charge table of one (scheme, bus, CostOptions) triple (see the
 * file header).  Stateless apart from a scratch charge, so one model
 * serves any number of references in any order.
 *
 * The constructor validates that CostOptions::broadcastCost and
 * ::overheadQ are non-negative integers — the timed model deals in
 * whole cycles — and throws std::invalid_argument otherwise.
 */
class TransactionModel
{
  public:
    TransactionModel(sim::Scheme scheme, const bus::BusCosts &bus,
                     const sim::CostOptions &opts = sim::CostOptions{});

    /**
     * The tenures of a reference with outcome @p o (instruction
     * fetches, hits and first-reference misses need none for most
     * schemes).  The reference stays valid until the next call.
     */
    const RefCharge &
    charge(const coherence::Outcome &o)
    {
        if (o.eventOnly())
            return _base[static_cast<std::size_t>(o.event())];
        return price(o);
    }

    /** Total bus cycles of a run: the table summed over @p results. */
    std::uint64_t
    totalCycles(const coherence::EngineResults &results) const;

  private:
    /** How a fanout sample grows an event's first tenure. */
    enum class Fanout : std::uint8_t
    {
        None,
        Directed, //!< One invalidate per other copy.
        Pointer,  //!< Directed within the pointers, broadcast beyond.
    };

    const RefCharge &price(const coherence::Outcome &o);
    std::uint64_t fanoutCycles(Fanout rule, std::uint64_t fanout) const;
    std::uint64_t
    histogramCycles(const stats::Histogram &hist, Fanout rule) const;

    bus::BusCosts _bus;
    unsigned _nPointers;
    std::uint32_t _broadcastCycles;
    std::uint32_t _overheadQ;
    /** Each event's tenures before fanout and auxiliary charges,
     *  zero-cycle ones kept (a fanout can make them nonzero). */
    std::array<RefCharge, coherence::numEvents> _rows;
    /** The same with zero-cycle tenures dropped: the whole charge of
     *  an outcome that carries only its event. */
    std::array<RefCharge, coherence::numEvents> _base;
    /** Fanout growth of samples in whClnFanout / wmClnFanout. */
    Fanout _whFanout = Fanout::None;
    Fanout _wmFanout = Fanout::None;
    /** Folded cycles per pointer displacement (DiriNB). */
    std::uint32_t _displacementCycles = 0;
    /** Yen-Fu: each 1→2 holder growth is a counted one-word tenure. */
    bool _growthTenure = false;
    RefCharge _scratch;
};

/**
 * Total bus cycles of a whole run, in exact integer arithmetic:
 * TransactionModel's table summed over @p results (the same
 * accounting as sim::computeCost, including replacement write-backs
 * and overhead q, without the divide-by-refs that makes the double
 * version inexact).  The timed simulator's busBusyCycles equals this
 * for any run of the matching engine; dividing by totalRefs()
 * recovers computeCost().total() to floating-point precision.
 * Throws std::invalid_argument on non-integer broadcastCost/overheadQ.
 */
std::uint64_t
staticBusCycles(sim::Scheme scheme,
                const coherence::EngineResults &results,
                const bus::BusCosts &bus,
                const sim::CostOptions &opts = sim::CostOptions{});

} // namespace dirsim::timing

#endif // DIRSIM_TIMING_TRANSACTIONS_HH
