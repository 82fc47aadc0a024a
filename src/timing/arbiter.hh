/**
 * @file
 * Bus arbitration: pluggable service disciplines.
 *
 * When more than one CPU has a transaction queued, the arbiter decides
 * who gets the bus next — the service-discipline question Nikolov &
 * Lerato show changes shared-bus multiprocessor performance.  Three
 * disciplines are built in:
 *
 *  - FCFS: grant the oldest request (arrival cycle, then issue order).
 *    Globally fair in delay; ignores which CPU is asking.
 *  - RoundRobin: rotating priority — the search for a waiter starts
 *    one past the last CPU served, so a bus hog cannot starve its
 *    neighbours and per-CPU service is equalised.
 *  - FixedPriority: lowest port index wins.  Deliberately unfair;
 *    under load the high-index CPUs see unbounded queueing delay,
 *    which reproduce_paper's ext_contention_arbitration exhibit
 *    makes visible.
 *
 * Contract: pick() is called only with a non-empty waiter list, must
 * return an index into that list, and must be deterministic — the
 * same waiter list and internal state always select the same request
 * (timed sweeps are bit-identical across --jobs because of this).
 * granted() tells stateful disciplines who won.  reset() returns the
 * arbiter to its initial state.
 */

#ifndef DIRSIM_TIMING_ARBITER_HH
#define DIRSIM_TIMING_ARBITER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dirsim::timing
{

/** One queued bus transaction awaiting grant. */
struct BusRequest
{
    unsigned cpu = 0;          //!< Requesting port index.
    std::uint64_t arrival = 0; //!< Cycle the request was issued.
    std::uint64_t seq = 0;     //!< Global issue order (tie-breaker).
    std::uint32_t busCycles = 0; //!< Occupancy once granted.
    bool usesMemory = false;   //!< Carries a main-memory access.
};

/** Built-in service disciplines. */
enum class Discipline
{
    FCFS,
    RoundRobin,
    FixedPriority,
};

/** Short lower-case name ("fcfs", "round-robin", "fixed-priority"). */
const std::string &disciplineName(Discipline d);

/** Parse a discipline name; throws std::invalid_argument on garbage. */
Discipline parseDiscipline(const std::string &name);

/** Abstract bus arbiter (see file header for the contract). */
class BusArbiter
{
  public:
    virtual ~BusArbiter() = default;

    /** Choose the next request; returns an index into @p waiting. */
    virtual std::size_t
    pick(const std::vector<BusRequest> &waiting) = 0;

    /** Inform the arbiter that @p cpu was granted the bus. */
    virtual void granted(unsigned cpu) { (void)cpu; }

    /** Return to the initial state. */
    virtual void reset() {}

    /** The discipline this arbiter implements. */
    virtual Discipline discipline() const = 0;

    /** Build an arbiter for @p d over @p nCpus ports. */
    static std::unique_ptr<BusArbiter> make(Discipline d,
                                            unsigned nCpus);
};

} // namespace dirsim::timing

#endif // DIRSIM_TIMING_ARBITER_HH
