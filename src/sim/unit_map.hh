/**
 * @file
 * Sharing-unit identification, shared by every trace consumer.
 *
 * A trace record carries both a process id and a CPU id; which one
 * names a "cache" is the Section 4.4 sharing-domain choice.  The
 * UnitMapper turns the chosen identifier into a dense unit index in
 * first-seen order.  sim::Simulator and timing::TimedBusSim used to
 * each keep their own ad-hoc map; centralising it here guarantees
 * the two subsystems agree on the unit numbering (the timed runs are
 * compared against the untimed engine results, so a numbering skew
 * would silently decouple them).
 */

#ifndef DIRSIM_SIM_UNIT_MAP_HH
#define DIRSIM_SIM_UNIT_MAP_HH

#include <cstdint>
#include <vector>

#include "trace/record.hh"

namespace dirsim::sim
{

/** Which identifier defines a "cache" for sharing purposes. */
enum class SharingDomain
{
    Process,  //!< One cache per process (the paper's default).
    Processor,//!< One cache per CPU.
};

/** The record field the domain selects. */
inline unsigned
unitKey(const trace::TraceRecord &rec, SharingDomain domain)
{
    return domain == SharingDomain::Process ? rec.pid : rec.cpu;
}

/**
 * First-seen dense numbering of small integer keys: the index held
 * for @p key in @p table (-1 marks an unseen key), assigning @p seen
 * (then incrementing it) on first sight.  The one numbering
 * discipline behind UnitMapper and every prepared producer's unit
 * and CPU columns, so they agree by construction.
 */
inline unsigned
mapDense(std::vector<std::int32_t> &table, unsigned key, unsigned &seen)
{
    if (key >= table.size())
        table.resize(key + 1, -1);
    std::int32_t &slot = table[key];
    if (slot < 0)
        slot = static_cast<std::int32_t>(seen++);
    return static_cast<unsigned>(slot);
}

/**
 * First-seen-order dense numbering of sharing units.
 *
 * Keys are TraceRecord pids (16 bits) or CPU ids (8 bits), so the
 * whole key space fits a direct-index table: map() is one bounds
 * check and one load — no hashing at all, which matters because it
 * runs once per trace record.  The table grows lazily to the largest
 * key seen (≤ 256 KiB even for a trace using every possible pid).
 */
class UnitMapper
{
  public:
    explicit UnitMapper(SharingDomain domain) : _domain(domain) {}

    /** Dense unit index of @p rec's process/CPU, assigning the next
     *  free index on first sight. */
    unsigned
    map(const trace::TraceRecord &rec)
    {
        return mapDense(_units, unitKey(rec, _domain), _seen);
    }

    /** Distinct units seen so far. */
    unsigned size() const { return _seen; }

    void
    clear()
    {
        _units.clear();
        _seen = 0;
    }

  private:
    SharingDomain _domain;
    /** key -> dense unit index, -1 when unseen. */
    std::vector<std::int32_t> _units;
    unsigned _seen = 0;
};

} // namespace dirsim::sim

#endif // DIRSIM_SIM_UNIT_MAP_HH
