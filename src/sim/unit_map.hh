/**
 * @file
 * Sharing-unit identification, shared by every trace consumer.
 *
 * A trace record carries both a process id and a CPU id; which one
 * names a "cache" is the Section 4.4 sharing-domain choice.  The one
 * lowering every consumer pulls records through
 * (trace::StreamLowering: prepared builds, spills, sim::Simulator and
 * timing::TimedBusSim) numbers the chosen identifier densely in
 * first-seen order, so the timed runs and the untimed engine results,
 * which are compared against each other, agree on the unit numbering
 * by construction.
 */

#ifndef DIRSIM_SIM_UNIT_MAP_HH
#define DIRSIM_SIM_UNIT_MAP_HH

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

} // namespace dirsim::sim

#endif // DIRSIM_SIM_UNIT_MAP_HH
