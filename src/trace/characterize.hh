/**
 * @file
 * Trace characterisation (reproduces Table 3 of the paper).
 *
 * Table 3 summarises each trace as total references, instruction
 * fetches, data reads, data writes, and the user/system split.  The
 * characteriser additionally reports sharing structure used elsewhere
 * in the evaluation: unique blocks, blocks touched by more than one
 * process, and the fraction of reads that are lock spins.
 */

#ifndef DIRSIM_TRACE_CHARACTERIZE_HH
#define DIRSIM_TRACE_CHARACTERIZE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/ref_source.hh"

namespace dirsim::trace
{

/** Summary counts for one trace. */
struct TraceCharacteristics
{
    std::string name;
    std::uint64_t refs = 0;      //!< All references.
    std::uint64_t instr = 0;     //!< Instruction fetches.
    std::uint64_t dataReads = 0; //!< Data reads.
    std::uint64_t dataWrites = 0;//!< Data writes.
    std::uint64_t user = 0;      //!< User-mode references.
    std::uint64_t system = 0;    //!< Operating-system references.
    std::uint64_t lockTestReads = 0; //!< Spin-lock test reads.

    std::uint64_t uniqueDataBlocks = 0; //!< Distinct data blocks.
    /** Data blocks referenced by more than one process. */
    std::uint64_t sharedDataBlocks = 0;
    /** Data references that touch a block shared between processes. */
    std::uint64_t refsToSharedBlocks = 0;
    /** Data writes that touch a shared block. */
    std::uint64_t writesToSharedBlocks = 0;

    /** Reads per write (Table 3 traces are read-heavy). */
    double readWriteRatio() const;
    /** Fraction of data reads that are spin-lock tests. */
    double lockTestReadFrac() const;
};

/**
 * Scan @p source to exhaustion and summarise it.
 *
 * @param source Stream to characterise (left at end of stream).
 * @param name Label copied into the result.
 * @param blockBytes Coherence block size used for block statistics.
 * @throws std::invalid_argument on a data address whose block index
 *         exceeds 32 bits, the limit every prepared trace and
 *         sim::Simulator enforce too.
 */
TraceCharacteristics characterize(RefSource &source,
                                  const std::string &name,
                                  unsigned blockBytes = 16);

} // namespace dirsim::trace

#endif // DIRSIM_TRACE_CHARACTERIZE_HH
