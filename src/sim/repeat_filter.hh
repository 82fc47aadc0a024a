/**
 * @file
 * The repeat-read filter every static replay dispatches through.
 *
 * A *repeat read* is a data read of a block whose previous data
 * reference, in stream order, came from the same unit.  The paper
 * prices coherence with infinite caches (Section 4), so that unit
 * still holds the block: only another unit's reference to the block
 * can take its copy away, and there has been none since.  The read
 * hits and changes nothing.  Repeat reads are 67–71 % of the data
 * references of the paper's workloads and 53–60 % on the scaled 8–64
 * CPU machines, yet a plain replay walks each one through each
 * engine's per-reference loop.
 *
 * RepeatReadFilter keeps, for the whole replay, the last unit to
 * reference each dense block id (two bytes per block), compacts each
 * span into the references that are not repeat reads and counts the
 * rest.  Every engine whose repeatReadsHit() holds gets the compacted
 * references through accessPrepared() and the count through
 * recordRepeatReads(), as it gets instruction fetches through
 * recordInstrs(); every other engine (finite caches, a finite
 * directory cache, write-around WTI) gets each span whole.  The
 * result is bit-identical either way.
 *
 * The compaction runs over fixed-size strips of a span, so its
 * buffers stay a few hundred KB whatever the span's length (an
 * in-memory trace is one span of millions of references), and it
 * writes every reference and advances its output cursor by the
 * negated repeat test, so nothing in it branches on the outcome.
 *
 * Only static replay filters.  The timed bus replays each CPU's
 * stream under contention, which reorders references across CPUs, so
 * trace order says nothing there about who holds a block.
 */

#ifndef DIRSIM_SIM_REPEAT_FILTER_HH
#define DIRSIM_SIM_REPEAT_FILTER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "coherence/engine.hh"
#include "trace/span.hh"

namespace dirsim::sim
{

/** Hands the spans of one replay to a set of engines. */
class RepeatReadFilter
{
  public:
    /**
     * References compacted per strip.  64K keeps the compacted
     * columns (6 bytes per reference) at 384 KiB, inside L2, while
     * each filtered engine reads them.
     */
    static constexpr std::size_t kStripRefs = 64 * 1024;

    /** @param engines The replay's engines; must outlive the filter. */
    explicit RepeatReadFilter(
        const std::vector<coherence::CoherenceEngine *> &engines);

    /** Make dense ids [0, @p blocks) addressable up front; an id
     *  past the end still grows the table. */
    void reserveBlocks(std::uint64_t blocks);

    /**
     * Hand @p span, the stream's next references, to every engine:
     * whole to each engine that keeps every reference, compacted
     * strip by strip to each one that counts repeat reads in bulk.
     */
    void dispatch(const trace::PreparedSpan &span);

  private:
    /** Compact @p n references from @p in into the strip buffers,
     *  remembering each block's last unit; returns the kept count. */
    std::size_t compact(const trace::PreparedSpan &in, std::size_t n);

    /** Unit value that never matches: the block is untouched. */
    static constexpr std::uint16_t kNobody = 0xffff;

    std::vector<coherence::CoherenceEngine *> _engines;
    /** Indices into _engines: engines that get every reference, and
     *  engines that count repeat reads in bulk. */
    std::vector<std::size_t> _every;
    std::vector<std::size_t> _filtered;
    /** Last unit to reference each dense block id. */
    std::vector<std::uint16_t> _last;
    /** One strip's kept references. */
    std::vector<std::uint32_t> _block;
    std::vector<std::uint8_t> _unit;
    std::vector<std::uint8_t> _typeFlags;
};

} // namespace dirsim::sim

#endif // DIRSIM_SIM_REPEAT_FILTER_HH
