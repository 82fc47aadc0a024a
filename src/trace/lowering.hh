/**
 * @file
 * The one lowering from trace records to prepared columns.
 *
 * Every prepared stream comes out of this class: PreparedTrace::build
 * (in memory), spillFromSource (into a store file), and through them
 * gen::generatePrepared, gen::spillPrepared and sim::TraceRepository's
 * builds.  Two one-shot replays drive it directly and keep only what
 * they read: timing::TimedBusSim::run(RefSource&) the per-CPU streams
 * (appendToCpuStreams), sim::Simulator::run(RefSource&) each batch's
 * columns, handed straight to its engines.  It pulls a RefSource in
 * batches on the calling thread and lowers each batch in two passes,
 * each in stream order.  The first walks the records:
 *
 *  - drops spin-lock test reads when PrepareOptions::dropLockTests
 *    (before anything is numbered);
 *  - numbers sharing units and CPUs densely in first-seen order;
 *  - strips instruction fetches into a count and packs each data
 *    reference's type and flags into one byte;
 *  - writes each data reference's raw block index into the block
 *    column (and, for timed streams, the kept arrays).
 *
 * The second numbers the batch's raw block indices in first-touch
 * order (BlockNumbering), in place, and patches the kept block ids.
 * Splitting them keeps the numbering's table, which outgrows L2 on
 * large machines, the only large table the second loop touches.
 *
 * A batch that takes the stream past the prepared widths (more than
 * 256 sharing units, a block index past 32 bits, 2^32 - 1 blocks)
 * throws before any of it is handed out, so no caller ever sees a
 * truncated column.  The output is a pure function of the record
 * sequence: batch boundaries, and so the source's batching, are
 * invisible.
 */

#ifndef DIRSIM_TRACE_LOWERING_HH
#define DIRSIM_TRACE_LOWERING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/block.hh"
#include "trace/block_numbering.hh"
#include "trace/prepared.hh"
#include "trace/ref_source.hh"
#include "trace/span.hh"

namespace dirsim::trace
{

class StreamLowering
{
  public:
    /** Records pulled per batch: amortises the virtual nextBatch()
     *  call and keeps the batch arrays in L1/L2. */
    static constexpr std::size_t kBatchRecords = 4096;

    /** @param name Stream name for error messages. */
    StreamLowering(std::string name, const PrepareOptions &opts);

    /**
     * Pull and lower the next batch of @p source.
     * @retval false End of stream; the last batch stays empty.
     * @throws std::invalid_argument when the stream no longer fits
     *         the prepared widths.
     */
    bool next(RefSource &source);

    /** The batch's data references in column form. */
    PreparedSpan
    data() const
    {
        return {_block.data(), _unit.data(), _typeFlags.data(), _nData};
    }

    /**
     * @name Every kept reference of the batch, in stream order, with
     * its dense CPU (PrepareOptions::timedStreams only).  Instruction
     * entries carry block 0: no engine reads an instruction's block.
     */
    /** @{ */
    std::size_t keptRefs() const { return _nKept; }
    const std::uint8_t *keptCpu() const { return _keptCpu.data(); }
    const std::uint32_t *keptBlock() const { return _keptBlock.data(); }
    const std::uint8_t *keptUnit() const { return _keptUnit.data(); }
    const std::uint8_t *keptTypeFlags() const
    {
        return _keptTypeFlags.data();
    }
    /** @} */

    /** Append the batch's kept references to their CPUs' streams
     *  (PrepareOptions::timedStreams only); @p streams grows to
     *  numCpus(). */
    void appendToCpuStreams(std::vector<PreparedCpuStream> &streams) const;

    /** @name Stream totals so far. */
    /** @{ */
    std::uint64_t instrRefs() const { return _instrRefs; }
    unsigned numUnits() const { return _nUnits; }
    unsigned numCpus() const { return _nCpus; }
    /** The raw block index of every dense id numbered so far; moves
     *  when the next batch numbers a new block. */
    mem::BlockNames names() const { return _blocks.names(); }
    /** Take the raw block index of every dense id numbered so far. */
    std::vector<std::uint32_t> takeNames() { return _blocks.takeNames(); }
    /** @} */

  private:
    template <bool Timed>
    void lower(std::size_t n);
    void checkWidths() const;

    std::string _name;
    PrepareOptions _opts;
    mem::BlockMapper _toBlock;
    BlockNumbering _blocks;
    /** sim::unitKey(rec, domain) and rec.cpu -> dense index, -1
     *  unseen.  Each spans its key's whole range (a 16-bit pid, an
     *  8-bit cpu), so a lookup is one load with no bounds check. */
    std::vector<std::int32_t> _unitOf;
    std::vector<std::int32_t> _cpuOf;
    unsigned _nUnits = 0;
    unsigned _nCpus = 0;
    std::uint64_t _instrRefs = 0;
    std::uint64_t _maxAddr = 0;

    std::vector<TraceRecord> _records;
    std::size_t _nData = 0;
    /** Raw block indices after the first pass, dense ids after the
     *  second. */
    std::vector<std::uint32_t> _block;
    std::vector<std::uint8_t> _unit;
    std::vector<std::uint8_t> _typeFlags;
    std::size_t _nKept = 0;
    std::vector<std::uint8_t> _keptCpu;
    std::vector<std::uint32_t> _keptBlock;
    std::vector<std::uint8_t> _keptUnit;
    std::vector<std::uint8_t> _keptTypeFlags;
    /** Kept index of each data reference (timed streams only): where
     *  the second pass patches its block id. */
    std::vector<std::uint32_t> _keptOfData;
};

} // namespace dirsim::trace

#endif // DIRSIM_TRACE_LOWERING_HH
