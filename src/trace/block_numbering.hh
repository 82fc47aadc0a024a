/**
 * @file
 * First-touch dense block numbering: where raw block indices become
 * the ids every prepared block column carries.
 *
 * Each data reference reads and updates one block's coherence state,
 * so that lookup is the simulator's inner loop.  Numbering blocks
 * once, when a trace is prepared, turns it into an array index: the
 * i-th distinct block the kept data references touch, in stream
 * order, gets id i, and names()[i] keeps its raw block index for the
 * few places the model needs the address itself (mem::BlockNames).
 *
 * Every producer — PreparedTraceBuilder's planning scan, the direct
 * generate→prepare pipeline's pack worker, spillFromSource, and the
 * raw Simulator/TimedBusSim entry points — numbers through this one
 * class over the same filtered stream order, so their columns and
 * names are identical by construction.
 */

#ifndef DIRSIM_TRACE_BLOCK_NUMBERING_HH
#define DIRSIM_TRACE_BLOCK_NUMBERING_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "mem/block.hh"
#include "trace/record.hh"
#include "util/flat_map.hh"

namespace dirsim::trace
{

/** Raw block index -> dense first-touch id, plus the inverse table. */
class BlockNumbering
{
  public:
    /** Dense id of raw block @p raw; its first touch takes the next
     *  id. */
    std::uint32_t
    number(std::uint32_t raw)
    {
        const auto slot = _ids.tryEmplace(raw);
        if (slot.inserted) {
            slot.value = static_cast<std::uint32_t>(_names.size());
            _names.push_back(raw);
        }
        return slot.value;
    }

    /** Replace each of @p n raw indices at @p block by its dense id,
     *  in order. */
    void
    numberAll(std::uint32_t *block, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            block[i] = number(block[i]);
    }

    /** Distinct blocks numbered so far. */
    std::uint64_t size() const { return _names.size(); }

    /** Raw block index of every id numbered so far; invalidated by
     *  the next number() call. */
    mem::BlockNames names() const { return _names; }

    /** Take the names table, leaving the numbering empty. */
    std::vector<std::uint32_t>
    takeNames()
    {
        std::vector<std::uint32_t> names = std::move(_names);
        clear();
        return names;
    }

    void
    clear()
    {
        _ids.clear();
        _names.clear();
    }

  private:
    util::FlatMap<std::uint32_t, std::uint32_t> _ids;
    std::vector<std::uint32_t> _names;
};

/**
 * Index of the first of @p n block ids at @p block that is not below
 * @p numBlocks, or n when all are in range.  Entries whose packed
 * type byte (@p typeFlags, parallel; null for data-only columns)
 * marks an instruction fetch are skipped: they carry no block.  The
 * input boundaries run this over every column they accept, because
 * engines index their per-block state by the id.
 */
inline std::size_t
firstBlockOutOfRange(const std::uint32_t *block,
                     const std::uint8_t *typeFlags, std::size_t n,
                     std::uint64_t numBlocks)
{
    for (std::size_t i = 0; i < n; ++i)
        if (block[i] >= numBlocks &&
            (typeFlags == nullptr ||
             packedRefType(typeFlags[i]) != RefType::Instr))
            return i;
    return n;
}

} // namespace dirsim::trace

#endif // DIRSIM_TRACE_BLOCK_NUMBERING_HH
