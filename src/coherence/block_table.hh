/**
 * @file
 * Per-block engine state in one flat array indexed by dense block id.
 *
 * Every data reference reads and updates one block's coherence state,
 * so that lookup is the simulator's inner loop.  Prepared traces
 * number blocks densely in first-touch order when they are built
 * (trace/block_numbering.hh), so the id is the index: no hashing, no
 * probing, and a table sized exactly from the trace's numBlocks().
 *
 * A row holds `width` consecutive States per block: one for the
 * single-configuration engines, one per lane for MultiLimitedEngine.
 * Ids past the end grow the table, so an engine driven by hand with
 * small ids (unit tests, the model checker) works without being
 * sized.  The growth check lives in cover(), which access() pays per
 * reference and the prepared loop once per strip
 * (coherence/prepared_loop.hh); row lookups themselves never check.
 */

#ifndef DIRSIM_COHERENCE_BLOCK_TABLE_HH
#define DIRSIM_COHERENCE_BLOCK_TABLE_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mem/block.hh"

namespace dirsim::coherence
{

/** Dense-id-indexed rows of @p width States (default-constructed
 *  State{} is a block never referenced). */
template <typename State, typename Alloc = std::allocator<State>>
class BlockTable
{
  public:
    explicit BlockTable(std::size_t width = 1) : _width(width) {}

    /** Make ids [0, @p blocks) addressable: sized exactly, never
     *  shrinks. */
    void
    reserve(std::uint64_t blocks)
    {
        if (blocks > _blocks)
            resize(blocks);
    }

    /** Make @p block addressable, growing the table when it lies past
     *  the end. */
    void
    cover(mem::BlockId block)
    {
        if (block >= _blocks) [[unlikely]]
            resize(block + 1);
    }

    /** State of covered @p block (width 1). */
    State &
    operator[](mem::BlockId block)
    {
        assert(_width == 1 && block < _blocks);
        return _states[block];
    }

    /** First of covered @p block's width States. */
    State *
    row(mem::BlockId block)
    {
        assert(block < _blocks);
        return _states.data() + block * _width;
    }

    /** First State of @p block's row, or null past the end. */
    const State *
    find(mem::BlockId block) const
    {
        return block < _blocks ? _states.data() + block * _width
                               : nullptr;
    }

    /** Blocks whose first State satisfies @p pred. */
    template <typename Pred>
    std::uint64_t
    count(Pred &&pred) const
    {
        std::uint64_t n = 0;
        for (std::uint64_t b = 0; b < _blocks; ++b)
            n += pred(_states[b * _width]) ? 1 : 0;
        return n;
    }

    /** Reset every State to State{}, keeping the memory. */
    void clear() { std::fill(_states.begin(), _states.end(), State{}); }

  private:
    void
    resize(std::uint64_t blocks)
    {
        _states.resize(static_cast<std::size_t>(blocks * _width));
        _blocks = blocks;
    }

    std::size_t _width;
    std::uint64_t _blocks = 0;
    std::vector<State, Alloc> _states;
};

} // namespace dirsim::coherence

#endif // DIRSIM_COHERENCE_BLOCK_TABLE_HH
