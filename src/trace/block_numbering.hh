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
 * The one lowering behind every prepared build and spill and behind
 * Simulator's streaming RefSource entry point (trace/lowering.hh)
 * numbers through this class, so their columns and names are
 * identical by construction.
 *
 * The numbering probes once per kept data reference, and at 64 CPUs
 * a trace touches ~240K blocks, so the table outgrows L2.  It is
 * therefore one array of 64-bit slots, each holding
 * raw << 32 | (id + 1), with 0 for an empty slot: a key and its id
 * share a word, and a probe costs one multiply and, almost always,
 * one cache line.  Capacity is a power of two, probing is linear,
 * and the table doubles at 3/4 load.  The home slot is the top bits
 * of a multiplicative (Fibonacci) hash of the raw index, which
 * spreads the sequential and power-of-two-strided indices the
 * address spaces produce.
 */

#ifndef DIRSIM_TRACE_BLOCK_NUMBERING_HH
#define DIRSIM_TRACE_BLOCK_NUMBERING_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mem/block.hh"
#include "trace/record.hh"

namespace dirsim::trace
{

/** Raw block index -> dense first-touch id, plus the inverse table. */
class BlockNumbering
{
  public:
    /** Most distinct blocks one numbering holds: a slot stores
     *  id + 1 in 32 bits, so id 2^32 - 1 cannot be encoded. */
    static constexpr std::uint64_t kMaxBlocks = 0xffffffffULL;

    BlockNumbering() : _slots(kInitialSlots) {}

    /**
     * Dense id of raw block @p raw; its first touch takes the next
     * id.
     * @throws std::invalid_argument when a first touch would need
     *         more than kMaxBlocks ids.
     */
    std::uint32_t
    number(std::uint32_t raw)
    {
        const std::uint64_t key = std::uint64_t{raw} << 32;
        for (std::size_t i = home(raw);; i = (i + 1) & _mask) {
            const std::uint64_t slot = _slots[i];
            if (slot == 0)
                return insert(i, raw);
            if ((slot & kKeyMask) == key)
                return static_cast<std::uint32_t>(slot) - 1;
        }
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

    /** Forget every block; the slot table keeps its capacity. */
    void
    clear()
    {
        std::fill(_slots.begin(), _slots.end(), 0);
        _names.clear();
    }

  private:
    static constexpr std::size_t kInitialSlots = 4096;
    static constexpr std::uint64_t kKeyMask = 0xffffffff00000000ULL;
    /** 2^64 / golden ratio. */
    static constexpr std::uint64_t kFibonacci = 0x9e3779b97f4a7c15ULL;

    std::size_t
    home(std::uint32_t raw) const
    {
        return static_cast<std::size_t>((raw * kFibonacci) >> _shift);
    }

    /** Give @p raw, absent from the table, the next id at its empty
     *  probe slot @p at. */
    std::uint32_t
    insert(std::size_t at, std::uint32_t raw)
    {
        const std::uint64_t id = _names.size();
        if (id == kMaxBlocks)
            throw std::invalid_argument(
                "PreparedTrace: more than " + std::to_string(kMaxBlocks) +
                " distinct blocks; a dense block id must fit 32 bits");
        if (4 * (id + 1) > 3 * _slots.size()) {
            grow();
            at = emptySlot(raw);
        }
        _slots[at] = std::uint64_t{raw} << 32 | (id + 1);
        _names.push_back(raw);
        return static_cast<std::uint32_t>(id);
    }

    /** First empty slot on @p raw's probe path. */
    std::size_t
    emptySlot(std::uint32_t raw) const
    {
        std::size_t at = home(raw);
        while (_slots[at] != 0)
            at = (at + 1) & _mask;
        return at;
    }

    /** Double the table and re-place every slot. */
    void
    grow()
    {
        const std::vector<std::uint64_t> old = std::exchange(
            _slots, std::vector<std::uint64_t>(2 * _slots.size()));
        _mask = _slots.size() - 1;
        --_shift;
        for (const std::uint64_t slot : old) {
            const auto raw = static_cast<std::uint32_t>(slot >> 32);
            if (slot != 0)
                _slots[emptySlot(raw)] = slot;
        }
    }

    std::vector<std::uint64_t> _slots;
    // 64-bit, like the slots: a 32-bit column store in the caller's
    // loop must not be able to alias them.
    std::uint64_t _mask = kInitialSlots - 1;
    std::uint64_t _shift = 64 - std::countr_zero(kInitialSlots);
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
