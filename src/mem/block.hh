/**
 * @file
 * Block-address arithmetic helpers.
 *
 * The paper fixes the coherence unit at 4 words (16 bytes); the
 * simulator keeps the block size configurable but power-of-two.
 */

#ifndef DIRSIM_MEM_BLOCK_HH
#define DIRSIM_MEM_BLOCK_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <span>

namespace dirsim::mem
{

/** A block-aligned address identifier (byte address / block size). */
using BlockId = std::uint64_t;

/**
 * The raw block index of every dense block id, indexed by id.
 *
 * Prepared traces number blocks densely in first-touch order
 * (trace/block_numbering.hh), so engines index their per-block state
 * by the id itself.  The raw index is part of the model in three
 * places only — finite-cache and directory-cache set indices, and
 * modulo home placement — and those read it from this table.  An
 * empty table means unbound: every id is its own raw index.
 */
using BlockNames = std::span<const std::uint32_t>;

/** Raw block index of dense id @p block (the id itself when unbound). */
constexpr BlockId
rawBlock(BlockNames names, BlockId block)
{
    return names.empty() ? block : names[block];
}

/** True when @p v is a power of two (and nonzero). */
constexpr bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** log2 of a power of two. */
constexpr unsigned
log2Exact(std::uint64_t v)
{
    assert(isPow2(v));
    return static_cast<unsigned>(std::countr_zero(v));
}

static_assert(log2Exact(1) == 0);
static_assert(log2Exact(2) == 1);
static_assert(log2Exact(16) == 4);
static_assert(log2Exact(1ULL << 63) == 63);

/** Map a byte address to its block identifier. */
constexpr BlockId
blockId(std::uint64_t addr, unsigned blockBytes)
{
    return addr / blockBytes;
}

/**
 * Per-record address→block mapping with the divisor analysed once.
 *
 * blockId()'s 64-bit division by a runtime divisor costs tens of
 * cycles; every realistic block size is a power of two, for which a
 * shift suffices.  Construct once per stream, apply per record.
 */
class BlockMapper
{
  public:
    explicit constexpr BlockMapper(unsigned blockBytes)
        : _bytes(blockBytes),
          _shift(isPow2(blockBytes) ? log2Exact(blockBytes) : 0),
          _pow2(isPow2(blockBytes))
    {
    }

    constexpr BlockId
    operator()(std::uint64_t addr) const
    {
        return _pow2 ? addr >> _shift : addr / _bytes;
    }

  private:
    unsigned _bytes;
    unsigned _shift;
    bool _pow2;
};

/** First byte address of a block. */
constexpr std::uint64_t
blockBase(BlockId block, unsigned blockBytes)
{
    return block * blockBytes;
}

} // namespace dirsim::mem

#endif // DIRSIM_MEM_BLOCK_HH
