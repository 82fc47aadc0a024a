/**
 * @file
 * Holder-mask bit counts that stay inline.
 *
 * The project builds for baseline x86-64, which has no popcnt
 * instruction.  There GCC lowers __builtin_popcountll, std::popcount,
 * std::has_single_bit (written as popcount == 1) and
 * std::bitset::count to `call __popcountdi2`, a libgcc routine, and
 * every engine paid that call on its miss path.  These two functions
 * compile to straight-line ALU code instead; a ctest
 * (tests/check_no_popcount.cmake) keeps the libgcc symbol out of the
 * libraries.
 */

#ifndef DIRSIM_UTIL_BITS_HH
#define DIRSIM_UTIL_BITS_HH

#include <cstdint>

namespace dirsim::util
{

/** Number of set bits in @p x: branch-free SWAR, no libgcc call. */
constexpr unsigned
popcount(std::uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return static_cast<unsigned>((x * 0x0101010101010101ULL) >> 56);
}

/** True when exactly one bit of @p x is set (popcount(x) == 1). */
constexpr bool
hasSingleBit(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

static_assert(popcount(0) == 0);
static_assert(popcount(~0ULL) == 64);
static_assert(popcount(0x8000000000000001ULL) == 2);
static_assert(hasSingleBit(1ULL << 63) && !hasSingleBit(0) &&
              !hasSingleBit(3));

} // namespace dirsim::util

#endif // DIRSIM_UTIL_BITS_HH
