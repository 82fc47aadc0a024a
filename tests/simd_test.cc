/**
 * @file
 * Differential tests for the SIMD type-decode kernel (util/simd.hh).
 *
 * Every optimised backend (AVX2, NEON, SWAR) must agree byte-for-byte
 * with the deliberately-dumb scalar reference kernel over
 * adversarial inputs: all 256 byte values, all-lock and alternating
 * patterns, random fills, every tail length around the vector widths,
 * and unaligned source/destination windows.  The same binary compiled
 * with -DDIRSIM_SIMD_SCALAR runs the identical suite against the SWAR
 * fallback, which CI exercises under the sanitizers.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "trace/record.hh"
#include "util/simd.hh"

namespace
{

using namespace dirsim;

void
expectDecodeMatchesScalar(const std::vector<std::uint8_t> &packed)
{
    std::vector<std::uint8_t> expect(packed.size() + 1, 0xa5);
    std::vector<std::uint8_t> actual(packed.size() + 1, 0xa5);
    util::decodeTypesScalar(packed.data(), expect.data(),
                            packed.size());
    util::decodeTypes(packed.data(), actual.data(), packed.size());
    ASSERT_EQ(actual, expect);
    // Neither kernel may write past n.
    EXPECT_EQ(actual.back(), 0xa5);
}

TEST(SimdKernels, AllByteValues)
{
    std::vector<std::uint8_t> packed(256);
    for (std::size_t i = 0; i < packed.size(); ++i)
        packed[i] = static_cast<std::uint8_t>(i);
    expectDecodeMatchesScalar(packed);
}

TEST(SimdKernels, AllLockPattern)
{
    const std::vector<std::uint8_t> packed(
        300, trace::packTypeFlags(trace::RefType::Read,
                                  trace::FlagLockTest));
    expectDecodeMatchesScalar(packed);
}

TEST(SimdKernels, AlternatingReadWrite)
{
    std::vector<std::uint8_t> packed(257);
    for (std::size_t i = 0; i < packed.size(); ++i)
        packed[i] = trace::packTypeFlags(i % 2 ? trace::RefType::Read
                                               : trace::RefType::Write,
                                         i % 4 ? 0 : trace::FlagSystem);
    expectDecodeMatchesScalar(packed);
}

/** Every length from empty through past the widest vector stride. */
TEST(SimdKernels, TailLengths)
{
    std::mt19937 rng(0x51D);
    for (std::size_t n = 0; n <= 130; ++n) {
        std::vector<std::uint8_t> packed(n);
        for (auto &b : packed)
            b = static_cast<std::uint8_t>(rng());
        expectDecodeMatchesScalar(packed);
    }
}

TEST(SimdKernels, RandomLarge)
{
    std::mt19937 rng(0xD15C);
    std::vector<std::uint8_t> packed(3 * util::kClassifyStripRefs + 5);
    for (auto &b : packed)
        b = static_cast<std::uint8_t>(rng());
    expectDecodeMatchesScalar(packed);
}

/** Kernels accept arbitrarily misaligned windows. */
TEST(SimdKernels, UnalignedWindows)
{
    std::mt19937 rng(0xA11);
    std::vector<std::uint8_t> buf(512);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng());
    for (std::size_t off = 0; off < 9; ++off) {
        std::vector<std::uint8_t> window(buf.begin() + off,
                                         buf.begin() + off + 200);
        expectDecodeMatchesScalar(window);
    }
}

TEST(SimdKernels, AlignedVectorIsCacheLineAligned)
{
    util::AlignedVector<std::uint8_t> v(100);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) %
                  util::kCacheLineBytes,
              0u);
    util::AlignedVector<std::uint32_t> w(3);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) %
                  util::kCacheLineBytes,
              0u);
}

} // namespace
