/**
 * @file
 * Unit and property tests for the cache tag stores and the holder-mask
 * bit counts (util/bits.hh).
 */

#include <gtest/gtest.h>

#include <list>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "gen/rng.hh"
#include "mem/block.hh"
#include "mem/set_assoc.hh"
#include "util/bits.hh"

namespace
{

using namespace dirsim::mem;

TEST(BlockUtils, IsPow2)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(16));
    EXPECT_TRUE(isPow2(1ULL << 40));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(3));
    EXPECT_FALSE(isPow2(24));
}

TEST(BlockUtils, Log2Exact)
{
    EXPECT_EQ(log2Exact(1), 0u);
    EXPECT_EQ(log2Exact(2), 1u);
    EXPECT_EQ(log2Exact(64), 6u);
    EXPECT_EQ(log2Exact(1ULL << 20), 20u);
    EXPECT_EQ(log2Exact(1ULL << 62), 62u);
    EXPECT_EQ(log2Exact(1ULL << 63), 63u);
}

TEST(BlockUtils, BlockIdAndBase)
{
    EXPECT_EQ(blockId(0x0, 16), 0u);
    EXPECT_EQ(blockId(0xf, 16), 0u);
    EXPECT_EQ(blockId(0x10, 16), 1u);
    EXPECT_EQ(blockBase(3, 16), 0x30u);
}

/** Set bits of @p x, counted one position at a time. */
unsigned
referencePopcount(std::uint64_t x)
{
    unsigned n = 0;
    for (unsigned b = 0; b < 64; ++b)
        n += static_cast<unsigned>((x >> b) & 1);
    return n;
}

/** Whether util::popcount and util::hasSingleBit agree with the bit
 *  loop on @p x. */
::testing::AssertionResult
bitsMatchLoop(std::uint64_t x)
{
    const unsigned want = referencePopcount(x);
    const unsigned got = dirsim::util::popcount(x);
    if (got != want)
        return ::testing::AssertionFailure()
               << "word " << x << ": popcount " << got << ", loop " << want;
    if (dirsim::util::hasSingleBit(x) != (want == 1))
        return ::testing::AssertionFailure()
               << "word " << x << ": hasSingleBit disagrees with the loop";
    return ::testing::AssertionSuccess();
}

TEST(Bits, MatchReferenceLoop)
{
    EXPECT_TRUE(bitsMatchLoop(0));
    for (unsigned b = 0; b < 64; ++b) {
        EXPECT_TRUE(bitsMatchLoop(1ULL << b));  // every single bit
        EXPECT_TRUE(bitsMatchLoop(~0ULL >> b)); // all-ones prefixes
    }
    // Dense random words, and sparse ones (three ANDed) so single and
    // double bits come up too.
    dirsim::gen::Rng rng(0xB175);
    for (int i = 0; i < 1'000'000; ++i) {
        const std::uint64_t w = rng.nextU64();
        ASSERT_TRUE(bitsMatchLoop(w)) << "word " << i;
        ASSERT_TRUE(bitsMatchLoop(w & rng.nextU64() & rng.nextU64()))
            << "sparse word " << i;
    }
}

TEST(SetAssoc, GeometryValidation)
{
    CacheGeometry bad;
    bad.capacityBytes = 48; // 48/(16*4) = 0 sets
    EXPECT_THROW(SetAssocTagStore{bad}, std::invalid_argument);

    CacheGeometry non_pow2;
    non_pow2.capacityBytes = 192; // 3 sets
    non_pow2.ways = 4;
    EXPECT_THROW(SetAssocTagStore{non_pow2}, std::invalid_argument);

    CacheGeometry zero_ways;
    zero_ways.ways = 0;
    EXPECT_THROW(SetAssocTagStore{zero_ways}, std::invalid_argument);
}

TEST(SetAssoc, NumSetsComputation)
{
    CacheGeometry geom;
    geom.capacityBytes = 64 * 1024;
    geom.blockBytes = 16;
    geom.ways = 4;
    EXPECT_EQ(geom.numSets(), 1024u);
}

TEST(SetAssoc, HitAfterFill)
{
    SetAssocTagStore store(CacheGeometry{1024, 16, 2});
    EXPECT_FALSE(store.touch(0, 5).hit);
    EXPECT_TRUE(store.touch(0, 5).hit);
    EXPECT_TRUE(store.contains(0, 5));
    EXPECT_EQ(store.size(), 1u);
}

TEST(SetAssoc, LruEviction)
{
    // 2 ways, 16 sets: blocks 0, 16, 32 map to set 0.
    SetAssocTagStore store(CacheGeometry{512, 16, 2});
    ASSERT_EQ(store.geometry().numSets(), 16u);
    store.touch(0, 0);
    store.touch(0, 16);
    const TouchResult r = store.touch(0, 32);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.evictedBlock, 0u); // least recently used
    EXPECT_FALSE(store.contains(0, 0));
    EXPECT_TRUE(store.contains(0, 16));
    EXPECT_TRUE(store.contains(0, 32));
}

TEST(SetAssoc, TouchRefreshesLru)
{
    SetAssocTagStore store(CacheGeometry{512, 16, 2});
    store.touch(0, 0);
    store.touch(0, 16);
    store.touch(0, 0); // 16 becomes LRU
    const TouchResult r = store.touch(0, 32);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.evictedBlock, 16u);
}

TEST(SetAssoc, InvalidateFreesWay)
{
    SetAssocTagStore store(CacheGeometry{512, 16, 2});
    store.touch(0, 0);
    store.touch(0, 16);
    store.invalidate(0, 0);
    EXPECT_EQ(store.size(), 1u);
    // Room again: no eviction on the next fill in set 0.
    EXPECT_FALSE(store.touch(0, 32).evicted);
    EXPECT_TRUE(store.contains(0, 16));
}

TEST(SetAssoc, InvalidateMissingIsNoop)
{
    SetAssocTagStore store(CacheGeometry{512, 16, 2});
    store.touch(0, 0);
    store.invalidate(0, 999);
    EXPECT_EQ(store.size(), 1u);
}

TEST(SetAssoc, DifferentSetsDontConflict)
{
    SetAssocTagStore store(CacheGeometry{512, 16, 2});
    for (BlockId b = 0; b < 16; ++b)
        EXPECT_FALSE(store.touch(0, b).evicted);
    EXPECT_EQ(store.size(), 16u);
}

TEST(SetAssoc, ClearEmpties)
{
    SetAssocTagStore store(CacheGeometry{512, 16, 2});
    store.touch(0, 1);
    store.touch(0, 2);
    store.clear();
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.contains(0, 1));
}

TEST(SetAssoc, DirectMappedConflicts)
{
    SetAssocTagStore store(CacheGeometry{256, 16, 1});
    ASSERT_EQ(store.geometry().numSets(), 16u);
    store.touch(0, 3);
    const TouchResult r = store.touch(0, 19); // same set, 1 way
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.evictedBlock, 3u);
}

TEST(SetAssoc, MixedSetIndexSpreadsStridedFootprint)
{
    // 64 sets x 4 ways.  Dense block ids at stride 64 alias onto set
    // 0 under the fixed low-bits index, so a 256-block strided
    // footprint keeps at most 4 blocks resident; the mix64 index
    // spreads the same footprint across sets.
    CacheGeometry fixed{64 * 4 * 16, 16, 4};
    ASSERT_EQ(fixed.numSets(), 64u);
    CacheGeometry mixed = fixed;
    mixed.mixSetIndex = true;

    SetAssocTagStore plain(fixed);
    SetAssocTagStore spread(mixed);
    constexpr unsigned footprint = 256;
    for (unsigned i = 0; i < footprint; ++i) {
        plain.touch(0, static_cast<BlockId>(i) * 64);
        spread.touch(0, static_cast<BlockId>(i) * 64);
    }
    EXPECT_EQ(plain.size(), 4u); // collapsed onto one set
    // mix64 is deterministic, so this bound is stable: most of the
    // 256-entry capacity stays resident.
    EXPECT_GT(spread.size(), 128u);
}

/**
 * Property: SetAssocTagStore agrees with a simple reference model (a
 * per-set std::list maintained in LRU order) over a long random
 * operation sequence.
 */
class SetAssocPropertyTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(SetAssocPropertyTest, MatchesReferenceModel)
{
    const auto [ways, sets] = GetParam();
    CacheGeometry geom;
    geom.blockBytes = 16;
    geom.ways = ways;
    geom.capacityBytes =
        static_cast<std::uint64_t>(sets) * ways * geom.blockBytes;
    SetAssocTagStore store(geom);

    // Reference: per-set MRU-first list.
    std::unordered_map<std::uint64_t, std::list<BlockId>> model;
    dirsim::gen::Rng rng(ways * 1000 + sets);

    for (int op = 0; op < 20'000; ++op) {
        const BlockId block = rng.nextBelow(sets * ways * 3);
        const std::uint64_t set = block & (sets - 1);
        auto &lru = model[set];
        if (rng.chance(0.1)) {
            // Invalidate.
            store.invalidate(0, block);
            lru.remove(block);
            EXPECT_FALSE(store.contains(0, block));
            continue;
        }
        const TouchResult got = store.touch(0, block);
        auto it = std::find(lru.begin(), lru.end(), block);
        if (it != lru.end()) {
            EXPECT_TRUE(got.hit) << "op " << op;
            lru.erase(it);
            lru.push_front(block);
        } else {
            EXPECT_FALSE(got.hit) << "op " << op;
            if (lru.size() == ways) {
                EXPECT_TRUE(got.evicted);
                EXPECT_EQ(got.evictedBlock, lru.back()) << "op " << op;
                lru.pop_back();
            } else {
                EXPECT_FALSE(got.evicted);
            }
            lru.push_front(block);
        }
    }

    // Final state agrees.
    std::uint64_t model_size = 0;
    for (const auto &[set, lru] : model) {
        model_size += lru.size();
        for (BlockId b : lru)
            EXPECT_TRUE(store.contains(0, b));
    }
    EXPECT_EQ(store.size(), model_size);
}

/**
 * A store of several copies behaves as that many independent one-copy
 * stores: over seeded random touches and invalidations spread across
 * the copies, every touch returns the same TouchResult, and after
 * every operation each copy holds exactly what its own store holds,
 * so no operation on one copy changes another.
 */
class SetAssocCopiesTest
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>>
{
};

TEST_P(SetAssocCopiesTest, MatchIndependentStores)
{
    const auto [ways, mix] = GetParam();
    constexpr unsigned copies = 4;
    constexpr unsigned sets = 8;
    const CacheGeometry geom{sets * ways * 16, 16, ways, mix};
    SetAssocTagStore shared(geom, copies);
    std::vector<SetAssocTagStore> apart(copies, SetAssocTagStore(geom));
    const BlockId universe = sets * ways * 3;
    dirsim::gen::Rng rng(ways * 2 + (mix ? 1 : 0));

    for (int op = 0; op < 5'000; ++op) {
        const auto copy = static_cast<unsigned>(rng.nextBelow(copies));
        const BlockId block = rng.nextBelow(universe);
        if (rng.chance(0.2)) {
            shared.invalidate(copy, block);
            apart[copy].invalidate(0, block);
        } else {
            const TouchResult got = shared.touch(copy, block);
            const TouchResult want = apart[copy].touch(0, block);
            ASSERT_EQ(got.hit, want.hit) << "op " << op;
            ASSERT_EQ(got.evicted, want.evicted) << "op " << op;
            ASSERT_EQ(got.evictedBlock, want.evictedBlock) << "op " << op;
            ASSERT_EQ(got.set, want.set) << "op " << op;
        }
        for (unsigned c = 0; c < copies; ++c) {
            for (BlockId b = 0; b < universe; ++b)
                ASSERT_EQ(shared.contains(c, b), apart[c].contains(0, b))
                    << "op " << op << " copy " << c << " block " << b;
        }
    }
    std::uint64_t resident = 0;
    for (const SetAssocTagStore &store : apart)
        resident += store.size();
    EXPECT_EQ(shared.size(), resident);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SetAssocCopiesTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Bool()));

INSTANTIATE_TEST_SUITE_P(
    Geometries, SetAssocPropertyTest,
    ::testing::Values(std::make_tuple(1u, 16u), std::make_tuple(2u, 8u),
                      std::make_tuple(4u, 16u),
                      std::make_tuple(8u, 4u),
                      std::make_tuple(4u, 128u)));

} // namespace
