/**
 * @file
 * Property tests for the open-addressing tables: util::FlatMap and
 * the first-touch trace::BlockNumbering.
 *
 * Both are checked against std::unordered_map.  FlatMap runs long
 * randomized operation sequences — insert, erase (tombstones),
 * re-insert (tombstone reuse), clear (capacity-preserving) and
 * reserve (rehash) — with key distributions chosen to stress probing:
 * uniform, sequential (block ids), and strided/clustered.  The
 * numbering runs the keys a multiplicative hash handles worst
 * (sequential, and strides of every power of two) at counts on both
 * sides of its growth thresholds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "trace/block_numbering.hh"
#include "util/flat_map.hh"

namespace
{

using dirsim::trace::BlockNumbering;
using dirsim::util::FlatMap;

/** Key generators stressing different probe patterns. */
std::uint64_t
drawKey(std::mt19937_64 &rng, int mode, std::uint64_t range)
{
    switch (mode) {
      case 0: // Uniform over a small range: heavy key reuse.
        return rng() % range;
      case 1: // Sequential-ish: what block ids look like.
        return (rng() % range) + 0x1000;
      default: // Strided clusters: worst case for identity hashing.
        return (rng() % range) * 4096;
    }
}

TEST(FlatMap, MatchesUnorderedMapUnderRandomizedOps)
{
    for (int mode = 0; mode < 3; ++mode) {
        std::mt19937_64 rng(0x15CA1988u + mode);
        FlatMap<std::uint64_t, std::uint64_t> flat;
        std::unordered_map<std::uint64_t, std::uint64_t> ref;

        for (int op = 0; op < 200000; ++op) {
            const std::uint64_t key = drawKey(rng, mode, 4096);
            const unsigned action = rng() % 100;
            if (action < 55) {
                // tryEmplace + mutate, exactly like the engines do.
                auto emplaced = flat.tryEmplace(key);
                auto [it, inserted] = ref.try_emplace(key, 0);
                ASSERT_EQ(emplaced.inserted, inserted);
                ASSERT_EQ(emplaced.value, it->second);
                emplaced.value += op;
                it->second += op;
            } else if (action < 75) {
                ASSERT_EQ(flat.erase(key), ref.erase(key) != 0);
            } else if (action < 90) {
                const auto *found = flat.find(key);
                const auto it = ref.find(key);
                ASSERT_EQ(found != nullptr, it != ref.end());
                if (found)
                    ASSERT_EQ(*found, it->second);
                ASSERT_EQ(flat.contains(key), it != ref.end());
            } else if (action < 95) {
                flat[key] = op;
                ref[key] = op;
            } else if (action == 95) {
                // Rare: capacity-preserving clear.
                const std::size_t cap = flat.capacity();
                flat.clear();
                ref.clear();
                ASSERT_EQ(flat.capacity(), cap);
                ASSERT_TRUE(flat.empty());
            } else if (action == 96) {
                flat.reserve(rng() % 10000);
            }
            ASSERT_EQ(flat.size(), ref.size());
        }

        // Full-content equality, both directions.
        std::size_t visited = 0;
        flat.forEach([&](std::uint64_t k, std::uint64_t v) {
            ++visited;
            auto it = ref.find(k);
            ASSERT_NE(it, ref.end());
            ASSERT_EQ(v, it->second);
        });
        ASSERT_EQ(visited, ref.size());
        for (const auto &[k, v] : ref) {
            const auto *found = flat.find(k);
            ASSERT_NE(found, nullptr);
            ASSERT_EQ(*found, v);
        }
    }
}

/**
 * Tombstone reuse: erase/re-insert cycles over a fixed key set must
 * not grow the table — the freed slots are found on the probe path
 * and recycled.
 */
TEST(FlatMap, TombstoneReuseDoesNotGrowTable)
{
    FlatMap<std::uint64_t, int> flat;
    for (std::uint64_t k = 0; k < 64; ++k)
        flat[k] = static_cast<int>(k);
    const std::size_t cap = flat.capacity();
    for (int cycle = 0; cycle < 10000; ++cycle) {
        const std::uint64_t k = cycle % 64;
        ASSERT_TRUE(flat.erase(k));
        ASSERT_TRUE(flat.tryEmplace(k).inserted);
        flat[k] = cycle;
    }
    EXPECT_EQ(flat.capacity(), cap);
    EXPECT_EQ(flat.size(), 64u);
}

/** Values with heap resources survive rehash and reset on reuse. */
TEST(FlatMap, VectorValuesAcrossRehashEraseAndClear)
{
    FlatMap<std::uint64_t, std::vector<int>> flat;
    for (std::uint64_t k = 0; k < 1000; ++k)
        flat[k].push_back(static_cast<int>(k));
    for (std::uint64_t k = 0; k < 1000; ++k) {
        const auto *v = flat.find(k);
        ASSERT_NE(v, nullptr);
        ASSERT_EQ(v->size(), 1u);
        ASSERT_EQ((*v)[0], static_cast<int>(k));
    }
    // Erase resets the value; a fresh tryEmplace sees an empty vector.
    ASSERT_TRUE(flat.erase(7));
    auto emplaced = flat.tryEmplace(7);
    ASSERT_TRUE(emplaced.inserted);
    EXPECT_TRUE(emplaced.value.empty());
    // clear() keeps capacity; reused slots also start empty.
    flat.clear();
    EXPECT_TRUE(flat.empty());
    auto again = flat.tryEmplace(3);
    ASSERT_TRUE(again.inserted);
    EXPECT_TRUE(again.value.empty());
}

TEST(FlatMap, ReserveMakesInsertsRehashFree)
{
    FlatMap<std::uint64_t, int> flat;
    flat.reserve(100000);
    const std::size_t cap = flat.capacity();
    for (std::uint64_t k = 0; k < 100000; ++k)
        flat[k] = 1;
    EXPECT_EQ(flat.capacity(), cap);
}

/**
 * Number @p keys in order (repeats allowed) and hold every id, the
 * names and the size to a first-touch std::unordered_map reference;
 * then number them again in reverse, where every key is a hit.
 */
void
expectNumbersLikeReference(BlockNumbering &numbering,
                           const std::vector<std::uint32_t> &keys)
{
    std::unordered_map<std::uint32_t, std::uint32_t> ref;
    std::vector<std::uint32_t> names;
    for (const std::uint32_t key : keys) {
        const auto [it, fresh] =
            ref.try_emplace(key, static_cast<std::uint32_t>(ref.size()));
        if (fresh)
            names.push_back(key);
        ASSERT_EQ(numbering.number(key), it->second) << "key " << key;
    }
    ASSERT_EQ(numbering.size(), ref.size());
    EXPECT_TRUE(std::ranges::equal(numbering.names(), names));
    for (auto it = keys.rbegin(); it != keys.rend(); ++it)
        ASSERT_EQ(numbering.number(*it), ref.at(*it)) << "key " << *it;
    EXPECT_EQ(numbering.size(), ref.size());
}

/** @p count distinct keys 2^k apart: j << k while that fits 32 bits,
 *  rotated round after (so they stay distinct); k = 0 is sequential.
 *  0xFFFFFFFF comes first, so the all-ones key takes id 0 and key 0
 *  id 1: both ends of the slot encoding. */
std::vector<std::uint32_t>
stridedKeys(unsigned k, std::uint32_t count)
{
    std::vector<std::uint32_t> keys{0xffffffffU};
    for (std::uint32_t j = 0; j < count; ++j)
        keys.push_back(std::rotl(j, static_cast<int>(k)));
    return keys;
}

/** Every power-of-two stride, at counts either side of the 3/4-load
 *  growth of a 4096-, 8192- and 16384-slot table. */
TEST(BlockNumbering, MatchesReferenceOnStridedKeysAcrossGrowth)
{
    for (const std::uint32_t limit : {3072u, 6144u, 12288u}) {
        for (const std::uint32_t count : {limit - 1, limit, limit + 1}) {
            for (unsigned k = 0; k < 32; ++k) {
                SCOPED_TRACE("count " + std::to_string(count) +
                             " stride 2^" + std::to_string(k));
                BlockNumbering numbering;
                // count distinct keys, the all-ones key included.
                expectNumbersLikeReference(numbering,
                                           stridedKeys(k, count - 1));
            }
        }
    }
}

/** A numbering restarts at id 0 after takeNames() and clear(), in the
 *  table it has already grown. */
TEST(BlockNumbering, ReuseAfterTakeNamesAndClear)
{
    BlockNumbering numbering;
    const std::vector<std::uint32_t> first = stridedKeys(4, 6144);
    expectNumbersLikeReference(numbering, first);
    EXPECT_EQ(numbering.takeNames(), first);
    EXPECT_EQ(numbering.size(), 0u);
    EXPECT_TRUE(numbering.names().empty());

    expectNumbersLikeReference(numbering, stridedKeys(17, 3072));
    numbering.clear();
    EXPECT_EQ(numbering.size(), 0u);
    EXPECT_TRUE(numbering.names().empty());
    expectNumbersLikeReference(numbering, first);
}

} // namespace
