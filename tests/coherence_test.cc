/**
 * @file
 * Tests for the coherence state engines: event classification,
 * invalidation fanout accounting, directory shadowing, finite caches,
 * and cross-engine equivalence properties.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coherence/berkeley_engine.hh"
#include "coherence/dragon_engine.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "coherence/multi_limited_engine.hh"
#include "coherence/wti_engine.hh"
#include "directory/coarse_vector.hh"
#include "directory/full_map.hh"
#include "directory/limited_pointer.hh"
#include "directory/two_bit.hh"
#include "gen/rng.hh"
#include "mem/set_assoc.hh"
#include "trace/block_numbering.hh"

namespace
{

using namespace dirsim::coherence;
using dirsim::mem::BlockId;
using dirsim::trace::RefType;

constexpr RefType R = RefType::Read;
constexpr RefType W = RefType::Write;
constexpr RefType I = RefType::Instr;

InvalEngine
makeInval(unsigned units = 4)
{
    InvalEngineConfig cfg;
    cfg.nUnits = units;
    return InvalEngine(cfg);
}

// ---------------------------------------------------------------------
// Event-count bookkeeping shared by all engines.
// ---------------------------------------------------------------------

TEST(EventCounts, NamesAreDistinct)
{
    std::set<std::string> names;
    for (std::size_t e = 0; e < numEvents; ++e)
        names.insert(eventName(static_cast<Event>(e)));
    EXPECT_EQ(names.size(), numEvents);
}

TEST(EventCounts, AggregatesSum)
{
    EventCounts counts;
    counts.record(Event::Instr);
    counts.record(Event::RdHit);
    counts.record(Event::RmBlkCln);
    counts.record(Event::RmFirstRef);
    counts.record(Event::WhBlkDrty);
    counts.record(Event::WmBlkDrty);
    counts.record(Event::WmFirstRef);
    EXPECT_EQ(counts.totalRefs(), 7u);
    EXPECT_EQ(counts.reads(), 3u);
    EXPECT_EQ(counts.writes(), 3u);
    EXPECT_EQ(counts.readMisses(), 1u);
    EXPECT_EQ(counts.writeMisses(), 1u);
    EXPECT_EQ(counts.writeHits(), 1u);
    EXPECT_DOUBLE_EQ(counts.frac(Event::RdHit), 1.0 / 7.0);
}

TEST(EventCounts, MergeAddsEverything)
{
    EventCounts a;
    EventCounts b;
    a.record(Event::RdHit);
    b.record(Event::RdHit);
    b.record(Event::Instr);
    a.merge(b);
    EXPECT_EQ(a.count(Event::RdHit), 2u);
    EXPECT_EQ(a.totalRefs(), 3u);
}

// ---------------------------------------------------------------------
// InvalEngine (Dir0B / WTI / DirnNB state model).
// ---------------------------------------------------------------------

TEST(Inval, InstructionsCauseNoState)
{
    InvalEngine eng = makeInval();
    eng.access(0, I, 100);
    EXPECT_EQ(eng.results().events.count(Event::Instr), 1u);
    EXPECT_EQ(eng.holders(100), 0u);
}

TEST(Inval, FirstReadThenHit)
{
    InvalEngine eng = makeInval();
    eng.access(0, R, 10);
    EXPECT_EQ(eng.results().events.count(Event::RmFirstRef), 1u);
    EXPECT_EQ(eng.holders(10), 0b0001u);
    eng.access(0, R, 10);
    EXPECT_EQ(eng.results().events.count(Event::RdHit), 1u);
}

TEST(Inval, ReadMissCleanElsewhere)
{
    InvalEngine eng = makeInval();
    eng.access(0, R, 10);
    eng.access(1, R, 10);
    EXPECT_EQ(eng.results().events.count(Event::RmBlkCln), 1u);
    EXPECT_EQ(eng.holders(10), 0b0011u);
    EXPECT_EQ(eng.dirtyOwner(10), -1);
}

TEST(Inval, ReadMissDirtyFlushesAndShares)
{
    InvalEngine eng = makeInval();
    eng.access(0, W, 10); // first ref, dirty in 0
    ASSERT_EQ(eng.dirtyOwner(10), 0);
    eng.access(1, R, 10);
    EXPECT_EQ(eng.results().events.count(Event::RmBlkDrty), 1u);
    // Ex-owner keeps a clean copy; requester added.
    EXPECT_EQ(eng.holders(10), 0b0011u);
    EXPECT_EQ(eng.dirtyOwner(10), -1);
}

TEST(Inval, WriteHitDirtyIsFree)
{
    InvalEngine eng = makeInval();
    eng.access(0, W, 10);
    eng.access(0, W, 10);
    EXPECT_EQ(eng.results().events.count(Event::WhBlkDrty), 1u);
    EXPECT_EQ(eng.holders(10), 0b0001u);
}

TEST(Inval, WriteHitCleanExclusive)
{
    InvalEngine eng = makeInval();
    eng.access(0, R, 10);
    eng.access(0, W, 10);
    EXPECT_EQ(eng.results().events.count(Event::WhBlkClnExcl), 1u);
    EXPECT_EQ(eng.results().whClnFanout.count(0), 1u);
    EXPECT_EQ(eng.dirtyOwner(10), 0);
}

TEST(Inval, WriteHitCleanSharedInvalidatesOthers)
{
    InvalEngine eng = makeInval();
    eng.access(0, R, 10);
    eng.access(1, R, 10);
    eng.access(2, R, 10);
    eng.access(1, W, 10);
    EXPECT_EQ(eng.results().events.count(Event::WhBlkClnShared), 1u);
    EXPECT_EQ(eng.results().whClnFanout.count(2), 1u);
    EXPECT_EQ(eng.holders(10), 0b0010u);
    EXPECT_EQ(eng.dirtyOwner(10), 1);
    // The invalidated caches now miss.
    eng.access(0, R, 10);
    EXPECT_EQ(eng.results().events.count(Event::RmBlkDrty), 1u);
}

TEST(Inval, WriteMissCleanInvalidatesAll)
{
    InvalEngine eng = makeInval();
    eng.access(0, R, 10);
    eng.access(1, R, 10);
    eng.access(2, W, 10);
    EXPECT_EQ(eng.results().events.count(Event::WmBlkCln), 1u);
    EXPECT_EQ(eng.results().wmClnFanout.count(2), 1u);
    EXPECT_EQ(eng.holders(10), 0b0100u);
}

TEST(Inval, WriteMissDirtyFlushesAndInvalidates)
{
    InvalEngine eng = makeInval();
    eng.access(0, W, 10);
    eng.access(1, W, 10);
    EXPECT_EQ(eng.results().events.count(Event::WmBlkDrty), 1u);
    EXPECT_EQ(eng.holders(10), 0b0010u);
    EXPECT_EQ(eng.dirtyOwner(10), 1);
}

TEST(Inval, DirtyImpliesSoleHolderInvariant)
{
    InvalEngine eng = makeInval();
    dirsim::gen::Rng rng(1);
    for (int i = 0; i < 20'000; ++i) {
        const unsigned unit = static_cast<unsigned>(rng.nextBelow(4));
        const BlockId block = rng.nextBelow(50);
        eng.access(unit, rng.chance(0.3) ? W : R, block);
        if (eng.dirtyOwner(block) >= 0) {
            ASSERT_EQ(eng.holders(block),
                      1ULL << eng.dirtyOwner(block));
        }
    }
}

TEST(Inval, HolderGrowth12Counts)
{
    InvalEngine eng = makeInval();
    eng.access(0, R, 10); // 0 -> 1 holders
    eng.access(1, R, 10); // 1 -> 2: counts
    eng.access(2, R, 10); // 2 -> 3: no
    EXPECT_EQ(eng.results().holderGrowth12, 1u);
    eng.access(3, W, 10); // reset to 1
    eng.access(0, R, 10); // 1 -> 2 again
    EXPECT_EQ(eng.results().holderGrowth12, 2u);
}

TEST(Inval, ResetClearsState)
{
    InvalEngine eng = makeInval();
    eng.access(0, W, 10);
    eng.reset();
    EXPECT_EQ(eng.results().events.totalRefs(), 0u);
    EXPECT_EQ(eng.holders(10), 0u);
    eng.access(0, R, 10);
    EXPECT_EQ(eng.results().events.count(Event::RmFirstRef), 1u);
}

TEST(Inval, RejectsBadUnitCounts)
{
    InvalEngineConfig cfg;
    cfg.nUnits = 0;
    EXPECT_THROW(InvalEngine{cfg}, std::invalid_argument);
    cfg.nUnits = 65;
    EXPECT_THROW(InvalEngine{cfg}, std::invalid_argument);
}

// ---------------------------------------------------------------------
// InvalEngine with a shadowed directory organisation.
// ---------------------------------------------------------------------

TEST(InvalDirectory, FullMapSendsExactMessages)
{
    dirsim::directory::FullMapFactory factory;
    InvalEngineConfig cfg;
    cfg.nUnits = 4;
    cfg.dirFactory = &factory;
    InvalEngine eng(cfg);
    eng.access(0, R, 10);
    eng.access(1, R, 10);
    eng.access(2, R, 10);
    eng.access(0, W, 10); // invalidate 1 and 2, directed
    EXPECT_EQ(eng.results().dirDirectedInvals, 2u);
    EXPECT_EQ(eng.results().dirBroadcasts, 0u);
    EXPECT_EQ(eng.results().dirOvershoot, 0u);
}

TEST(InvalDirectory, TwoBitBroadcastsWhenShared)
{
    dirsim::directory::TwoBitFactory factory;
    InvalEngineConfig cfg;
    cfg.nUnits = 4;
    cfg.dirFactory = &factory;
    InvalEngine eng(cfg);
    eng.access(0, R, 10);
    eng.access(0, W, 10); // clean-exclusive hit: no broadcast
    EXPECT_EQ(eng.results().dirBroadcasts, 0u);
    eng.access(1, R, 10);
    eng.access(2, R, 10);
    eng.access(1, W, 10); // clean-many: broadcast
    EXPECT_EQ(eng.results().dirBroadcasts, 1u);
}

TEST(InvalDirectory, LimitedPointerOverflowBroadcasts)
{
    dirsim::directory::LimitedPointerFactory factory(1, true);
    InvalEngineConfig cfg;
    cfg.nUnits = 4;
    cfg.dirFactory = &factory;
    InvalEngine eng(cfg);
    eng.access(0, R, 10);
    eng.access(1, R, 10); // overflow: broadcast bit set
    eng.access(2, W, 10);
    EXPECT_EQ(eng.results().dirBroadcasts, 1u);
    // After the write the single pointer tracks the owner again.
    eng.access(3, W, 10);
    EXPECT_EQ(eng.results().dirBroadcasts, 1u);
    EXPECT_EQ(eng.results().dirDirectedInvals, 1u);
}

TEST(InvalDirectory, CoarseVectorOvershootsButCovers)
{
    dirsim::directory::CoarseVectorFactory factory;
    InvalEngineConfig cfg;
    cfg.nUnits = 8;
    cfg.dirFactory = &factory;
    InvalEngine eng(cfg);
    // Holders {0, 3}: code denotes a superset of size 4.
    eng.access(0, R, 10);
    eng.access(3, R, 10);
    eng.access(0, W, 10);
    // Directed messages = |denoted \ {writer}| = 3 when digits 0 and 1
    // are "both"; exactly one holder (3) plus overshoot (1, 2).
    EXPECT_EQ(eng.results().dirBroadcasts, 0u);
    EXPECT_EQ(eng.results().dirDirectedInvals, 3u);
    EXPECT_EQ(eng.results().dirOvershoot, 2u);
}

TEST(InvalDirectory, RandomTrafficNeverTripsCoverageAssert)
{
    // The engine asserts that a shadowed directory's targets cover all
    // real holders; drive every organisation with random traffic.
    std::vector<std::unique_ptr<dirsim::directory::DirEntryFactory>>
        factories;
    factories.push_back(
        std::make_unique<dirsim::directory::FullMapFactory>());
    factories.push_back(
        std::make_unique<dirsim::directory::TwoBitFactory>());
    factories.push_back(
        std::make_unique<dirsim::directory::LimitedPointerFactory>(
            2, true));
    factories.push_back(
        std::make_unique<dirsim::directory::CoarseVectorFactory>());
    for (const auto &factory : factories) {
        InvalEngineConfig cfg;
        cfg.nUnits = 8;
        cfg.dirFactory = factory.get();
        InvalEngine eng(cfg);
        dirsim::gen::Rng rng(7);
        for (int i = 0; i < 30'000; ++i) {
            eng.access(static_cast<unsigned>(rng.nextBelow(8)),
                       rng.chance(0.3) ? W : R, rng.nextBelow(64));
        }
        EXPECT_GT(eng.results().dirDirectedInvals +
                      eng.results().dirBroadcasts,
                  0u);
    }
}

// ---------------------------------------------------------------------
// InvalEngine with finite caches.
// ---------------------------------------------------------------------

TEST(InvalFinite, EvictionProducesMemoryMisses)
{
    InvalEngineConfig cfg;
    cfg.nUnits = 2;
    cfg.cacheFactory = [] {
        // Tiny cache: 4 sets x 1 way of 16-byte blocks.
        return std::make_unique<dirsim::mem::SetAssocTagStore>(
            dirsim::mem::CacheGeometry{64, 16, 1});
    };
    InvalEngine eng(cfg);
    // Fill unit 0 with conflicting blocks (same set 0): 0, 4, 8.
    eng.access(0, R, 0);
    eng.access(0, R, 4); // evicts block 0
    EXPECT_EQ(eng.results().replacementEvictions, 1u);
    EXPECT_EQ(eng.holders(0), 0u);
    eng.access(0, R, 0); // referenced before, in no cache
    EXPECT_EQ(eng.results().events.count(Event::RmMemory), 1u);
}

TEST(InvalFinite, DirtyEvictionWritesBack)
{
    InvalEngineConfig cfg;
    cfg.nUnits = 2;
    cfg.cacheFactory = [] {
        return std::make_unique<dirsim::mem::SetAssocTagStore>(
            dirsim::mem::CacheGeometry{64, 16, 1});
    };
    InvalEngine eng(cfg);
    eng.access(0, W, 0);
    eng.access(0, R, 4); // evicts dirty block 0
    EXPECT_EQ(eng.results().replacementWriteBacks, 1u);
    EXPECT_EQ(eng.dirtyOwner(0), -1);
    // A later write miss to block 0 finds it in memory.
    eng.access(1, W, 0);
    EXPECT_EQ(eng.results().events.count(Event::WmMemory), 1u);
}

TEST(InvalFinite, HoldersMatchTagStores)
{
    InvalEngineConfig cfg;
    cfg.nUnits = 4;
    cfg.cacheFactory = [] {
        return std::make_unique<dirsim::mem::SetAssocTagStore>(
            dirsim::mem::CacheGeometry{256, 16, 2});
    };
    InvalEngine eng(cfg);
    dirsim::gen::Rng rng(3);
    for (int i = 0; i < 20'000; ++i) {
        eng.access(static_cast<unsigned>(rng.nextBelow(4)),
                   rng.chance(0.3) ? W : R, rng.nextBelow(128));
    }
    // Spot-check coherence of holders bits via miss classification:
    // a block reported held must hit.
    for (BlockId b = 0; b < 128; ++b) {
        for (unsigned u = 0; u < 4; ++u) {
            if (eng.holders(b) & (1ULL << u)) {
                const auto before =
                    eng.results().events.count(Event::RdHit);
                eng.access(u, R, b);
                EXPECT_EQ(eng.results().events.count(Event::RdHit),
                          before + 1);
            }
        }
    }
}

// ---------------------------------------------------------------------
// LimitedEngine (Dir1NB / DiriNB).
// ---------------------------------------------------------------------

TEST(Limited, RejectsBadParameters)
{
    EXPECT_THROW(LimitedEngine(0, 1), std::invalid_argument);
    EXPECT_THROW(LimitedEngine(65, 1), std::invalid_argument);
    EXPECT_THROW(LimitedEngine(4, 0), std::invalid_argument);
    // More than 8 pointers exceeds the inline fill queue (the paper's
    // no-broadcast sweep tops out at Dir8NB) ...
    EXPECT_THROW(LimitedEngine(16, 9), std::invalid_argument);
    // ... but a large count clamped down by a small unit count is
    // fine: Dir9NB on 8 units is just Dir8NB.
    EXPECT_NO_THROW(LimitedEngine(8, 9));
    EXPECT_NO_THROW(LimitedEngine(16, 8));
}

TEST(Limited, Dir1NbSingleCopySemantics)
{
    LimitedEngine eng(4, 1);
    eng.access(0, R, 10);
    EXPECT_EQ(eng.results().events.count(Event::RmFirstRef), 1u);
    eng.access(1, R, 10); // steals the only copy
    EXPECT_EQ(eng.results().events.count(Event::RmBlkCln), 1u);
    EXPECT_EQ(eng.results().displacementInvals, 1u);
    eng.access(0, R, 10); // bounced back
    EXPECT_EQ(eng.results().events.count(Event::RmBlkCln), 2u);
    EXPECT_EQ(eng.results().displacementInvals, 2u);
}

TEST(Limited, Dir1NbDirtyHandoff)
{
    LimitedEngine eng(4, 1);
    eng.access(0, W, 10);
    eng.access(1, R, 10);
    EXPECT_EQ(eng.results().events.count(Event::RmBlkDrty), 1u);
    // Ex-owner was invalidated as part of the hand-off, not as a
    // displacement.
    EXPECT_EQ(eng.results().displacementInvals, 0u);
    // Ex-owner must now miss.
    eng.access(0, R, 10);
    EXPECT_EQ(eng.results().events.count(Event::RmBlkCln), 1u);
}

TEST(Limited, Dir1NbWriteHitsAreExclusive)
{
    LimitedEngine eng(4, 1);
    eng.access(0, R, 10);
    eng.access(0, W, 10);
    EXPECT_EQ(eng.results().events.count(Event::WhBlkClnExcl), 1u);
    EXPECT_EQ(eng.results().events.count(Event::WhBlkClnShared), 0u);
}

TEST(Limited, Dir2NbKeepsTwoCopies)
{
    LimitedEngine eng(4, 2);
    eng.access(0, R, 10);
    eng.access(1, R, 10);
    EXPECT_EQ(eng.results().displacementInvals, 0u);
    // Both hit now.
    eng.access(0, R, 10);
    eng.access(1, R, 10);
    EXPECT_EQ(eng.results().events.count(Event::RdHit), 2u);
    // A third reader displaces the oldest (unit 0).
    eng.access(2, R, 10);
    EXPECT_EQ(eng.results().displacementInvals, 1u);
    eng.access(1, R, 10);
    eng.access(2, R, 10);
    EXPECT_EQ(eng.results().events.count(Event::RdHit), 4u);
    // Three clean misses so far: unit 1's initial fill, unit 2's
    // fill, and none yet for the displaced unit 0.
    EXPECT_EQ(eng.results().events.count(Event::RmBlkCln), 2u);
    eng.access(0, R, 10); // was displaced: miss
    EXPECT_EQ(eng.results().events.count(Event::RmBlkCln), 3u);
}

TEST(Limited, Dir2NbDirtyReadKeepsExOwner)
{
    LimitedEngine eng(4, 2);
    eng.access(0, W, 10);
    eng.access(1, R, 10);
    EXPECT_EQ(eng.results().events.count(Event::RmBlkDrty), 1u);
    // With two pointers the ex-owner keeps a clean copy.
    eng.access(0, R, 10);
    EXPECT_EQ(eng.results().events.count(Event::RdHit), 1u);
}

TEST(Limited, WriteSharedFanoutRecorded)
{
    LimitedEngine eng(4, 3);
    eng.access(0, R, 10);
    eng.access(1, R, 10);
    eng.access(2, R, 10);
    eng.access(0, W, 10);
    EXPECT_EQ(eng.results().events.count(Event::WhBlkClnShared), 1u);
    EXPECT_EQ(eng.results().whClnFanout.count(2), 1u);
}

TEST(Limited, PointerCountClampedToUnits)
{
    LimitedEngine eng(2, 8);
    EXPECT_EQ(eng.numPointers(), 2u);
}

// ---------------------------------------------------------------------
// DragonEngine (update protocol).
// ---------------------------------------------------------------------

TEST(Dragon, RejectsBadUnitCounts)
{
    EXPECT_THROW(DragonEngine(0), std::invalid_argument);
    EXPECT_THROW(DragonEngine(65), std::invalid_argument);
}

TEST(Dragon, NoInvalidationEver)
{
    DragonEngine eng(4);
    eng.access(0, R, 10);
    eng.access(1, R, 10);
    eng.access(2, W, 10);
    eng.access(3, W, 10);
    // Everyone who ever touched the block still hits.
    const auto hits_before = eng.results().events.count(Event::RdHit);
    eng.access(0, R, 10);
    eng.access(1, R, 10);
    eng.access(2, R, 10);
    eng.access(3, R, 10);
    EXPECT_EQ(eng.results().events.count(Event::RdHit),
              hits_before + 4);
}

TEST(Dragon, LocalVersusDistributedWriteHits)
{
    DragonEngine eng(4);
    eng.access(0, R, 10);
    eng.access(0, W, 10); // sole holder: local
    EXPECT_EQ(eng.results().events.count(Event::WhLocal), 1u);
    eng.access(1, R, 10);
    eng.access(0, W, 10); // shared: distributed update
    EXPECT_EQ(eng.results().events.count(Event::WhDistrib), 1u);
}

TEST(Dragon, DirtyMissSuppliedByOwner)
{
    DragonEngine eng(4);
    eng.access(0, R, 10);
    eng.access(0, W, 10); // owner 0, memory stale
    eng.access(1, R, 10);
    EXPECT_EQ(eng.results().events.count(Event::RmBlkDrty), 1u);
    // Memory stays stale; a third reader is also supplied by a cache.
    eng.access(2, R, 10);
    EXPECT_EQ(eng.results().events.count(Event::RmBlkDrty), 2u);
}

TEST(Dragon, WriteMissUpdatesOthers)
{
    DragonEngine eng(4);
    eng.access(0, R, 10);
    eng.access(1, W, 10);
    EXPECT_EQ(eng.results().events.count(Event::WmBlkCln), 1u);
    // Unit 0 keeps an (updated) copy.
    eng.access(0, R, 10);
    EXPECT_EQ(eng.results().events.count(Event::RdHit), 1u);
}

// ---------------------------------------------------------------------
// Cross-engine properties.
// ---------------------------------------------------------------------

struct RandomRef
{
    unsigned unit;
    RefType type;
    BlockId block;
};

std::vector<RandomRef>
randomTrace(unsigned units, std::size_t n, std::uint64_t seed,
            double write_frac = 0.25, double instr_frac = 0.3)
{
    dirsim::gen::Rng rng(seed);
    std::vector<RandomRef> refs;
    refs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        RandomRef ref;
        ref.unit = static_cast<unsigned>(rng.nextBelow(units));
        if (rng.chance(instr_frac))
            ref.type = I;
        else
            ref.type = rng.chance(write_frac) ? W : R;
        ref.block = rng.nextBelow(200);
        refs.push_back(ref);
    }
    return refs;
}

/** Every reference is classified into exactly one event. */
class ConservationTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ConservationTest, EventsSumToRefs)
{
    const unsigned units = GetParam();
    InvalEngineConfig icfg;
    icfg.nUnits = units;
    InvalEngine inval(icfg);
    LimitedEngine dir1(units, 1);
    DragonEngine dragon(units);

    const auto refs = randomTrace(units, 50'000, units * 31 + 1);
    for (const auto &ref : refs) {
        inval.access(ref.unit, ref.type, ref.block);
        dir1.access(ref.unit, ref.type, ref.block);
        dragon.access(ref.unit, ref.type, ref.block);
    }
    for (const EngineResults *r :
         {&inval.results(), &dir1.results(), &dragon.results()}) {
        EXPECT_EQ(r->events.totalRefs(), refs.size());
        std::uint64_t sum = 0;
        for (std::size_t e = 0; e < numEvents; ++e)
            sum += r->events.count(static_cast<Event>(e));
        EXPECT_EQ(sum, refs.size());
        // First-reference misses are identical across engines (they
        // depend only on the trace).
    }
    EXPECT_EQ(inval.results().events.count(Event::RmFirstRef),
              dragon.results().events.count(Event::RmFirstRef));
    EXPECT_EQ(inval.results().events.count(Event::RmFirstRef),
              dir1.results().events.count(Event::RmFirstRef));
    EXPECT_EQ(inval.results().events.count(Event::WmFirstRef),
              dragon.results().events.count(Event::WmFirstRef));
}

INSTANTIATE_TEST_SUITE_P(UnitCounts, ConservationTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 64u));

/**
 * DiriNB with i = number of units is the full-map no-broadcast scheme,
 * whose state dynamics coincide with the unbounded invalidation
 * engine: no displacement ever happens, so event streams must match
 * exactly.
 */
class LimitedEqualsInvalTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(LimitedEqualsInvalTest, FullPointerLimitedMatchesInval)
{
    const unsigned units = GetParam();
    InvalEngineConfig icfg;
    icfg.nUnits = units;
    InvalEngine inval(icfg);
    LimitedEngine limited(units, units);

    const auto refs = randomTrace(units, 60'000, units * 77 + 5);
    for (const auto &ref : refs) {
        inval.access(ref.unit, ref.type, ref.block);
        limited.access(ref.unit, ref.type, ref.block);
    }
    EXPECT_EQ(limited.results().displacementInvals, 0u);
    for (std::size_t e = 0; e < numEvents; ++e) {
        EXPECT_EQ(inval.results().events.count(static_cast<Event>(e)),
                  limited.results().events.count(static_cast<Event>(e)))
            << eventName(static_cast<Event>(e));
    }
    // Fanout histograms agree too.
    for (std::size_t k = 0; k <= units; ++k) {
        EXPECT_EQ(inval.results().whClnFanout.count(k),
                  limited.results().whClnFanout.count(k));
        EXPECT_EQ(inval.results().wmClnFanout.count(k),
                  limited.results().wmClnFanout.count(k));
    }
}

INSTANTIATE_TEST_SUITE_P(UnitCounts, LimitedEqualsInvalTest,
                         ::testing::Values(2u, 3u, 4u, 8u));

/** Miss counts are monotone in the pointer count: fewer pointers can
 *  only displace more copies and cause more misses. */
TEST(LimitedMonotonicity, MissesDecreaseWithMorePointers)
{
    const unsigned units = 8;
    const auto refs = randomTrace(units, 80'000, 321, 0.2);
    std::uint64_t prev_misses = ~0ULL;
    for (unsigned i : {1u, 2u, 4u, 8u}) {
        LimitedEngine eng(units, i);
        for (const auto &ref : refs)
            eng.access(ref.unit, ref.type, ref.block);
        const std::uint64_t misses = eng.results().events.readMisses() +
                                     eng.results().events.writeMisses();
        EXPECT_LE(misses, prev_misses) << "i = " << i;
        prev_misses = misses;
    }
}

/** Dragon never misses a block a cache has already touched. */
TEST(DragonProperty, HoldersAreMonotone)
{
    const unsigned units = 4;
    DragonEngine eng(units);
    const auto refs = randomTrace(units, 40'000, 99);
    // Track first-touch per (unit, block); after it, never a miss.
    std::set<std::pair<unsigned, BlockId>> touched;
    for (const auto &ref : refs) {
        if (ref.type == I) {
            eng.access(ref.unit, ref.type, ref.block);
            continue;
        }
        const auto key = std::make_pair(ref.unit, ref.block);
        const bool seen = touched.count(key) > 0;
        const std::uint64_t misses_before =
            eng.results().events.readMisses() +
            eng.results().events.writeMisses() +
            eng.results().events.count(Event::RmFirstRef) +
            eng.results().events.count(Event::WmFirstRef);
        eng.access(ref.unit, ref.type, ref.block);
        const std::uint64_t misses_after =
            eng.results().events.readMisses() +
            eng.results().events.writeMisses() +
            eng.results().events.count(Event::RmFirstRef) +
            eng.results().events.count(Event::WmFirstRef);
        if (seen) {
            ASSERT_EQ(misses_after, misses_before);
        }
        touched.insert(key);
    }
}

/** With one unit, no engine ever records a sharing-induced event. */
TEST(SingleUnit, NoCoherenceTraffic)
{
    InvalEngineConfig icfg;
    icfg.nUnits = 1;
    InvalEngine inval(icfg);
    LimitedEngine dir1(1, 1);
    DragonEngine dragon(1);
    const auto refs = randomTrace(1, 30'000, 11);
    for (const auto &ref : refs) {
        inval.access(0, ref.type, ref.block);
        dir1.access(0, ref.type, ref.block);
        dragon.access(0, ref.type, ref.block);
    }
    for (const EngineResults *r :
         {&inval.results(), &dir1.results(), &dragon.results()}) {
        EXPECT_EQ(r->events.count(Event::RmBlkCln), 0u);
        EXPECT_EQ(r->events.count(Event::RmBlkDrty), 0u);
        EXPECT_EQ(r->events.count(Event::WmBlkCln), 0u);
        EXPECT_EQ(r->events.count(Event::WmBlkDrty), 0u);
        EXPECT_EQ(r->events.count(Event::WhBlkClnShared), 0u);
        EXPECT_EQ(r->events.count(Event::WhDistrib), 0u);
    }
}

/** Fanout samples never exceed units - 1 (other caches). */
TEST(FanoutBounds, NeverExceedsOtherCacheCount)
{
    const unsigned units = 6;
    InvalEngineConfig icfg;
    icfg.nUnits = units;
    InvalEngine eng(icfg);
    const auto refs = randomTrace(units, 60'000, 55, 0.35);
    for (const auto &ref : refs)
        eng.access(ref.unit, ref.type, ref.block);
    EXPECT_LE(eng.results().whClnFanout.maxValue(), units - 1);
    EXPECT_LE(eng.results().wmClnFanout.maxValue(), units - 1);
    // Write-miss fanout is at least 1 by definition of WmBlkCln.
    EXPECT_EQ(eng.results().wmClnFanout.count(0), 0u);
}

// ---------------------------------------------------------------------
// Outcomes: what access() reports sums to what results() accumulates.
// ---------------------------------------------------------------------

/** Replay @p refs through access() and sum the returned outcomes
 *  into the counters they mirror. */
EngineResults
sumOutcomes(CoherenceEngine &eng, const std::vector<RandomRef> &refs)
{
    EngineResults sum;
    for (const RandomRef &ref : refs) {
        const Outcome o = eng.access(ref.unit, ref.type, ref.block);
        sum.events.record(o.event());
        if (o.sampled())
            (isWriteHit(o.event()) ? sum.whClnFanout : sum.wmClnFanout)
                .sample(o.fanout());
        sum.holderGrowth12 += o.holderGrowth12();
        sum.displacementInvals += o.displacementInvals();
        sum.replacementWriteBacks += o.replacementWriteBacks();
        sum.dirCacheEvictionInvals += o.dirCacheEvictionInvals();
        sum.dirCacheEvictionWriteBacks += o.dirCacheEvictionWriteBacks();
    }
    return sum;
}

/**
 * Every engine configuration reports, reference by reference, exactly
 * what it adds to the counters the cost models read — which is what
 * makes the timed bus's busy cycles equal timing::staticBusCycles by
 * construction.
 */
TEST(OutcomeSum, EqualsResultsForEveryEngineConfiguration)
{
    constexpr unsigned units = 8;
    const auto refs = randomTrace(units, 40'000, 2024, 0.3);
    dirsim::directory::DirCacheConfig dirCache;
    dirCache.enabled = true;
    dirCache.entries = 32;
    const dirsim::directory::LimitedPointerFactory dir2b(2, true);

    const auto inval = [&](bool finiteCaches, bool finiteDir,
                           bool shadowed) {
        InvalEngineConfig cfg;
        cfg.nUnits = units;
        if (finiteCaches)
            cfg.cacheFactory = [] {
                return std::make_unique<dirsim::mem::SetAssocTagStore>(
                    dirsim::mem::CacheGeometry{256, 16, 2});
            };
        if (finiteDir)
            cfg.dirCache = dirCache;
        if (shadowed)
            cfg.dirFactory = &dir2b;
        return std::make_unique<InvalEngine>(cfg);
    };
    std::vector<std::pair<std::string, std::unique_ptr<CoherenceEngine>>>
        engines;
    engines.emplace_back("inval", inval(false, false, false));
    engines.emplace_back("inval finite caches", inval(true, false, false));
    engines.emplace_back("inval finite dir cache",
                         inval(false, true, false));
    engines.emplace_back("inval shadowed dir", inval(false, false, true));
    engines.emplace_back("dir1nb finite dir cache",
                         std::make_unique<LimitedEngine>(units, 1, dirCache));
    engines.emplace_back("dir2nb finite dir cache",
                         std::make_unique<LimitedEngine>(units, 2, dirCache));
    engines.emplace_back("dragon", std::make_unique<DragonEngine>(units));
    engines.emplace_back("berkeley",
                         std::make_unique<BerkeleyEngine>(units));
    engines.emplace_back("wti", std::make_unique<WtiEngine>(units, true));
    engines.emplace_back("multi-limited lane 0",
                         std::make_unique<MultiLimitedEngine>(
                             units, std::vector<unsigned>{2, 1, 4}));

    EngineResults covered;
    for (const auto &[label, eng] : engines) {
        const EngineResults sum = sumOutcomes(*eng, refs);
        const EngineResults &r = eng->results();
        EXPECT_EQ(sum.events.totalRefs(), r.events.totalRefs()) << label;
        for (std::size_t e = 0; e < numEvents; ++e) {
            const auto event = static_cast<Event>(e);
            EXPECT_EQ(sum.events.count(event), r.events.count(event))
                << label << ": " << eventName(event);
        }
        EXPECT_TRUE(sum.whClnFanout == r.whClnFanout) << label;
        EXPECT_EQ(sum.whClnFanout.totalWeight(),
                  r.whClnFanout.totalWeight())
            << label;
        EXPECT_TRUE(sum.wmClnFanout == r.wmClnFanout) << label;
        EXPECT_EQ(sum.wmClnFanout.totalWeight(),
                  r.wmClnFanout.totalWeight())
            << label;
        EXPECT_EQ(sum.holderGrowth12, r.holderGrowth12) << label;
        EXPECT_EQ(sum.displacementInvals, r.displacementInvals) << label;
        EXPECT_EQ(sum.replacementWriteBacks, r.replacementWriteBacks)
            << label;
        EXPECT_EQ(sum.dirCacheEvictionInvals, r.dirCacheEvictionInvals)
            << label;
        EXPECT_EQ(sum.dirCacheEvictionWriteBacks,
                  r.dirCacheEvictionWriteBacks)
            << label;
        covered.merge(sum);
    }
    // The configurations between them move every counter.
    EXPECT_GT(covered.whClnFanout.totalWeight(), 0u);
    EXPECT_GT(covered.wmClnFanout.totalWeight(), 0u);
    EXPECT_GT(covered.holderGrowth12, 0u);
    EXPECT_GT(covered.displacementInvals, 0u);
    EXPECT_GT(covered.replacementWriteBacks, 0u);
    EXPECT_GT(covered.dirCacheEvictionInvals, 0u);
    EXPECT_GT(covered.dirCacheEvictionWriteBacks, 0u);
}

// ---------------------------------------------------------------------
// Dense block ids: the model reads raw indices only through the names.
// ---------------------------------------------------------------------

/**
 * One stream fed twice — with sparse raw block ids through an unbound
 * engine, and renumbered densely with the names bound — must give
 * identical results.  The raw ids are strided by the set count (set
 * mixing off, so the low bits pick the set): every one aliases onto a
 * single set and a single modulo home, while the dense ids 0..47
 * would spread over all 16 sets and 4 homes.  A set index or home
 * taken from the dense id therefore changes the eviction and home
 * counters, and this test fails.
 */
TEST(BlockNames, SetIndicesAndHomesComeFromRawIds)
{
    constexpr unsigned units = 4;
    constexpr std::uint64_t sets = 16;
    constexpr std::uint64_t distinct = 48;
    auto refs = randomTrace(units, 30'000, 77, 0.3, 0.0);
    for (RandomRef &ref : refs)
        ref.block = 5 + sets * (ref.block % distinct);

    dirsim::directory::DirCacheConfig dirCache;
    dirCache.enabled = true;
    dirCache.entries = sets * 4;
    dirCache.associativity = 4;
    dirCache.mixSetIndex = false;
    const auto inval = [&](bool finiteCaches, bool finiteDir,
                           HomePolicy home) {
        InvalEngineConfig cfg;
        cfg.nUnits = units;
        cfg.homePolicy = home;
        if (finiteCaches)
            cfg.cacheFactory = [] {
                // 16 sets of 4 ways; the low-bits mapping is pinned.
                return std::make_unique<dirsim::mem::SetAssocTagStore>(
                    dirsim::mem::CacheGeometry{sets * 4 * 16, 16, 4});
            };
        if (finiteDir)
            cfg.dirCache = dirCache;
        return std::unique_ptr<CoherenceEngine>(
            std::make_unique<InvalEngine>(cfg));
    };
    const std::vector<std::pair<
        std::string, std::function<std::unique_ptr<CoherenceEngine>()>>>
        configs = {
            {"inval, 4-way finite caches",
             [&] { return inval(true, false, HomePolicy::None); }},
            {"inval behind a 4-way directory cache",
             [&] { return inval(false, true, HomePolicy::None); }},
            {"dir1nb behind a 4-way directory cache",
             [&] {
                 return std::unique_ptr<CoherenceEngine>(
                     std::make_unique<LimitedEngine>(units, 1,
                                                     dirCache));
             }},
            {"inval, modulo homes",
             [&] { return inval(false, false, HomePolicy::Modulo); }},
        };

    // The dense stream: first-touch ids plus their raw names.
    dirsim::trace::BlockNumbering numbering;
    std::vector<std::uint32_t> block;
    std::vector<std::uint8_t> unit;
    std::vector<std::uint8_t> typeFlags;
    for (const RandomRef &ref : refs) {
        block.push_back(
            numbering.number(static_cast<std::uint32_t>(ref.block)));
        unit.push_back(static_cast<std::uint8_t>(ref.unit));
        typeFlags.push_back(dirsim::trace::packTypeFlags(ref.type, 0));
    }
    ASSERT_EQ(numbering.size(), distinct);
    const dirsim::trace::PreparedSpan span{block.data(), unit.data(),
                                           typeFlags.data(), block.size()};

    std::vector<EngineResults> results;
    for (const auto &[label, make] : configs) {
        const auto sparse = make();
        for (const RandomRef &ref : refs)
            sparse->access(ref.unit, ref.type, ref.block);
        const auto dense = make();
        dense->reserveBlocks(numbering.size());
        dense->bindBlockNames(numbering.names());
        dense->accessPrepared(span);
        EXPECT_TRUE(sparse->results() == dense->results()) << label;
        EXPECT_EQ(dense->blocksTracked(), distinct) << label;
        results.push_back(dense->results());
    }
    // Each configuration exercises the raw-id dependence it is for.
    EXPECT_GT(results[0].replacementWriteBacks, 0u);
    EXPECT_GT(results[1].dirCacheEvictions, 0u);
    EXPECT_GT(results[2].dirCacheEvictions, 0u);
    EXPECT_GT(results[3].homeLocalTransactions, 0u);
    EXPECT_GT(results[3].homeRemoteTransactions, 0u);
}

} // namespace
