/**
 * @file
 * Tests for the finite sparse directory cache.
 *
 * Three layers: the DirectoryCache container itself (geometry
 * validation, true-LRU replacement, set-index mixing, the unbounded
 * mode), its integration into the inval/limited engines (an
 * unevictable cache is invisible; a finite one evicts coherently and
 * keeps the conservation counters consistent), and the cost plumbing
 * (timed bus-busy cycles still equal the static aggregate when
 * eviction traffic is present, serial == parallel sweeps).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <vector>

#include "analysis/evaluation.hh"
#include "analysis/extensions.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "directory/dir_cache.hh"
#include "gen/workload.hh"
#include "gen/workloads.hh"
#include "sim/cost_model.hh"
#include "sim/simulator.hh"
#include "sim/trace_repo.hh"
#include "timing/timed_bus.hh"
#include "timing/transactions.hh"

namespace
{

using namespace dirsim;
using directory::DirCacheConfig;
using directory::DirectoryCache;

DirCacheConfig
finiteConfig(std::uint64_t entries, unsigned assoc, bool mix = false)
{
    DirCacheConfig cfg;
    cfg.enabled = true;
    cfg.entries = entries;
    cfg.associativity = assoc;
    cfg.mixSetIndex = mix;
    return cfg;
}

// --- The container ---------------------------------------------------

/** Hits, misses and evictions, counted from the touch results. */
struct TouchCounts
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    mem::TouchResult
    touch(DirectoryCache &cache, mem::BlockId block)
    {
        const mem::TouchResult t = cache.touch(block);
        ++(t.hit ? hits : misses);
        evictions += t.evicted ? 1 : 0;
        return t;
    }
};

TEST(DirCache, GeometryValidation)
{
    // Entries not a multiple of associativity.
    EXPECT_THROW(DirectoryCache(finiteConfig(10, 4)),
                 std::invalid_argument);
    // entries/associativity not a power of two.
    EXPECT_THROW(DirectoryCache(finiteConfig(12, 4)),
                 std::invalid_argument);
    // Zero ways.
    EXPECT_THROW(DirectoryCache(finiteConfig(8, 0)),
                 std::invalid_argument);
    // Valid shapes construct.
    EXPECT_EQ(DirectoryCache(finiteConfig(8, 4)).numSets(), 2u);
    EXPECT_EQ(DirectoryCache(finiteConfig(4, 4)).numSets(), 1u);
    EXPECT_EQ(DirectoryCache(finiteConfig(64, 2)).numSets(), 32u);
}

TEST(DirCache, TrueLruWithinOneSet)
{
    // 4 entries, 4 ways: one set, fully associative, fixed index.
    DirectoryCache cache(finiteConfig(4, 4));
    TouchCounts n;

    for (mem::BlockId b = 0; b < 4; ++b) {
        const mem::TouchResult t = n.touch(cache, b);
        EXPECT_FALSE(t.hit);
        EXPECT_FALSE(t.evicted);
    }
    EXPECT_EQ(cache.size(), 4u);
    EXPECT_EQ(n.misses, 4u);

    // Refresh block 0: block 1 becomes LRU.
    EXPECT_TRUE(n.touch(cache, 0).hit);
    mem::TouchResult t = n.touch(cache, 4);
    EXPECT_FALSE(t.hit);
    ASSERT_TRUE(t.evicted);
    EXPECT_EQ(t.evictedBlock, 1u);
    EXPECT_FALSE(cache.contains(1));
    EXPECT_TRUE(cache.contains(0));

    // Next victim is block 2, the new LRU.
    t = n.touch(cache, 5);
    ASSERT_TRUE(t.evicted);
    EXPECT_EQ(t.evictedBlock, 2u);

    EXPECT_EQ(n.evictions, 2u);
    EXPECT_EQ(cache.setReplacements(),
              std::vector<std::uint64_t>{2u});
    EXPECT_EQ(cache.size(), 4u); // replacement keeps occupancy
}

TEST(DirCache, SetReplacementsSumToEvictions)
{
    DirectoryCache cache(finiteConfig(8, 2)); // 4 sets x 2 ways
    TouchCounts n;
    for (mem::BlockId b = 0; b < 200; ++b)
        n.touch(cache, b);
    // 200 distinct blocks, 50 per set under the low-bits index: all
    // miss, and each set evicts all but the 2 it keeps.
    EXPECT_EQ(n.misses, 200u);
    EXPECT_EQ(n.evictions, 192u);
    EXPECT_EQ(cache.setReplacements(),
              std::vector<std::uint64_t>(4, 48u));
}

TEST(DirCache, MixedIndexSpreadsStridedBlocks)
{
    // 64 sets x 4 ways = 256 entries.  Blocks at stride 64 alias onto
    // one set under the fixed low-bits index (capacity 4 before
    // thrashing); mix64 spreads them so the 128-block footprint fits.
    const unsigned footprint = 128;
    DirectoryCache plain(finiteConfig(256, 4, false));
    DirectoryCache mixed(finiteConfig(256, 4, true));
    TouchCounts plainN, mixedN;
    for (unsigned i = 0; i < footprint; ++i) {
        plainN.touch(plain, static_cast<mem::BlockId>(i) * 64);
        mixedN.touch(mixed, static_cast<mem::BlockId>(i) * 64);
    }
    EXPECT_EQ(plainN.evictions, footprint - 4); // collapsed
    // mix64 is deterministic; the strided footprint lands across sets
    // and most of it stays resident.
    EXPECT_LT(mixedN.evictions, 16u);
    EXPECT_GT(mixed.size(), 100u);
}

TEST(DirCache, UnboundedNeverEvicts)
{
    DirCacheConfig cfg;
    cfg.enabled = true;
    cfg.entries = 0;
    DirectoryCache cache(cfg);
    EXPECT_TRUE(cache.unbounded());
    EXPECT_EQ(cache.numSets(), 0u);

    TouchCounts n;
    for (mem::BlockId b = 0; b < 10'000; ++b)
        EXPECT_FALSE(n.touch(cache, b).evicted);
    EXPECT_EQ(cache.size(), 10'000u);
    EXPECT_EQ(n.misses, 10'000u);
    EXPECT_TRUE(n.touch(cache, 42).hit);
    EXPECT_EQ(n.hits, 1u);
    EXPECT_TRUE(cache.setReplacements().empty());
}

TEST(DirCache, ClearResetsStateAndCounters)
{
    DirectoryCache cache(finiteConfig(4, 2));
    std::vector<mem::TouchResult> first;
    for (mem::BlockId b = 0; b < 50; ++b)
        first.push_back(cache.touch(b % 7));
    const std::vector<std::uint64_t> replacements =
        cache.setReplacements();
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    for (const std::uint64_t n : cache.setReplacements())
        EXPECT_EQ(n, 0u);
    EXPECT_FALSE(cache.contains(0));

    // A cleared cache replays like a new one, touch for touch.
    for (mem::BlockId b = 0; b < 50; ++b) {
        const mem::TouchResult t = cache.touch(b % 7);
        EXPECT_EQ(t.hit, first[b].hit) << b;
        EXPECT_EQ(t.evicted, first[b].evicted) << b;
        EXPECT_EQ(t.evictedBlock, first[b].evictedBlock) << b;
    }
    EXPECT_EQ(cache.setReplacements(), replacements);
}

// --- Engine integration ----------------------------------------------

gen::WorkloadConfig
smallWorkload()
{
    auto cfg = gen::standardWorkloads()[0]; // pops
    cfg.totalRefs = 40'000;
    return cfg;
}

std::unique_ptr<coherence::CoherenceEngine>
invalWith(unsigned units, const DirCacheConfig &dc)
{
    coherence::InvalEngineConfig cfg;
    cfg.nUnits = units;
    cfg.dirCache = dc;
    return std::make_unique<coherence::InvalEngine>(cfg);
}

/**
 * A fully-associative cache at least as large as the touched block
 * footprint can never evict, so the engine must produce results
 * bit-identical (operator==) to the cache-less engine — for both the
 * inval and limited engines.
 */
TEST(DirCacheEngine, LargeEnoughCacheIsInvisible)
{
    const auto workload = smallWorkload();
    const unsigned units = workload.space.nProcesses;
    // 4096 entries, 1 set: fully associative, > any footprint here.
    const DirCacheConfig roomy = finiteConfig(4096, 4096);

    sim::Simulator simulator;
    auto &plainInval = simulator.addEngine(invalWith(units, {}));
    auto &cachedInval = simulator.addEngine(invalWith(units, roomy));
    auto &plainLim = simulator.addEngine(
        std::make_unique<coherence::LimitedEngine>(units, 2));
    auto &cachedLim = simulator.addEngine(
        std::make_unique<coherence::LimitedEngine>(units, 2, roomy));
    gen::WorkloadSource source(workload);
    simulator.run(source);

    // Identical up to the cache's own hit/miss bookkeeping (which
    // the cache-less engines leave at zero).
    using ResultPair = std::pair<const coherence::EngineResults &,
                                 const coherence::EngineResults &>;
    for (const auto &[cachedR, plainR] :
         {ResultPair(cachedInval.results(), plainInval.results()),
          ResultPair(cachedLim.results(), plainLim.results())}) {
        coherence::EngineResults scrubbed = cachedR;
        EXPECT_EQ(scrubbed.dirCacheEvictions, 0u) << scrubbed.name;
        EXPECT_EQ(scrubbed.dirCacheEvictionInvals, 0u)
            << scrubbed.name;
        EXPECT_EQ(scrubbed.dirCacheEvictionWriteBacks, 0u)
            << scrubbed.name;
        EXPECT_GT(scrubbed.dirCacheMisses, 0u) << scrubbed.name;
        scrubbed.dirCacheHits = 0;
        scrubbed.dirCacheMisses = 0;
        EXPECT_TRUE(scrubbed == plainR) << scrubbed.name;
    }

    const auto *cache =
        static_cast<const coherence::InvalEngine &>(cachedInval)
            .dirCache();
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->setReplacements(), std::vector<std::uint64_t>{0u});
    // Nothing was evicted, so every miss left its entry resident.
    EXPECT_EQ(cache->size(), cachedInval.results().dirCacheMisses);
    EXPECT_LE(cache->size(), 4096u);
}

/**
 * A small cache must evict, and its counters must be mutually
 * consistent: every reference that reaches the directory is one hit
 * or one miss, every miss not undone by an eviction left an entry
 * resident, per-set replacements sum to evictions, and the
 * eviction-invalidation count is bounded by evictions ×
 * sharers-per-entry.
 */
TEST(DirCacheEngine, SmallCacheEvictsCoherently)
{
    const auto workload = smallWorkload();
    const unsigned units = workload.space.nProcesses;
    const DirCacheConfig tiny = finiteConfig(64, 4, true);

    sim::Simulator simulator;
    auto &inval = simulator.addEngine(invalWith(units, tiny));
    auto &limited = simulator.addEngine(
        std::make_unique<coherence::LimitedEngine>(units, 2, tiny));
    gen::WorkloadSource source(workload);
    simulator.run(source);

    for (const coherence::CoherenceEngine *engine :
         {static_cast<const coherence::CoherenceEngine *>(&inval),
          static_cast<const coherence::CoherenceEngine *>(&limited)}) {
        const coherence::EngineResults &r = engine->results();
        EXPECT_GT(r.dirCacheEvictions, 0u) << r.name;
        EXPECT_GT(r.dirCacheMisses, 0u) << r.name;
        // An eviction invalidates at most every unit and at most the
        // limited engine's pointer bound per entry.
        EXPECT_LE(r.dirCacheEvictionInvals, r.dirCacheEvictions * units)
            << r.name;
        EXPECT_LE(r.dirCacheEvictionWriteBacks, r.dirCacheEvictions)
            << r.name;
        // Only read hits and dirty write hits bypass the directory.
        const coherence::EventCounts &e = r.events;
        EXPECT_EQ(r.dirCacheHits + r.dirCacheMisses,
                  e.totalRefs() - e.count(coherence::Event::Instr) -
                      e.count(coherence::Event::RdHit) -
                      e.count(coherence::Event::WhBlkDrty))
            << r.name;
    }

    const auto *cache =
        static_cast<const coherence::InvalEngine &>(inval).dirCache();
    ASSERT_NE(cache, nullptr);
    const coherence::EngineResults &r = inval.results();
    std::uint64_t perSet = 0;
    for (const std::uint64_t n : cache->setReplacements())
        perSet += n;
    EXPECT_EQ(perSet, r.dirCacheEvictions);
    EXPECT_EQ(cache->size(), r.dirCacheMisses - r.dirCacheEvictions);
    // Finite residency respected.
    EXPECT_LE(cache->size(), 64u);
}

/** reset() must clear dir-cache state so reruns are bit-identical. */
TEST(DirCacheEngine, ResetMakesRunsRepeatable)
{
    const auto workload = smallWorkload();
    const DirCacheConfig tiny = finiteConfig(64, 4, true);

    sim::Simulator simulator;
    auto &engine =
        simulator.addEngine(invalWith(workload.space.nProcesses, tiny));
    gen::WorkloadSource first(workload);
    simulator.run(first);
    const coherence::EngineResults once = engine.results();
    ASSERT_GT(once.dirCacheEvictions, 0u);

    engine.reset();
    gen::WorkloadSource second(workload);
    simulator.run(second);
    EXPECT_TRUE(engine.results() == once);
}

/**
 * The raw and prepared replay paths must agree with a finite
 * directory cache in the loop (the touch sits on the shared
 * handleRead/handleWrite path, but this pins the batch dispatch too).
 */
TEST(DirCacheEngine, PreparedReplayMatchesRaw)
{
    const auto workload = smallWorkload();
    const unsigned units = workload.space.nProcesses;
    const DirCacheConfig tiny = finiteConfig(64, 4, true);

    sim::Simulator raw;
    auto &rawEngine = raw.addEngine(invalWith(units, tiny));
    gen::WorkloadSource source(workload);
    raw.run(source);

    const std::shared_ptr<const trace::PreparedTrace> prepared =
        sim::TraceRepository::global().get(workload);
    sim::Simulator replay;
    auto &preparedEngine = replay.addEngine(invalWith(units, tiny));
    replay.run(*prepared);

    EXPECT_TRUE(preparedEngine.results() == rawEngine.results());
    EXPECT_GT(preparedEngine.results().dirCacheEvictions, 0u);
}

// --- Cost and timing plumbing ----------------------------------------

/**
 * Eviction traffic rides the invalidate/write-back terms: enabling a
 * small cache must strictly increase the static per-reference cost of
 * a directory scheme, and the timed simulator's bus-busy cycles must
 * still equal the static integer aggregate with the new terms in
 * play — the three cost sites stay in lock-step.
 */
TEST(DirCacheCost, TimedCyclesMatchStaticWithEvictions)
{
    auto workload = smallWorkload();
    workload.totalRefs = 30'000;
    const unsigned units = workload.space.nProcesses;
    const DirCacheConfig tiny = finiteConfig(64, 4, true);
    const sim::Scheme scheme = sim::Scheme::DirNNBSeq;
    const sim::CostOptions opts;

    // Static cost with and without the cache.
    sim::Simulator simulator;
    auto &plain = simulator.addEngine(invalWith(units, {}));
    auto &cached = simulator.addEngine(invalWith(units, tiny));
    gen::WorkloadSource source(workload);
    simulator.run(source);
    ASSERT_GT(cached.results().dirCacheEvictionInvals, 0u);

    const bus::BusCosts costs = bus::pipelinedBus();
    EXPECT_GT(
        sim::computeCost(scheme, cached.results(), costs, opts).total(),
        sim::computeCost(scheme, plain.results(), costs, opts).total());

    // Timed == static, integer-exactly, with eviction traffic.
    for (const auto &bus : {timing::timedPipelinedBus(),
                            timing::timedNonPipelinedBus()}) {
        timing::TimedBusConfig cfg;
        cfg.scheme = scheme;
        cfg.costOpts = opts;
        cfg.bus = bus;
        timing::TimedBusSim timed(cfg, invalWith(units, tiny));
        gen::WorkloadSource stream(workload);
        const timing::TimedRun run = timed.run(stream);

        // The timed interleaving differs from the untimed trace
        // order, so only the aggregate property is comparable: the
        // bus-busy cycles of *this run's* statistics must equal the
        // static integer model with the eviction terms included.
        ASSERT_GT(run.engine.dirCacheEvictionInvals, 0u);
        EXPECT_EQ(run.busBusyCycles,
                  timing::staticBusCycles(scheme, run.engine,
                                          bus.costs, opts));
    }
}

/** runMatrix at 4 jobs with finite dir caches stays bit-identical
 *  to serial runs (and gives TSan real shared state to chew on). */
TEST(DirCacheSweep, ParallelMatchesSerial)
{
    const DirCacheConfig tiny = finiteConfig(64, 4, true);
    std::vector<gen::WorkloadConfig> workloads =
        gen::standardWorkloads();
    for (auto &cfg : workloads)
        cfg.totalRefs = 20'000;

    // Serial reference results.
    std::vector<coherence::EngineResults> serial;
    for (const auto &cfg : workloads) {
        sim::Simulator simulator;
        auto &engine =
            simulator.addEngine(invalWith(cfg.space.nProcesses, tiny));
        gen::WorkloadSource source(cfg);
        simulator.run(source);
        serial.push_back(engine.results());
    }

    const std::vector<analysis::EngineSpec> specs = {
        {[&tiny](unsigned units) { return invalWith(units, tiny); }}};
    analysis::EvalOptions opts;
    opts.jobs = 4;
    const auto matrix = analysis::runMatrix(workloads, opts, specs);

    ASSERT_EQ(matrix.size(), workloads.size());
    for (std::size_t i = 0; i < matrix.size(); ++i) {
        ASSERT_EQ(matrix[i].size(), 1u);
        EXPECT_TRUE(matrix[i][0] == serial[i]) << workloads[i].name;
        EXPECT_GT(matrix[i][0].dirCacheEvictions, 0u);
    }
}

/**
 * The directory-cache study on short traces: every finite point
 * evicts, the unbounded point evicts nothing, the unbounded point's
 * inval and Dir1NB results are the engines run with no directory
 * cache (up to the cache's own hit/miss counters), and four jobs or
 * streamed store files return the same points as one in-memory job.
 */
TEST(DirCacheStudy, FiniteEvictsAndUnboundedIsThePaperModel)
{
    std::vector<gen::WorkloadConfig> workloads =
        gen::standardWorkloads();
    for (auto &cfg : workloads)
        cfg.totalRefs = 30'000;
    const std::vector<analysis::DirCachePoint> points =
        analysis::dirCacheStudy(workloads, {128, 0});
    const analysis::Evaluation plain =
        analysis::evaluateWorkloads(workloads);

    const auto scrub = [](coherence::EngineResults r) {
        r.dirCacheHits = 0;
        r.dirCacheMisses = 0;
        return r;
    };
    ASSERT_EQ(points.size(), 2 * workloads.size());
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const analysis::DirCachePoint &finite = points[2 * w];
        const analysis::DirCachePoint &unbounded = points[2 * w + 1];
        ASSERT_EQ(finite.entries, 128u);
        ASSERT_EQ(unbounded.entries, 0u);
        EXPECT_GT(finite.inval.dirCacheEvictions, 0u)
            << finite.workload;
        EXPECT_EQ(unbounded.inval.dirCacheEvictions, 0u)
            << unbounded.workload;
        EXPECT_TRUE(unbounded.setReplacements.empty());
        for (std::size_t i = 0; i < finite.limited.size(); ++i) {
            EXPECT_GT(finite.limited[i].dirCacheEvictions, 0u)
                << finite.workload << " " << finite.limited[i].name;
            EXPECT_EQ(unbounded.limited[i].dirCacheEvictions, 0u)
                << unbounded.workload << " "
                << unbounded.limited[i].name;
        }
        EXPECT_TRUE(scrub(unbounded.inval) == plain.traces[w].inval)
            << unbounded.workload;
        EXPECT_TRUE(scrub(unbounded.limited.front()) ==
                    plain.traces[w].dir1nb)
            << unbounded.workload;
    }

    analysis::setDefaultEvalJobs(4);
    const std::vector<analysis::DirCachePoint> parallel =
        analysis::dirCacheStudy(workloads, {128, 0});
    analysis::setDefaultEvalJobs(1);

    // Streamed from store files, as under --trace-cache-dir.
    sim::TraceRepository &repo = sim::TraceRepository::global();
    sim::DiskCacheConfig disk;
    disk.dir = testing::TempDir() + "dirsim-dir-cache-study";
    repo.setDiskCache(disk);
    analysis::setDefaultStreamReplay(true);
    const std::vector<analysis::DirCachePoint> streamed =
        analysis::dirCacheStudy(workloads, {128, 0});
    analysis::setDefaultStreamReplay(false);
    repo.setDiskCache({});
    std::filesystem::remove_all(disk.dir);

    for (const auto *other : {&parallel, &streamed}) {
        ASSERT_EQ(other->size(), points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            const analysis::DirCachePoint &p = (*other)[i];
            EXPECT_TRUE(p.inval == points[i].inval) << i;
            EXPECT_TRUE(p.limited == points[i].limited) << i;
            EXPECT_EQ(p.setReplacements, points[i].setReplacements) << i;
        }
    }
}

} // namespace
