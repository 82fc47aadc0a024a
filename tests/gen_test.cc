/**
 * @file
 * Unit tests for the synthetic workload generator: RNG, address
 * space, locks, process engine and the scheduler-driven source.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "gen/address_space.hh"
#include "gen/lock_set.hh"
#include "gen/rng.hh"
#include "gen/workload.hh"
#include "gen/workloads.hh"
#include "util/hash.hh"

namespace
{

using namespace dirsim::gen;
using dirsim::trace::TraceRecord;

TEST(Rng, DeterministicForSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    bool differed = false;
    for (int i = 0; i < 10 && !differed; ++i)
        differed = a.nextU64() != b.nextU64();
    EXPECT_TRUE(differed);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(13), 13u);
}

// The fixed-point samplers exist so the cold generate path can skip
// per-draw double arithmetic; their whole contract is draw-for-draw
// bit-identity with the Rng methods they replace.

TEST(FixedChance, MatchesRngChanceDrawForDraw)
{
    // Mid-range, tiny, near-one, and both no-draw edges.
    for (const double p : {0.0, 1e-9, 0.02, 0.31, 0.5, 0.997, 1.0}) {
        const FixedChance fast(p);
        Rng a(123);
        Rng b(123);
        for (int i = 0; i < 20000; ++i)
            ASSERT_EQ(fast(a), b.chance(p))
                << "p=" << p << " draw " << i;
        // Same decision AND same draw consumption: the streams must
        // still be in lockstep afterwards.
        EXPECT_EQ(a.nextU64(), b.nextU64()) << "p=" << p;
    }
}

TEST(FixedChance, EdgeProbabilitiesConsumeNoDraw)
{
    EXPECT_FALSE(FixedChance(0.0).draws());
    EXPECT_FALSE(FixedChance(-3.0).draws());
    EXPECT_FALSE(FixedChance(1.0).draws());
    EXPECT_FALSE(FixedChance(2.0).draws());
    EXPECT_TRUE(FixedChance(0.5).draws());
}

TEST(FixedWeighted, MatchesPickWeightedDrawForDraw)
{
    // The process engines' real 5-category shape.
    const FixedWeighted fw({0.6, 0.2, 0.1, 0.06, 0.04});
    Rng a(77);
    Rng b(77);
    for (int i = 0; i < 20000; ++i)
        ASSERT_EQ(fw(a), b.pickWeighted({0.6, 0.2, 0.1, 0.06, 0.04}))
            << "draw " << i;
    EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(FixedWeighted, EveryMantissaMatchesTheDoubleReference)
{
    // The binary-searched cuts claim exact equality with the double
    // arithmetic for EVERY 53-bit mantissa; sweep the extremes plus a
    // large random sample (a dense uniform probe of the step
    // boundaries' neighbourhoods).
    const double w[] = {0.25, 0.5, 0.25};
    const FixedWeighted fw({0.25, 0.5, 0.25});
    const std::uint64_t top = 1ULL << 53;
    EXPECT_EQ(fw.pickFromDraw(0),
              FixedWeighted::referencePick(0, w, 3));
    EXPECT_EQ(fw.pickFromDraw(top - 1),
              FixedWeighted::referencePick(top - 1, w, 3));
    Rng rng(99);
    for (int i = 0; i < 200000; ++i) {
        const std::uint64_t u = rng.nextU64() >> 11;
        ASSERT_EQ(fw.pickFromDraw(u),
                  FixedWeighted::referencePick(u, w, 3))
            << "u=" << u;
    }
}

TEST(FixedWeighted, ZeroWeightCategoriesMatchReference)
{
    // Zero-weight head and tail exercise the fallthrough paths.
    const double w[] = {0.0, 1.0, 0.0};
    const FixedWeighted fw({0.0, 1.0, 0.0});
    Rng rng(5);
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t u = rng.nextU64() >> 11;
        ASSERT_EQ(fw.pickFromDraw(u),
                  FixedWeighted::referencePick(u, w, 3));
    }
}

TEST(Rng, NextBelowCoversRange)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBelow(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextInRangeInclusive)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i) {
        const std::uint64_t v = rng.nextInRange(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(5);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, PickWeightedRespectsWeights)
{
    Rng rng(13);
    std::map<std::size_t, int> counts;
    const int trials = 30000;
    for (int i = 0; i < trials; ++i)
        ++counts[rng.pickWeighted({1.0, 3.0, 0.0})];
    EXPECT_NEAR(counts[0] / static_cast<double>(trials), 0.25, 0.02);
    EXPECT_NEAR(counts[1] / static_cast<double>(trials), 0.75, 0.02);
    EXPECT_EQ(counts[2], 0);
}

TEST(Rng, BurstLengthBounds)
{
    Rng rng(17);
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t len = rng.burstLength(0.9, 5);
        EXPECT_GE(len, 1u);
        EXPECT_LE(len, 5u);
    }
    // p = 0 always gives length 1.
    EXPECT_EQ(rng.burstLength(0.0, 5), 1u);
}

class AddressSpaceTest : public ::testing::Test
{
  protected:
    AddressSpaceConfig cfg;
    Rng rng{123};
};

TEST_F(AddressSpaceTest, RegionsAreDisjoint)
{
    const AddressSpace space(cfg);
    Rng r(1);
    // Sample many addresses from each region and verify no block
    // collides across regions.
    std::unordered_map<std::uint64_t, int> region_of_block;
    auto check = [&](std::uint64_t addr, int region) {
        const std::uint64_t block = addr / cfg.blockBytes;
        auto [it, inserted] = region_of_block.emplace(block, region);
        EXPECT_TRUE(inserted || it->second == region)
            << "block 0x" << std::hex << block
            << " shared between regions " << std::dec << it->second
            << " and " << region;
    };
    for (int i = 0; i < 2000; ++i) {
        check(space.privateAddr(0, r), 0);
        check(space.privateAddr(3, r), 1);
        check(space.sharedReadAddr(r), 2);
        check(space.sharedWriteAddr(r), 3);
        check(space.lockAddr(static_cast<std::uint32_t>(i % 4)), 4);
        check(space.protectedAddr(i % 4, r), 5);
        check(space.osSharedAddr(r), 6);
        check(space.osPerCpuAddr(0, r), 7);
        check(space.osPerCpuAddr(1, r), 8);
        check(space.migratoryAddr(i % 8, 0), 9);
    }
}

TEST_F(AddressSpaceTest, LockWordsInOwnBlocksByDefault)
{
    const AddressSpace space(cfg);
    std::set<std::uint64_t> blocks;
    for (std::uint32_t l = 0; l < 8; ++l)
        blocks.insert(space.lockAddr(l) / cfg.blockBytes);
    EXPECT_EQ(blocks.size(), 8u);
}

TEST_F(AddressSpaceTest, FalseSharingPacksTwoLocksPerBlock)
{
    cfg.falseSharingLocks = true;
    const AddressSpace space(cfg);
    EXPECT_EQ(space.lockAddr(0) / cfg.blockBytes,
              space.lockAddr(1) / cfg.blockBytes);
    EXPECT_NE(space.lockAddr(0), space.lockAddr(1));
    EXPECT_NE(space.lockAddr(0) / cfg.blockBytes,
              space.lockAddr(2) / cfg.blockBytes);
}

TEST_F(AddressSpaceTest, OwnSlotsPartitionByProducer)
{
    const AddressSpace space(cfg);
    Rng r(2);
    std::set<std::uint64_t> pid0;
    std::set<std::uint64_t> pid1;
    for (int i = 0; i < 500; ++i) {
        pid0.insert(space.sharedWriteOwnAddr(0, r));
        pid1.insert(space.sharedWriteOwnAddr(1, r));
    }
    for (std::uint64_t addr : pid0)
        EXPECT_EQ(pid1.count(addr), 0u);
}

TEST_F(AddressSpaceTest, PrivateRegionsPerProcessDisjoint)
{
    const AddressSpace space(cfg);
    Rng r(3);
    std::set<std::uint64_t> blocks0;
    for (int i = 0; i < 1000; ++i)
        blocks0.insert(space.privateAddr(0, r) / cfg.blockBytes);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(blocks0.count(space.privateAddr(1, r) /
                                cfg.blockBytes),
                  0u);
    }
}

TEST(LockSetTest, AcquireReleaseCycle)
{
    LockSet locks;
    locks.add(0x1000);
    EXPECT_FALSE(locks[0].held);
    locks.acquire(0, 3);
    EXPECT_TRUE(locks[0].held);
    EXPECT_EQ(locks[0].owner, 3);
    EXPECT_EQ(locks[0].acquisitions, 1u);
    locks.release(0);
    EXPECT_FALSE(locks[0].held);
    locks.acquire(0, 1);
    EXPECT_EQ(locks.totalAcquisitions(), 2u);
}

class WorkloadTest : public ::testing::Test
{
  protected:
    WorkloadConfig
    smallConfig()
    {
        WorkloadConfig cfg = popsConfig();
        cfg.totalRefs = 50'000;
        return cfg;
    }
};

TEST_F(WorkloadTest, ProducesExactlyTotalRefs)
{
    WorkloadSource source(smallConfig());
    TraceRecord rec;
    std::size_t count = 0;
    while (source.next(rec))
        ++count;
    EXPECT_EQ(count, 50'000u);
    EXPECT_FALSE(source.next(rec));
}

TEST_F(WorkloadTest, DeterministicForSameSeed)
{
    const WorkloadConfig cfg = smallConfig();
    WorkloadSource a(cfg);
    WorkloadSource b(cfg);
    TraceRecord ra;
    TraceRecord rb;
    while (a.next(ra)) {
        ASSERT_TRUE(b.next(rb));
        ASSERT_EQ(ra, rb);
    }
    EXPECT_FALSE(b.next(rb));
}

TEST_F(WorkloadTest, RewindReproducesStream)
{
    WorkloadSource source(smallConfig());
    std::vector<TraceRecord> first;
    TraceRecord rec;
    while (source.next(rec))
        first.push_back(rec);
    source.rewind();
    std::size_t i = 0;
    while (source.next(rec)) {
        ASSERT_LT(i, first.size());
        ASSERT_EQ(rec, first[i]);
        ++i;
    }
    EXPECT_EQ(i, first.size());
}

TEST_F(WorkloadTest, CpusRoundRobin)
{
    WorkloadConfig cfg = smallConfig();
    WorkloadSource source(cfg);
    TraceRecord rec;
    for (unsigned i = 0; i < 64; ++i) {
        ASSERT_TRUE(source.next(rec));
        EXPECT_EQ(rec.cpu, i % cfg.space.nCpus);
    }
}

TEST_F(WorkloadTest, PidsWithinProcessCount)
{
    WorkloadConfig cfg = smallConfig();
    WorkloadSource source(cfg);
    TraceRecord rec;
    while (source.next(rec))
        EXPECT_LT(rec.pid, cfg.space.nProcesses);
}

TEST_F(WorkloadTest, PinnedProcessesWithoutMigration)
{
    WorkloadConfig cfg = smallConfig();
    cfg.migrationRate = 0.0;
    WorkloadSource source(cfg);
    TraceRecord rec;
    std::map<unsigned, std::set<unsigned>> cpus_of_pid;
    while (source.next(rec))
        cpus_of_pid[rec.pid].insert(rec.cpu);
    for (const auto &[pid, cpus] : cpus_of_pid)
        EXPECT_EQ(cpus.size(), 1u) << "pid " << pid << " migrated";
}

TEST_F(WorkloadTest, MigrationMovesProcesses)
{
    WorkloadConfig cfg = smallConfig();
    cfg.totalRefs = 400'000;
    cfg.migrationRate = 0.5;
    cfg.quantumRefs = 10'000;
    WorkloadSource source(cfg);
    TraceRecord rec;
    std::map<unsigned, std::set<unsigned>> cpus_of_pid;
    while (source.next(rec))
        cpus_of_pid[rec.pid].insert(rec.cpu);
    std::size_t migrated = 0;
    for (const auto &[pid, cpus] : cpus_of_pid)
        migrated += cpus.size() > 1 ? 1 : 0;
    EXPECT_GT(migrated, 0u);
}

TEST_F(WorkloadTest, TimeSlicingWhenProcessesExceedCpus)
{
    WorkloadConfig cfg = smallConfig();
    cfg.space.nProcesses = 6;
    cfg.space.nCpus = 4;
    cfg.totalRefs = 600'000;
    cfg.quantumRefs = 20'000;
    WorkloadSource source(cfg);
    TraceRecord rec;
    std::set<unsigned> pids;
    while (source.next(rec))
        pids.insert(rec.pid);
    EXPECT_EQ(pids.size(), 6u) << "every process must get CPU time";
}

TEST_F(WorkloadTest, ManyProcessFifoOrderMatchesReferenceModel)
{
    // Regression for the ready-queue container change (vector →
    // deque): with processes outnumbering CPUs the queue is never
    // empty, the migration path never fires, and every pid the
    // source emits is predicted exactly by an independent model of
    // the FIFO time-slicer.  96 processes on 4 CPUs also makes any
    // accidental O(n) front-erase painfully visible in test runtime.
    WorkloadConfig cfg = smallConfig();
    cfg.space.nProcesses = 96;
    cfg.space.nCpus = 4;
    cfg.totalRefs = 200'000;
    cfg.quantumRefs = 37; // Odd, so expiries stagger across CPUs.

    std::vector<std::size_t> procOnCpu;
    std::deque<std::size_t> ready;
    for (unsigned c = 0; c < cfg.space.nCpus; ++c)
        procOnCpu.push_back(c);
    for (std::size_t p = cfg.space.nCpus; p < cfg.space.nProcesses;
         ++p)
        ready.push_back(p);
    std::vector<std::uint64_t> quantum(cfg.space.nCpus,
                                       cfg.quantumRefs);

    WorkloadSource source(cfg);
    TraceRecord rec;
    unsigned cpu = 0;
    while (source.next(rec)) {
        ASSERT_EQ(rec.cpu, cpu);
        ASSERT_EQ(rec.pid, procOnCpu[cpu]);
        if (--quantum[cpu] == 0) {
            quantum[cpu] = cfg.quantumRefs;
            ready.push_back(procOnCpu[cpu]);
            procOnCpu[cpu] = ready.front();
            ready.pop_front();
        }
        cpu = (cpu + 1) % cfg.space.nCpus;
    }
}

TEST_F(WorkloadTest, MetaListsAllLockAddresses)
{
    WorkloadConfig cfg = smallConfig();
    WorkloadSource source(cfg);
    EXPECT_EQ(source.meta().lockAddrs.size(), cfg.space.nLocks);
    EXPECT_EQ(source.meta().nCpus, cfg.space.nCpus);
    EXPECT_EQ(source.meta().name, cfg.name);
}

TEST_F(WorkloadTest, LockTestReadsTargetLockWords)
{
    WorkloadConfig cfg = smallConfig();
    WorkloadSource source(cfg);
    const auto lock_addrs = source.meta().lockAddrs;
    TraceRecord rec;
    std::size_t lock_tests = 0;
    while (source.next(rec)) {
        if (rec.isLockTest()) {
            EXPECT_TRUE(rec.isRead());
            EXPECT_EQ(lock_addrs.count(rec.addr), 1u);
            ++lock_tests;
        }
        if (rec.isLockWrite()) {
            EXPECT_TRUE(rec.isWrite());
            EXPECT_EQ(lock_addrs.count(rec.addr), 1u);
        }
    }
    EXPECT_GT(lock_tests, 0u);
}

TEST_F(WorkloadTest, LockWritesAlternateAcquireRelease)
{
    // Per lock address, writes must alternate: acquire (after a test
    // read observing free), then release by the same process.
    WorkloadConfig cfg = smallConfig();
    cfg.totalRefs = 200'000;
    WorkloadSource source(cfg);
    TraceRecord rec;
    std::unordered_map<std::uint64_t, int> holder; // -1 = free
    while (source.next(rec)) {
        if (!rec.isLockWrite())
            continue;
        auto [it, inserted] = holder.emplace(rec.addr, -1);
        if (it->second == -1) {
            it->second = rec.pid; // acquire
        } else {
            EXPECT_EQ(it->second, rec.pid)
                << "lock released by a non-owner";
            it->second = -1; // release
        }
    }
}

TEST_F(WorkloadTest, SystemRefsRoughlyMatchConfig)
{
    WorkloadConfig cfg = smallConfig();
    cfg.totalRefs = 200'000;
    WorkloadSource source(cfg);
    TraceRecord rec;
    std::size_t system = 0;
    std::size_t total = 0;
    while (source.next(rec)) {
        ++total;
        system += rec.isSystem() ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(system) / total,
                cfg.behavior.pSystem, 0.02);
}

TEST_F(WorkloadTest, GenerateTraceMatchesStreaming)
{
    WorkloadConfig cfg = smallConfig();
    cfg.totalRefs = 20'000;
    const auto trace = generateTrace(cfg);
    EXPECT_EQ(trace.size(), cfg.totalRefs);
    WorkloadSource source(cfg);
    TraceRecord rec;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        ASSERT_TRUE(source.next(rec));
        ASSERT_EQ(rec, trace[i]);
    }
}

/** Drain @p source with nextBatch() calls of at most @p batch
 *  records. */
std::vector<TraceRecord>
drainBatched(WorkloadSource &source, std::size_t batch)
{
    std::vector<TraceRecord> out;
    std::vector<TraceRecord> buf(batch);
    std::size_t n;
    while ((n = source.nextBatch(buf.data(), buf.size())) != 0)
        out.insert(out.end(), buf.begin(), buf.begin() + n);
    return out;
}

/**
 * nextBatch() keeps the RNG and the CPU cursor in locals and writes
 * them back at the end of a batch; next() is a batch of one.  Batches
 * of 7 and 4096 must emit next()'s records exactly, including across
 * mid-batch reschedules: time slices when processes outnumber CPUs,
 * and migrations, whose draws come from the batch's RNG, when they
 * do not.
 */
TEST_F(WorkloadTest, NextBatchMatchesNextAtEveryBatchSize)
{
    std::vector<WorkloadConfig> cfgs = standardWorkloads(false);
    cfgs.push_back(scaledConfig(64, 0));
    WorkloadConfig sliced = scaledConfig(8, 0);
    sliced.space.nProcesses = 13;
    sliced.migrationRate = 0.3;
    sliced.quantumRefs = 97;
    cfgs.push_back(sliced);
    WorkloadConfig migrating = scaledConfig(8, 30'000);
    migrating.migrationRate = 0.5;
    migrating.quantumRefs = 97;
    cfgs.push_back(migrating);
    for (WorkloadConfig &cfg : cfgs) {
        cfg.totalRefs = 30'000;
        SCOPED_TRACE(cfg.name + " processes=" +
                     std::to_string(cfg.space.nProcesses));
        WorkloadSource ref(cfg);
        std::vector<TraceRecord> want;
        TraceRecord rec;
        while (ref.next(rec))
            want.push_back(rec);
        for (const std::size_t batch : {7u, 4096u}) {
            SCOPED_TRACE("batch=" + std::to_string(batch));
            WorkloadSource source(cfg);
            EXPECT_TRUE(drainBatched(source, batch) == want);
        }
    }
    // The migrating config really does migrate within the run.
    WorkloadSource source(migrating);
    std::map<unsigned, std::set<unsigned>> cpusOfPid;
    for (const TraceRecord &r : drainBatched(source, 4096))
        cpusOfPid[r.pid].insert(r.cpu);
    EXPECT_GT(cpusOfPid[0].size(), 1u);
}

/** Fold every field of @p rec into @p hash. */
void
hashRecord(dirsim::util::StreamHash64 &hash, const TraceRecord &rec)
{
    const std::uint64_t words[2] = {
        rec.addr, std::uint64_t(rec.pid) << 24 | std::uint64_t(rec.cpu) << 16 |
                      std::uint64_t(rec.type) << 8 | rec.flags};
    hash.update(words, sizeof(words));
}

/** Small runs of the presets, a 64-CPU machine, a migrating machine
 *  and 1,200 time-sliced processes (their start pcs wrap). */
std::vector<WorkloadConfig>
pinnedStreamConfigs()
{
    std::vector<WorkloadConfig> cfgs = standardWorkloads(false);
    cfgs.push_back(scaledConfig(64, 0));
    WorkloadConfig migrating = scaledConfig(8, 0);
    migrating.name = "migrating";
    migrating.migrationRate = 0.5;
    migrating.quantumRefs = 97;
    cfgs.push_back(migrating);
    WorkloadConfig sliced = popsConfig(false);
    sliced.name = "sliced";
    sliced.space.nProcesses = 1200;
    sliced.quantumRefs = 50;
    cfgs.push_back(sliced);
    for (WorkloadConfig &cfg : cfgs)
        cfg.totalRefs = 100'000;
    return cfgs;
}

/**
 * The generator's whole output, instruction addresses included (no
 * coherence golden sees those: engines only count fetches), matches
 * digests recorded before the batch loop and the wrapping fetch
 * walker went in; next() and generateTrace's batches both.
 */
TEST_F(WorkloadTest, RecordStreamsMatchRecordedDigests)
{
    const std::vector<std::uint64_t> recorded = {
        0x3640dcf3b72073a7ULL, 0x7521e83c30b63ce8ULL,
        0x8a69c70c5d6ff7cdULL, 0x11ffbb854f898b9aULL,
        0x937713b2cba98b22ULL, 0xc8c21341cd3830dfULL};
    const std::vector<WorkloadConfig> cfgs = pinnedStreamConfigs();
    ASSERT_EQ(cfgs.size(), recorded.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        SCOPED_TRACE(cfgs[i].name);
        WorkloadSource source(cfgs[i]);
        dirsim::util::StreamHash64 streamed;
        TraceRecord rec;
        while (source.next(rec))
            hashRecord(streamed, rec);
        EXPECT_EQ(streamed.value(), recorded[i]);
        dirsim::util::StreamHash64 batched;
        const dirsim::trace::MemoryTrace trace = generateTrace(cfgs[i]);
        for (const TraceRecord &r : trace.records())
            hashRecord(batched, r);
        EXPECT_EQ(batched.value(), recorded[i]);
    }
}

/** Expect @p cfg rejected with an error naming @p field. */
void
expectRejected(const WorkloadConfig &cfg, const std::string &field)
{
    SCOPED_TRACE(field);
    EXPECT_THROW(WorkloadSource{cfg}, std::invalid_argument);
    try {
        WorkloadSource source(cfg);
    } catch (const std::invalid_argument &err) {
        EXPECT_NE(std::string(err.what()).find(field), std::string::npos)
            << err.what();
    }
}

/** Configs the generator cannot run throw in every build type, where
 *  they used to index out of bounds, divide by zero or wrap a
 *  record's cpu or pid. */
TEST_F(WorkloadTest, RejectsConfigsTheGeneratorCannotRun)
{
    const WorkloadConfig base = smallConfig();
    WorkloadConfig cfg = base;
    cfg.space.nCpus = 0;
    expectRejected(cfg, "space.nCpus");
    cfg = base;
    cfg.space.nCpus = cfg.space.nProcesses + 1;
    expectRejected(cfg, "space.nCpus");
    cfg = base;
    cfg.space.nCpus = cfg.space.nProcesses = 257;
    expectRejected(cfg, "space.nCpus");
    cfg = base;
    cfg.space.nProcesses = 65537;
    expectRejected(cfg, "space.nProcesses");
    cfg = base;
    cfg.space.codeBlocksPerProc = 0;
    expectRejected(cfg, "space.codeBlocksPerProc");
    cfg = base;
    cfg.space.wordBytes = 0;
    expectRejected(cfg, "space.wordBytes");
    cfg = base;
    cfg.space.blocksPerMigratoryObject = 0;
    expectRejected(cfg, "space.blocksPerMigratoryObject");
    cfg = base;
    cfg.space.sharedWriteBlocks = 0;
    expectRejected(cfg, "behavior.wSharedWrite");
    cfg = base;
    cfg.space.migratoryObjects = 0;
    expectRejected(cfg, "behavior.wMigratory");
    cfg = base;
    cfg.space.nLocks = 0;
    expectRejected(cfg, "behavior.wLockAttempt");

    // An empty region is fine when its weight is zero.
    cfg = base;
    cfg.space.nLocks = 0;
    cfg.behavior.wLockAttempt = 0.0;
    WorkloadSource source(cfg);
    EXPECT_EQ(drainBatched(source, 4096).size(), cfg.totalRefs);
}

TEST(WorkloadPresets, DistinctSeedsAndNames)
{
    const auto workloads = standardWorkloads();
    ASSERT_EQ(workloads.size(), 3u);
    std::set<std::string> names;
    std::set<std::uint64_t> seeds;
    for (const auto &cfg : workloads) {
        names.insert(cfg.name);
        seeds.insert(cfg.seed);
    }
    EXPECT_EQ(names.size(), 3u);
    EXPECT_EQ(seeds.size(), 3u);
}

TEST(WorkloadPresets, FullSizeMatchesPaperRefCounts)
{
    EXPECT_EQ(popsConfig(true).totalRefs, 3'142'000u);
    EXPECT_EQ(thorConfig(true).totalRefs, 3'222'000u);
    EXPECT_EQ(peroConfig(true).totalRefs, 3'508'000u);
}

TEST(WorkloadPresets, ScaledConfigGrowsSharedState)
{
    const auto small = scaledConfig(4, 100'000);
    const auto large = scaledConfig(32, 100'000);
    EXPECT_EQ(large.space.nCpus, 32u);
    EXPECT_GT(large.space.sharedReadBlocks,
              small.space.sharedReadBlocks);
    EXPECT_GT(large.space.migratoryObjects,
              small.space.migratoryObjects);
}

TEST(WorkloadPresets, ScaledConfigRunsAtManyCpuCounts)
{
    for (unsigned n : {1u, 2u, 8u, 16u}) {
        WorkloadConfig cfg = scaledConfig(n, 5'000);
        WorkloadSource source(cfg);
        TraceRecord rec;
        std::size_t count = 0;
        while (source.next(rec)) {
            EXPECT_LT(rec.cpu, n);
            ++count;
        }
        EXPECT_EQ(count, 5'000u);
    }
}

} // namespace

namespace
{

using dirsim::trace::RefType;

/** Direct ProcessEngine behaviour tests. */
class ProcessEngineTest : public ::testing::Test
{
  protected:
    ProcessEngineTest()
        : space(makeSpaceConfig()), rng(42)
    {
        for (std::uint32_t l = 0; l < 4; ++l)
            shared.locks.add(space.lockAddr(l));
        shared.migratoryOwner.assign(16, 0xffff);
    }

    static AddressSpaceConfig
    makeSpaceConfig()
    {
        AddressSpaceConfig cfg;
        cfg.nLocks = 4;
        cfg.migratoryObjects = 16;
        return cfg;
    }

    AddressSpace space;
    SharedState shared;
    Rng rng;
    BehaviorConfig behavior;
};

TEST_F(ProcessEngineTest, EmitsTaggedRecords)
{
    BehaviorSamplers samplers(behavior);
    ProcessEngine proc(3, behavior, samplers, space, shared);
    for (int i = 0; i < 2000; ++i) {
        const auto rec = proc.step(1, rng);
        EXPECT_EQ(rec.pid, 3);
        EXPECT_EQ(rec.cpu, 1);
    }
}

TEST_F(ProcessEngineTest, InstructionFractionTracksConfig)
{
    behavior.pInstr = 0.7;
    behavior.pSystem = 0.0;
    behavior.wLockAttempt = 0.0; // no spin loops to skew the mix
    BehaviorSamplers samplers(behavior);
    ProcessEngine proc(0, behavior, samplers, space, shared);
    int instr = 0;
    const int steps = 30'000;
    for (int i = 0; i < steps; ++i)
        instr += proc.step(0, rng).isInstr() ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(instr) / steps, 0.7, 0.03);
}

TEST_F(ProcessEngineTest, MigratoryReadsAreFollowedByWrites)
{
    // Force migratory-only data behaviour and verify the
    // read-modify-write pattern: every migratory block read is
    // followed by at least one write to the same block.
    behavior.pInstr = 0.0;
    behavior.pSystem = 0.0;
    behavior.wPrivate = 0.0;
    behavior.wSharedRead = 0.0;
    behavior.wSharedWrite = 0.0;
    behavior.wMigratory = 1.0;
    behavior.wLockAttempt = 0.0;
    BehaviorSamplers samplers(behavior);
    ProcessEngine proc(0, behavior, samplers, space, shared);
    std::uint64_t last_read_block = 0;
    bool awaiting_write = false;
    int writes_seen = 0;
    for (int i = 0; i < 4000; ++i) {
        const auto rec = proc.step(0, rng);
        if (rec.isRead()) {
            last_read_block = rec.addr / 16;
            awaiting_write = true;
        } else if (awaiting_write && rec.isWrite()) {
            // The write burst targets the read block (or the
            // object's second block).
            const std::uint64_t wb = rec.addr / 16;
            EXPECT_LE(wb - last_read_block, 1u);
            ++writes_seen;
            awaiting_write = false;
        }
    }
    EXPECT_GT(writes_seen, 100);
}

TEST_F(ProcessEngineTest, SpinningHoldsUntilLockFrees)
{
    behavior.pInstr = 0.0;
    behavior.pSystem = 0.0;
    behavior.wPrivate = 0.0;
    behavior.wSharedRead = 0.0;
    behavior.wSharedWrite = 0.0;
    behavior.wMigratory = 0.0;
    behavior.wLockAttempt = 1.0;
    behavior.pSpinInstr = 0.0;
    behavior.nHotLocks = 1;
    behavior.hotLockFrac = 1.0;

    // Hold lock 0 on behalf of a phantom process.
    shared.locks.acquire(0, 99);

    BehaviorSamplers samplers(behavior);
    ProcessEngine proc(0, behavior, samplers, space, shared);
    // First step initiates the attempt; afterwards the process spins.
    for (int i = 0; i < 50; ++i) {
        const auto rec = proc.step(0, rng);
        EXPECT_TRUE(rec.isRead());
        EXPECT_TRUE(rec.isLockTest());
        EXPECT_EQ(rec.addr, shared.locks[0].addr);
    }
    EXPECT_TRUE(proc.spinning());

    // Release: the spinner observes free, then test-and-sets.
    shared.locks.release(0);
    const auto observe = proc.step(0, rng);
    EXPECT_TRUE(observe.isLockTest());
    const auto tset = proc.step(0, rng);
    EXPECT_TRUE(tset.isWrite());
    EXPECT_TRUE(tset.isLockWrite());
    EXPECT_TRUE(shared.locks[0].held);
    EXPECT_EQ(shared.locks[0].owner, 0);
    EXPECT_FALSE(proc.spinning());
}

TEST_F(ProcessEngineTest, CriticalSectionEndsWithRelease)
{
    behavior.pInstr = 0.0;
    behavior.pSystem = 0.0;
    behavior.wLockAttempt = 1.0;
    behavior.wPrivate = 0.0;
    behavior.wSharedRead = 0.0;
    behavior.wSharedWrite = 0.0;
    behavior.wMigratory = 0.0;
    behavior.nHotLocks = 1;
    behavior.hotLockFrac = 1.0;
    behavior.critMin = 5;
    behavior.critMax = 5;
    BehaviorSamplers samplers(behavior);
    ProcessEngine proc(0, behavior, samplers, space, shared);

    // Acquire: test read then test-and-set write.
    EXPECT_TRUE(proc.step(0, rng).isLockTest());
    EXPECT_TRUE(proc.step(0, rng).isLockWrite());
    ASSERT_TRUE(shared.locks[0].held);
    // Five critical-section references, then the release write.
    for (int i = 0; i < 5; ++i) {
        const auto rec = proc.step(0, rng);
        EXPECT_FALSE(rec.isLockWrite());
    }
    const auto release = proc.step(0, rng);
    EXPECT_TRUE(release.isLockWrite());
    EXPECT_FALSE(shared.locks[0].held);
}

TEST_F(ProcessEngineTest, RacingSpinnersNeverDoubleAcquire)
{
    behavior.pInstr = 0.0;
    behavior.pSystem = 0.0;
    behavior.wLockAttempt = 1.0;
    behavior.wPrivate = 0.0;
    behavior.wSharedRead = 0.0;
    behavior.wSharedWrite = 0.0;
    behavior.wMigratory = 0.0;
    behavior.pSpinInstr = 0.0;
    behavior.nHotLocks = 1;
    behavior.hotLockFrac = 1.0;
    behavior.critMin = 3;
    behavior.critMax = 9;
    BehaviorSamplers samplers(behavior);
    ProcessEngine a(0, behavior, samplers, space, shared);
    ProcessEngine b(1, behavior, samplers, space, shared);
    for (int i = 0; i < 20'000; ++i) {
        a.step(0, rng);
        b.step(1, rng);
        // The LockSet asserts on double acquire/release internally;
        // also check owner consistency from outside.
        if (shared.locks[0].held) {
            EXPECT_LT(shared.locks[0].owner, 2);
        }
    }
    EXPECT_GT(shared.locks.totalAcquisitions(), 100u);
}

} // namespace
