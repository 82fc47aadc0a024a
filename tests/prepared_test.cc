/**
 * @file
 * Tests for the decode-once prepared-trace pipeline (PR 5): the SoA
 * decode itself, its width validation, the parallel chunk builder's
 * determinism, and the memoizing sim::TraceRepository.
 *
 * The companion suites cover the replay side: golden_test.cc pins the
 * prepared path to the seed digests for every scheme × workload, and
 * timing_test.cc holds the prepared timed-bus replay identical to the
 * raw demux path.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "coherence/berkeley_engine.hh"
#include "coherence/dragon_engine.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "coherence/multi_limited_engine.hh"
#include "coherence/wti_engine.hh"
#include "gen/workload.hh"
#include "gen/workloads.hh"
#include "sim/simulator.hh"
#include "sim/trace_repo.hh"
#include "trace/prepared.hh"
#include "trace/trace.hh"

namespace
{

using namespace dirsim;

trace::TraceRecord
rec(std::uint8_t cpu, std::uint16_t pid, trace::RefType type,
    std::uint64_t addr, std::uint8_t flags = trace::FlagNone)
{
    trace::TraceRecord r;
    r.cpu = cpu;
    r.pid = pid;
    r.type = type;
    r.addr = addr;
    r.flags = flags;
    return r;
}

gen::WorkloadConfig
smallWorkload()
{
    auto cfg = gen::standardWorkloads()[0];
    cfg.totalRefs = 30'000;
    return cfg;
}

TEST(PreparedTraceTest, DecodeMatchesManualExpectation)
{
    trace::MemoryTrace raw;
    raw.meta().name = "manual";
    // pid 7 first, then pid 3: first-seen order numbers 7 -> unit 0,
    // 3 -> unit 1, exactly as sim::Simulator's raw run would.
    raw.append(rec(0, 7, trace::RefType::Instr, 0x1000));
    raw.append(rec(0, 7, trace::RefType::Read, 0x100));
    raw.append(rec(1, 3, trace::RefType::Write, 0x234,
                   trace::FlagSystem));
    raw.append(rec(0, 7, trace::RefType::Instr, 0x1010));
    raw.append(rec(1, 3, trace::RefType::Read, 0x100));

    const trace::PreparedTrace prepared =
        trace::PreparedTrace::build(raw);

    EXPECT_EQ(prepared.name(), "manual");
    EXPECT_EQ(prepared.totalRefs(), 5u);
    EXPECT_EQ(prepared.instrRefs(), 2u);
    ASSERT_EQ(prepared.dataRefs(), 3u);
    EXPECT_EQ(prepared.numUnits(), 2u);
    EXPECT_EQ(prepared.numCpus(), 2u);
    EXPECT_FALSE(prepared.hasTimedStreams());

    // Data columns keep the interleaved order with instrs stripped;
    // blocks are dense first-touch ids whose names are the 16-byte-
    // block indices of the addresses (instruction blocks take none).
    const std::uint32_t *block = prepared.blockData();
    const std::uint8_t *unit = prepared.unitData();
    const std::uint8_t *tf = prepared.typeFlagsData();
    ASSERT_EQ(prepared.numBlocks(), 2u);
    const mem::BlockNames names = prepared.blockNames();
    EXPECT_EQ(block[0], 0u);
    EXPECT_EQ(names[block[0]], 0x100u >> 4);
    EXPECT_EQ(unit[0], 0u);
    EXPECT_EQ(trace::packedRefType(tf[0]), trace::RefType::Read);
    EXPECT_EQ(block[1], 1u);
    EXPECT_EQ(names[block[1]], 0x234u >> 4);
    EXPECT_EQ(unit[1], 1u);
    EXPECT_EQ(trace::packedRefType(tf[1]), trace::RefType::Write);
    EXPECT_EQ(trace::packedFlags(tf[1]), trace::FlagSystem);
    EXPECT_EQ(block[2], 0u);
    EXPECT_EQ(unit[2], 1u);

    EXPECT_GT(prepared.byteSize(), 0u);
}

TEST(PreparedTraceTest, ProcessorDomainUsesCpuIds)
{
    trace::MemoryTrace raw;
    raw.append(rec(2, 7, trace::RefType::Read, 0x100));
    raw.append(rec(5, 7, trace::RefType::Read, 0x200));

    trace::PrepareOptions opts;
    opts.domain = sim::SharingDomain::Processor;
    const trace::PreparedTrace prepared =
        trace::PreparedTrace::build(raw, opts);
    // Two CPUs sharing one pid: the Processor domain sees two units.
    EXPECT_EQ(prepared.numUnits(), 2u);
    EXPECT_EQ(prepared.unitData()[0], 0u);
    EXPECT_EQ(prepared.unitData()[1], 1u);
}

TEST(PreparedTraceTest, DropLockTestsFiltersBeforeNumbering)
{
    trace::MemoryTrace raw;
    // The only reference from pid 9 is a lock test; once filtered,
    // pid 4 must take unit 0 — the numbering runs over the filtered
    // stream, as the raw ReplaySource path does.
    raw.append(rec(0, 9, trace::RefType::Read, 0x100,
                   trace::FlagLockTest));
    raw.append(rec(0, 4, trace::RefType::Read, 0x200));
    raw.append(rec(0, 9, trace::RefType::Instr, 0x1000,
                   trace::FlagLockTest));

    trace::PrepareOptions opts;
    opts.dropLockTests = true;
    const trace::PreparedTrace prepared =
        trace::PreparedTrace::build(raw, opts);
    EXPECT_EQ(prepared.totalRefs(), 1u);
    EXPECT_EQ(prepared.instrRefs(), 0u);
    ASSERT_EQ(prepared.dataRefs(), 1u);
    EXPECT_EQ(prepared.numUnits(), 1u);
    EXPECT_EQ(prepared.unitData()[0], 0u);
    // Block numbering also runs over the filtered stream.
    ASSERT_EQ(prepared.numBlocks(), 1u);
    EXPECT_EQ(prepared.blockData()[0], 0u);
    EXPECT_EQ(prepared.blockNames()[0], 0x200u >> 4);
}

TEST(PreparedTraceTest, RejectsTracesExceedingColumnWidths)
{
    // 257 distinct processes overflow the 8-bit unit column.
    trace::MemoryTrace units;
    for (unsigned pid = 0; pid < 257; ++pid)
        units.append(rec(0, static_cast<std::uint16_t>(pid),
                         trace::RefType::Read, 0x100));
    EXPECT_THROW(trace::PreparedTrace::build(units),
                 std::invalid_argument);

    // A block index past 32 bits overflows the block column.
    trace::MemoryTrace blocks;
    blocks.append(rec(0, 0, trace::RefType::Read,
                      std::uint64_t{1} << 40));
    EXPECT_THROW(trace::PreparedTrace::build(blocks),
                 std::invalid_argument);
    // The same address is fine with a block size that shifts it back
    // under the limit... at 256-byte blocks 2^40 >> 8 = 2^32 is still
    // one past the last representable index, so it must still throw.
    trace::PrepareOptions opts;
    opts.blockBytes = 256;
    EXPECT_THROW(trace::PreparedTrace::build(blocks, opts),
                 std::invalid_argument);
}

TEST(PreparedTraceTest, TimedStreamsSplitPerCpu)
{
    trace::MemoryTrace raw;
    raw.append(rec(1, 0, trace::RefType::Instr, 0x1000));
    raw.append(rec(1, 0, trace::RefType::Read, 0x100));
    raw.append(rec(0, 1, trace::RefType::Write, 0x200));

    trace::PrepareOptions opts;
    opts.timedStreams = true;
    const trace::PreparedTrace prepared =
        trace::PreparedTrace::build(raw, opts);
    ASSERT_TRUE(prepared.hasTimedStreams());
    const auto &streams = prepared.cpuStreams();
    // Dense first-seen CPU order: cpu 1 -> stream 0, cpu 0 -> stream 1.
    ASSERT_EQ(streams.size(), 2u);
    // Unlike the data columns, timed streams keep instruction
    // fetches: the bus model charges CPU cycles per reference.
    ASSERT_EQ(streams[0].size(), 2u);
    EXPECT_EQ(trace::packedRefType(streams[0].typeFlags[0]),
              trace::RefType::Instr);
    EXPECT_EQ(trace::packedRefType(streams[0].typeFlags[1]),
              trace::RefType::Read);
    // Data entries share the interleaved columns' dense ids;
    // instruction entries carry block 0.
    EXPECT_EQ(streams[0].block[0], 0u);
    EXPECT_EQ(streams[0].block[1], 0u);
    ASSERT_EQ(streams[1].size(), 1u);
    EXPECT_EQ(streams[1].block[0], 1u);
    ASSERT_EQ(prepared.numBlocks(), 2u);
    EXPECT_EQ(prepared.blockNames()[0], 0x100u >> 4);
    EXPECT_EQ(prepared.blockNames()[1], 0x200u >> 4);
}

/**
 * The block column is the first-touch numbering of the kept data
 * records: ids appear in increasing order of first use, and each id's
 * name is the record's raw block index.
 */
TEST(PreparedTraceTest, BlockNamesAreTheKeptRecordsRawBlocks)
{
    for (auto cfg : gen::standardWorkloads()) {
        cfg.totalRefs = 20'000;
        const trace::MemoryTrace raw = gen::generateTrace(cfg);
        for (const bool drop : {false, true}) {
            SCOPED_TRACE(cfg.name + " drop=" + std::to_string(drop));
            trace::PrepareOptions opts;
            opts.dropLockTests = drop;
            const trace::PreparedTrace prepared =
                trace::PreparedTrace::build(raw, opts);
            const mem::BlockNames names = prepared.blockNames();
            const mem::BlockMapper toBlock(opts.blockBytes);
            std::size_t i = 0;
            std::uint64_t nextId = 0;
            for (const trace::TraceRecord &rec : raw.records()) {
                if ((drop && rec.isLockTest()) || rec.isInstr())
                    continue;
                ASSERT_LT(i, prepared.dataRefs());
                const std::uint32_t id = prepared.blockData()[i++];
                ASSERT_LE(id, nextId) << "ids must be first-touch";
                if (id == nextId)
                    ++nextId;
                ASSERT_EQ(names[id], toBlock(rec.addr)) << "ref " << i;
            }
            EXPECT_EQ(i, prepared.dataRefs());
            EXPECT_EQ(nextId, prepared.numBlocks());
        }
    }
}

/** After a full replay every engine kind has seen every block. */
TEST(PreparedTraceTest, EveryEngineTracksEveryBlock)
{
    const auto cfg = smallWorkload();
    const trace::PreparedTrace prepared =
        trace::PreparedTrace::build(gen::generateTrace(cfg));
    ASSERT_GT(prepared.numBlocks(), 0u);
    const unsigned units = cfg.space.nProcesses;
    directory::DirCacheConfig dirCache;
    dirCache.enabled = true;
    dirCache.entries = 256;
    const std::vector<std::pair<
        std::string,
        std::function<std::unique_ptr<coherence::CoherenceEngine>()>>>
        kinds = {
            {"inval",
             [&] {
                 coherence::InvalEngineConfig c;
                 c.nUnits = units;
                 return std::make_unique<coherence::InvalEngine>(c);
             }},
            {"inval behind a directory cache",
             [&] {
                 coherence::InvalEngineConfig c;
                 c.nUnits = units;
                 c.dirCache = dirCache;
                 return std::make_unique<coherence::InvalEngine>(c);
             }},
            {"dir1nb",
             [&] {
                 return std::make_unique<coherence::LimitedEngine>(units,
                                                                   1);
             }},
            {"dirinb lanes",
             [&] {
                 return std::make_unique<coherence::MultiLimitedEngine>(
                     units, std::vector<unsigned>{1, 2, 4, 8});
             }},
            {"dragon",
             [&] {
                 return std::make_unique<coherence::DragonEngine>(units);
             }},
            {"berkeley",
             [&] {
                 return std::make_unique<coherence::BerkeleyEngine>(
                     units);
             }},
            {"wti",
             [&] {
                 return std::make_unique<coherence::WtiEngine>(units,
                                                               true);
             }},
            {"wti no-allocate",
             [&] {
                 return std::make_unique<coherence::WtiEngine>(units,
                                                               false);
             }},
        };
    for (const auto &[label, make] : kinds) {
        sim::Simulator simulator;
        coherence::CoherenceEngine &engine =
            simulator.addEngine(make());
        simulator.run(prepared);
        EXPECT_EQ(engine.blocksTracked(), prepared.numBlocks()) << label;
    }
}

/** Simulator::run(prepared) equals the raw streaming run. */
TEST(PreparedTraceTest, SimulatorReplayMatchesRawRun)
{
    const auto cfg = smallWorkload();
    const trace::MemoryTrace raw = gen::generateTrace(cfg);

    const auto makeEngine = [&cfg] {
        coherence::InvalEngineConfig ecfg;
        ecfg.nUnits = cfg.space.nProcesses;
        return std::make_unique<coherence::InvalEngine>(ecfg);
    };
    sim::Simulator rawSim;
    coherence::CoherenceEngine &rawEngine =
        rawSim.addEngine(makeEngine());
    trace::MemoryTraceSource source(raw);
    const std::uint64_t rawRefs = rawSim.run(source);

    sim::Simulator prepSim;
    coherence::CoherenceEngine &prepEngine =
        prepSim.addEngine(makeEngine());
    const std::uint64_t prepRefs =
        prepSim.run(trace::PreparedTrace::build(raw));

    EXPECT_EQ(rawRefs, prepRefs);
    EXPECT_TRUE(rawEngine.results() == prepEngine.results());
}

// --- TraceRepository -------------------------------------------------

TEST(TraceRepositoryTest, ConcurrentSameConfigBuildsExactlyOnce)
{
    sim::TraceRepository repo(2);
    const auto cfg = smallWorkload();

    std::vector<std::shared_ptr<const trace::PreparedTrace>> results(
        8);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < results.size(); ++t)
        threads.emplace_back([&repo, &results, &cfg, t] {
            results[t] = repo.get(cfg);
        });
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(repo.buildCount(), 1u);
    EXPECT_EQ(repo.size(), 1u);
    for (const auto &result : results) {
        ASSERT_NE(result, nullptr);
        // One shared immutable object, not eight copies.
        EXPECT_EQ(result.get(), results[0].get());
    }
    EXPECT_EQ(results[0]->totalRefs(), cfg.totalRefs);

    // A later hit still does not rebuild; clear() drops the entry
    // without invalidating outstanding pointers.
    repo.get(cfg);
    EXPECT_EQ(repo.buildCount(), 1u);
    repo.clear();
    EXPECT_EQ(repo.size(), 0u);
    EXPECT_EQ(results[0]->totalRefs(), cfg.totalRefs);
    repo.get(cfg);
    EXPECT_EQ(repo.buildCount(), 2u);
}

TEST(TraceRepositoryTest, DistinctConfigsGetDistinctEntries)
{
    sim::TraceRepository repo(1);
    auto cfg = smallWorkload();
    const auto a = repo.get(cfg);
    cfg.seed ^= 1;
    const auto b = repo.get(cfg);
    EXPECT_EQ(repo.buildCount(), 2u);
    EXPECT_NE(a.get(), b.get());

    // Same workload, different decode parameters: also distinct.
    trace::PrepareOptions opts;
    opts.dropLockTests = true;
    repo.get(cfg, opts);
    EXPECT_EQ(repo.buildCount(), 3u);
}

TEST(TraceRepositoryTest, CacheKeyCoversEveryParameter)
{
    const auto base = smallWorkload();
    const trace::PrepareOptions opts;
    const std::string key = sim::TraceRepository::cacheKey(base, opts);

    auto seed = base;
    seed.seed ^= 1;
    EXPECT_NE(sim::TraceRepository::cacheKey(seed, opts), key);

    auto refs = base;
    refs.totalRefs += 1;
    EXPECT_NE(sim::TraceRepository::cacheKey(refs, opts), key);

    auto quantum = base;
    quantum.quantumRefs += 1;
    EXPECT_NE(sim::TraceRepository::cacheKey(quantum, opts), key);

    auto migration = base;
    migration.migrationRate += 0.125;
    EXPECT_NE(sim::TraceRepository::cacheKey(migration, opts), key);

    auto space = base;
    space.space.nProcesses += 1;
    EXPECT_NE(sim::TraceRepository::cacheKey(space, opts), key);

    auto behavior = base;
    behavior.behavior.pInstr += 0.0625;
    EXPECT_NE(sim::TraceRepository::cacheKey(behavior, opts), key);

    trace::PrepareOptions block;
    block.blockBytes = 64;
    EXPECT_NE(sim::TraceRepository::cacheKey(base, block), key);

    trace::PrepareOptions domain;
    domain.domain = sim::SharingDomain::Processor;
    EXPECT_NE(sim::TraceRepository::cacheKey(base, domain), key);

    trace::PrepareOptions timed;
    timed.timedStreams = true;
    EXPECT_NE(sim::TraceRepository::cacheKey(base, timed), key);

    // And the key is a pure function of its inputs.
    EXPECT_EQ(sim::TraceRepository::cacheKey(base, opts), key);
}

TEST(TraceRepositoryTest, BuildFailuresPropagateAndAreNotCached)
{
    sim::TraceRepository repo(1);
    // 300 processes overflow the prepared 8-bit unit column, so the
    // build itself throws.  A one-reference quantum churns through
    // enough of them for the planning scan to see more than 256.
    auto cfg = smallWorkload();
    cfg.totalRefs = 5'000;
    cfg.space.nProcesses = 300;
    cfg.quantumRefs = 1;
    EXPECT_THROW(repo.get(cfg), std::invalid_argument);
    EXPECT_EQ(repo.size(), 0u);
    // Not cached: a retry attempts a fresh build.
    EXPECT_THROW(repo.get(cfg), std::invalid_argument);
    EXPECT_EQ(repo.buildCount(), 2u);
}

} // namespace
