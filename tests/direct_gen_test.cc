/**
 * @file
 * Differential suite for the single-pass direct generate→prepare
 * pipeline (gen/direct_prepare.hh).
 *
 * The pipeline's whole contract is bit-identity: whatever chunk size,
 * pipelining mode, filter, sharing domain, or output sink, the
 * columns (and the store-file bytes) must match the legacy
 * generateTrace + two-phase PreparedTraceBuilder path exactly.  Every
 * test here builds both sides from the same WorkloadConfig and
 * compares column-for-column (or byte-for-byte for spilled files).
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/direct_prepare.hh"
#include "gen/workload.hh"
#include "gen/workloads.hh"
#include "sim/trace_repo.hh"
#include "trace/prepared.hh"
#include "trace/store.hh"

namespace
{

using namespace dirsim;

/** The three standard workloads shrunk for test runtime. */
std::vector<gen::WorkloadConfig>
smallWorkloads(std::uint64_t refs = 40000)
{
    auto cfgs = gen::standardWorkloads(false);
    for (auto &cfg : cfgs)
        cfg.totalRefs = refs;
    return cfgs;
}

/** Legacy reference: materialise a MemoryTrace, two-phase decode. */
trace::PreparedTrace
legacyPrepared(const gen::WorkloadConfig &cfg,
               const trace::PrepareOptions &opts)
{
    return trace::PreparedTrace::build(gen::generateTrace(cfg), opts);
}

void
expectSameColumns(const trace::PreparedTrace &direct,
                  const trace::PreparedTrace &legacy)
{
    ASSERT_EQ(direct.dataRefs(), legacy.dataRefs());
    EXPECT_EQ(direct.instrRefs(), legacy.instrRefs());
    EXPECT_EQ(direct.numUnits(), legacy.numUnits());
    EXPECT_EQ(direct.numCpus(), legacy.numCpus());
    EXPECT_TRUE(std::ranges::equal(direct.blockNames(),
                                   legacy.blockNames()))
        << "block names differ";
    const std::size_t n = legacy.dataRefs();
    if (n == 0)
        return;
    EXPECT_EQ(std::memcmp(direct.blockData(), legacy.blockData(),
                          n * sizeof(std::uint32_t)),
              0);
    EXPECT_EQ(std::memcmp(direct.unitData(), legacy.unitData(), n), 0);
    EXPECT_EQ(std::memcmp(direct.typeFlagsData(),
                          legacy.typeFlagsData(), n),
              0);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** Unique scratch path under the build dir's test temp. */
std::string
tmpPath(const std::string &stem)
{
    const auto dir =
        std::filesystem::temp_directory_path() / "dirsim_direct_gen";
    std::filesystem::create_directories(dir);
    return (dir / stem).string();
}

TEST(DirectGen, MatchesLegacyForEveryStandardWorkload)
{
    for (const auto &cfg : smallWorkloads()) {
        SCOPED_TRACE(cfg.name);
        const trace::PrepareOptions opts;
        expectSameColumns(gen::generatePrepared(cfg, opts),
                          legacyPrepared(cfg, opts));
    }
}

TEST(DirectGen, ChunkSizeAndPipeliningAreInvisible)
{
    const auto cfg = smallWorkloads()[0];
    const trace::PrepareOptions opts;
    const auto legacy = legacyPrepared(cfg, opts);
    // Degenerate (1), odd (4097, no alignment with any internal
    // boundary), and the default production size.
    for (const std::uint64_t chunk :
         {std::uint64_t(1), std::uint64_t(4097),
          std::uint64_t(64 * 1024)}) {
        for (const bool pipeline : {false, true}) {
            SCOPED_TRACE("chunk=" + std::to_string(chunk) +
                         " pipeline=" + std::to_string(pipeline));
            gen::DirectGenConfig dg;
            dg.chunkRefs = chunk;
            dg.pipeline = pipeline;
            expectSameColumns(gen::generatePrepared(cfg, opts, dg),
                              legacy);
        }
    }
}

TEST(DirectGen, FilterAndSharingDomainMatchLegacy)
{
    const auto cfg = smallWorkloads()[1];
    for (const bool drop : {false, true}) {
        for (const auto domain :
             {sim::SharingDomain::Process,
              sim::SharingDomain::Processor}) {
            SCOPED_TRACE("drop=" + std::to_string(drop) +
                         " domain=" +
                         std::to_string(static_cast<int>(domain)));
            trace::PrepareOptions opts;
            opts.dropLockTests = drop;
            opts.domain = domain;
            expectSameColumns(gen::generatePrepared(cfg, opts),
                              legacyPrepared(cfg, opts));
        }
    }
}

TEST(DirectGen, TimedStreamsFallsBackToTwoPhase)
{
    const auto cfg = smallWorkloads(20000)[0];
    trace::PrepareOptions opts;
    opts.timedStreams = true;
    const auto direct = gen::generatePrepared(cfg, opts);
    const auto legacy = legacyPrepared(cfg, opts);
    expectSameColumns(direct, legacy);
    ASSERT_TRUE(direct.hasTimedStreams());
    ASSERT_EQ(direct.cpuStreams().size(), legacy.cpuStreams().size());
    for (std::size_t c = 0; c < legacy.cpuStreams().size(); ++c) {
        const auto &d = direct.cpuStreams()[c];
        const auto &l = legacy.cpuStreams()[c];
        ASSERT_EQ(d.block.size(), l.block.size());
        EXPECT_EQ(std::memcmp(d.block.data(), l.block.data(),
                              l.block.size() * sizeof(std::uint32_t)),
                  0);
    }
}

TEST(DirectGen, SpillIsByteIdenticalToSpillFromSource)
{
    const auto cfg = smallWorkloads(30000)[2];
    const trace::PrepareOptions opts;
    // Store chunks deliberately misaligned with the pipeline's
    // generation chunks so writer-side re-chunking is exercised.
    trace::StoreWriteOptions store;
    store.chunkRefs = 1000;

    const std::string refPath = tmpPath("spill_ref.dst");
    gen::WorkloadSource source(cfg);
    const auto refInfo = trace::spillFromSource(source, cfg.name, opts,
                                                refPath, store);

    for (const bool pipeline : {false, true}) {
        SCOPED_TRACE("pipeline=" + std::to_string(pipeline));
        gen::DirectGenConfig dg;
        dg.chunkRefs = 4097;
        dg.pipeline = pipeline;
        const std::string path = tmpPath(
            "spill_direct_" + std::to_string(pipeline) + ".dst");
        const auto info =
            gen::spillPrepared(cfg, opts, path, store, dg);
        EXPECT_EQ(info.instrRefs, refInfo.instrRefs);
        EXPECT_EQ(info.dataRefs, refInfo.dataRefs);
        EXPECT_EQ(info.nUnits, refInfo.nUnits);
        EXPECT_EQ(info.nCpus, refInfo.nCpus);
        EXPECT_EQ(info.fileBytes, refInfo.fileBytes);
        EXPECT_EQ(slurp(path), slurp(refPath)) << "file bytes differ";
        std::filesystem::remove(path);
    }
    std::filesystem::remove(refPath);
}

/**
 * Every producer numbers blocks identically: the two-phase builder,
 * the direct pipeline (in memory and spilled), and spillFromSource
 * yield the same dense block columns — timed per-CPU streams
 * included — and the same names, for every preset, with and without
 * the lock-test filter.
 */
TEST(DirectGen, EveryProducerNumbersBlocksIdentically)
{
    const auto expectSameStreams = [](const trace::PreparedTrace &a,
                                      const trace::PreparedTrace &b) {
        expectSameColumns(a, b);
        ASSERT_EQ(a.cpuStreams().size(), b.cpuStreams().size());
        for (std::size_t c = 0; c < a.cpuStreams().size(); ++c) {
            EXPECT_EQ(a.cpuStreams()[c].block, b.cpuStreams()[c].block);
            EXPECT_EQ(a.cpuStreams()[c].unit, b.cpuStreams()[c].unit);
            EXPECT_EQ(a.cpuStreams()[c].typeFlags,
                      b.cpuStreams()[c].typeFlags);
        }
    };
    trace::StoreWriteOptions store;
    store.chunkRefs = 3001;
    gen::DirectGenConfig dg;
    dg.chunkRefs = 4097;
    for (const auto &cfg : smallWorkloads(20000)) {
        for (const bool drop : {false, true}) {
            for (const bool timed : {false, true}) {
                SCOPED_TRACE(cfg.name + " drop=" + std::to_string(drop) +
                             " timed=" + std::to_string(timed));
                trace::PrepareOptions opts;
                opts.dropLockTests = drop;
                opts.timedStreams = timed;
                const auto builder = legacyPrepared(cfg, opts);
                ASSERT_GT(builder.numBlocks(), 0u);
                expectSameStreams(gen::generatePrepared(cfg, opts, dg),
                                  builder);

                const std::string direct = tmpPath("numbering_direct");
                gen::spillPrepared(cfg, opts, direct, store, dg);
                expectSameStreams(
                    trace::StoredTrace::open(direct)->loadAll(), builder);
                std::filesystem::remove(direct);

                const std::string spilled = tmpPath("numbering_source");
                gen::WorkloadSource source(cfg);
                trace::spillFromSource(source, cfg.name, opts, spilled,
                                       store);
                expectSameStreams(
                    trace::StoredTrace::open(spilled)->loadAll(),
                    builder);
                std::filesystem::remove(spilled);
            }
        }
    }
}

/** The repository's cold builds go through the direct pipeline and
 *  land on the legacy columns. */
TEST(DirectGen, RepositoryRoutesThroughDirectByDefault)
{
    sim::TraceRepository repo(1);
    const auto cfg = smallWorkloads(20000)[0];
    expectSameColumns(*repo.get(cfg), legacyPrepared(cfg, {}));
}

TEST(DirectGen, TooManySharingUnitsThrowsLikeLegacy)
{
    auto cfg = smallWorkloads(40000)[0];
    cfg.space.nProcesses = 300; // > the 8-bit unit column's 256.
    cfg.quantumRefs = 16; // Rotate all 300 through the CPUs quickly.
    const trace::PrepareOptions opts; // Process domain.
    EXPECT_THROW(legacyPrepared(cfg, opts), std::invalid_argument);
    for (const bool pipeline : {false, true}) {
        gen::DirectGenConfig dg;
        dg.pipeline = pipeline;
        EXPECT_THROW(gen::generatePrepared(cfg, opts, dg),
                     std::invalid_argument);
    }
}

} // namespace
