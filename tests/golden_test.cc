/**
 * @file
 * Golden equivalence suite for the flat-storage refactor.
 *
 * Every paper table and figure is a pure function of EngineResults, so
 * proving that a change to the hot path's storage (the node-based maps
 * and sets replaced by flat tables, the DirEntry arena) changed nothing
 * reduces to proving EngineResults is bit-identical for every scheme ×
 * workload point.  This suite digests a canonical integer
 * serialisation of each point's results and compares against values
 * recorded from the seed implementation
 * (std::unordered_map/set, unique_ptr-owned DirEntry) at the same
 * workload seeds.
 *
 * Regenerate the table (e.g. after an intentional model change) with:
 *
 *     DIRSIM_GOLDEN_PRINT=1 ./tests/golden_test
 *
 * and paste the printed rows over kGolden in golden_data.hh.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/evaluation.hh"
#include "gen/workload.hh"
#include "gen/workloads.hh"
#include "sim/simulator.hh"
#include "sim/trace_repo.hh"
#include "trace/prepared.hh"
#include "trace/store.hh"

#include "golden_data.hh"

namespace
{

using namespace dirsim;
using golden::CacheDirGuard;
using golden::digest;
using golden::kGolden;
using golden::kNumSchemes;
using golden::kSchemes;
using golden::Scheme;

/** One workload's digests, one per scheme, in kSchemes order. */
std::vector<std::uint64_t>
runWorkload(const gen::WorkloadConfig &cfg,
            const directory::DirCacheConfig *dc = nullptr)
{
    sim::Simulator simulator;
    for (const Scheme &scheme : kSchemes)
        simulator.addEngine(scheme.make(cfg.space.nProcesses, dc));
    gen::WorkloadSource source(cfg);
    simulator.run(source);

    std::vector<std::uint64_t> digests;
    for (std::size_t e = 0; e < simulator.numEngines(); ++e)
        digests.push_back(digest(simulator.engine(e).results()));
    return digests;
}

/** Same digests, but replaying the decode-once prepared stream. */
std::vector<std::uint64_t>
runWorkloadPrepared(const gen::WorkloadConfig &cfg,
                    const directory::DirCacheConfig *dc = nullptr)
{
    const std::shared_ptr<const trace::PreparedTrace> prepared =
        sim::TraceRepository::global().get(cfg);
    sim::Simulator simulator;
    for (const Scheme &scheme : kSchemes)
        simulator.addEngine(scheme.make(cfg.space.nProcesses, dc));
    simulator.run(*prepared);

    std::vector<std::uint64_t> digests;
    for (std::size_t e = 0; e < simulator.numEngines(); ++e)
        digests.push_back(digest(simulator.engine(e).results()));
    return digests;
}

TEST(GoldenEquivalence, EngineResultsUnchangedForEverySchemeWorkload)
{
    const std::vector<gen::WorkloadConfig> workloads =
        gen::standardWorkloads();
    ASSERT_EQ(workloads.size(), 3u);

    const bool print = std::getenv("DIRSIM_GOLDEN_PRINT") != nullptr;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::vector<std::uint64_t> digests =
            runWorkload(workloads[w]);
        ASSERT_EQ(digests.size(), kNumSchemes);
        if (print) {
            std::cout << "    // " << workloads[w].name << "\n    {";
            for (std::size_t s = 0; s < kNumSchemes; ++s)
                std::cout << (s ? ", " : "") << "0x" << std::hex
                          << digests[s] << std::dec << "ULL";
            std::cout << "},\n";
            continue;
        }
        for (std::size_t s = 0; s < kNumSchemes; ++s) {
            EXPECT_EQ(digests[s], kGolden[w][s])
                << "scheme '" << kSchemes[s].label << "' on workload '"
                << workloads[w].name
                << "' diverged from the seed implementation";
        }
    }
}

/**
 * The decode-once prepared path (PR 5) must reproduce the seed
 * digests bit-for-bit: same 14 schemes × 3 workloads, replayed from
 * the SoA columns of the process-wide trace repository instead of the
 * interleaved raw records.
 */
TEST(GoldenEquivalence, PreparedReplayMatchesGoldenDigests)
{
    const std::vector<gen::WorkloadConfig> workloads =
        gen::standardWorkloads();
    ASSERT_EQ(workloads.size(), 3u);

    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::vector<std::uint64_t> digests =
            runWorkloadPrepared(workloads[w]);
        ASSERT_EQ(digests.size(), kNumSchemes);
        for (std::size_t s = 0; s < kNumSchemes; ++s) {
            EXPECT_EQ(digests[s], kGolden[w][s])
                << "scheme '" << kSchemes[s].label << "' on workload '"
                << workloads[w].name
                << "' diverged when replayed from the prepared trace";
        }
    }
}

/**
 * An *unbounded* directory cache (entries = 0) can never evict, so
 * adding it in front of any directory must be invisible: every scheme
 * × workload digest stays bit-identical to the seed table, on both
 * the raw-replay and prepared-replay paths.  This pins the tentpole's
 * integration points (touch placement, counter plumbing) against the
 * 42 golden design points before the finite-capacity behaviour is
 * exercised elsewhere.
 */
TEST(GoldenEquivalence, UnboundedDirCacheMatchesGoldenDigests)
{
    directory::DirCacheConfig dc;
    dc.enabled = true;
    dc.entries = 0; // unbounded: tracks every block, never evicts

    const std::vector<gen::WorkloadConfig> workloads =
        gen::standardWorkloads();
    ASSERT_EQ(workloads.size(), 3u);

    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::vector<std::uint64_t> raw =
            runWorkload(workloads[w], &dc);
        const std::vector<std::uint64_t> prepared =
            runWorkloadPrepared(workloads[w], &dc);
        ASSERT_EQ(raw.size(), kNumSchemes);
        ASSERT_EQ(prepared.size(), kNumSchemes);
        for (std::size_t s = 0; s < kNumSchemes; ++s) {
            EXPECT_EQ(raw[s], kGolden[w][s])
                << "scheme '" << kSchemes[s].label << "' on workload '"
                << workloads[w].name
                << "' diverged under an unbounded directory cache (raw)";
            EXPECT_EQ(prepared[s], kGolden[w][s])
                << "scheme '" << kSchemes[s].label << "' on workload '"
                << workloads[w].name
                << "' diverged under an unbounded directory cache "
                   "(prepared)";
        }
    }
}

/**
 * The unbounded cache is invisible to results, but it must actually
 * be *running*: directory-capable schemes must record misses (first
 * touch of each block) and zero evictions/invalidations.
 */
TEST(GoldenEquivalence, UnboundedDirCacheCountersAreSane)
{
    directory::DirCacheConfig dc;
    dc.enabled = true;
    dc.entries = 0;

    const gen::WorkloadConfig cfg = gen::standardWorkloads()[0];
    sim::Simulator simulator;
    for (const Scheme &scheme : kSchemes)
        simulator.addEngine(scheme.make(cfg.space.nProcesses, &dc));
    gen::WorkloadSource source(cfg);
    simulator.run(source);

    for (std::size_t s = 0; s < kNumSchemes; ++s) {
        const coherence::EngineResults &r =
            simulator.engine(s).results();
        if (kSchemes[s].dirCacheCapable) {
            EXPECT_GT(r.dirCacheMisses, 0u)
                << kSchemes[s].label
                << ": cache enabled but never consulted";
        } else {
            EXPECT_EQ(r.dirCacheMisses, 0u) << kSchemes[s].label;
            EXPECT_EQ(r.dirCacheHits, 0u) << kSchemes[s].label;
        }
        EXPECT_EQ(r.dirCacheEvictions, 0u) << kSchemes[s].label;
        EXPECT_EQ(r.dirCacheEvictionInvals, 0u) << kSchemes[s].label;
        EXPECT_EQ(r.dirCacheEvictionWriteBacks, 0u)
            << kSchemes[s].label;
    }
}

/**
 * The 42 cells through analysis::runMatrix at 4 jobs, every engine
 * behind an unbounded directory cache (so the DiriNB cells run as
 * their own engines, not collapsed lanes), must still land on the
 * golden digests.
 */
TEST(GoldenEquivalence, UnboundedDirCacheParallelSweepMatchesGolden)
{
    directory::DirCacheConfig dc;
    dc.enabled = true;
    dc.entries = 0;
    golden::expectMatrixMatchesGolden(analysis::EvalOptions{}, &dc);
}

/**
 * The out-of-core streamed path must also land on the seed digests:
 * every scheme × workload, replayed from windowed spans of a spilled
 * store file instead of in-memory columns.  The small chunk size
 * forces many span boundaries per workload — this is the proof that
 * boundaries are invisible to every engine variant.
 */
TEST(GoldenEquivalence, StreamedReplayMatchesGoldenDigests)
{
    CacheDirGuard dir("serial");
    sim::TraceRepository repo(1);
    sim::DiskCacheConfig disk;
    disk.dir = dir.path;
    disk.chunkRefs = 64 * 1024;
    repo.setDiskCache(disk);

    const std::vector<gen::WorkloadConfig> workloads =
        gen::standardWorkloads();
    ASSERT_EQ(workloads.size(), 3u);

    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::shared_ptr<const trace::StoredTrace> stored =
            repo.getStored(workloads[w]);
        ASSERT_GT(stored->numChunks(), 1u);
        sim::Simulator simulator;
        for (const Scheme &scheme : kSchemes)
            simulator.addEngine(
                scheme.make(workloads[w].space.nProcesses, nullptr));
        const auto spans = stored->spanCursor();
        simulator.run(*spans);
        for (std::size_t s = 0; s < kNumSchemes; ++s) {
            EXPECT_EQ(digest(simulator.engine(s).results()),
                      kGolden[w][s])
                << "scheme '" << kSchemes[s].label << "' on workload '"
                << workloads[w].name
                << "' diverged when streamed from the trace store";
        }
    }
    // The whole matrix was served without a single re-generate after
    // the three cold spills.
    EXPECT_EQ(repo.stats().builds, 3u);
}

/**
 * The 42 cells through analysis::runMatrix at 4 jobs, streamed from
 * the global repository's disk tier in 64K-reference chunks: each job
 * replays windowed spans of a shared store file through its own
 * cursor, with dir1nb and dir2nb as collapsed lanes, and every cell
 * still lands on its golden digest.
 */
TEST(GoldenEquivalence, StreamedParallelSweepMatchesGolden)
{
    CacheDirGuard dir("sweep");
    sim::TraceRepository &repo = sim::TraceRepository::global();
    sim::DiskCacheConfig disk;
    disk.dir = dir.path;
    disk.chunkRefs = 64 * 1024;
    repo.setDiskCache(disk);
    for (const gen::WorkloadConfig &cfg : gen::standardWorkloads())
        EXPECT_GT(repo.getStored(cfg)->numChunks(), 1u) << cfg.name;

    analysis::EvalOptions opts;
    opts.streamReplay = true;
    golden::expectMatrixMatchesGolden(opts, nullptr);
    repo.setDiskCache({});
}

} // namespace
