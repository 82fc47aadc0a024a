/**
 * @file
 * Fused multi-scheme replay: differential equivalence suite.
 *
 * sim::Simulator hands each span of the prepared columns to every
 * engine in turn.  The claim that this interleaving is invisible to the
 * coherence models is load-bearing for the whole sweep path, so this
 * suite pins it from every angle against the seed golden digests
 * (golden_data.hh): each scheme replayed alone, adversarial span
 * sizes, the whole scheme axis fused per workload through a 4-job
 * analysis::runMatrix, and fused per workload over streamed store
 * spans on 4 sim::runOrdered workers (golden_test.cc streams the
 * runMatrix path from store spans).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "analysis/evaluation.hh"
#include "coherence/multi_limited_engine.hh"
#include "gen/workload.hh"
#include "gen/workloads.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "sim/trace_repo.hh"
#include "trace/prepared.hh"
#include "trace/store.hh"
#include "trace/trace.hh"

#include "golden_data.hh"

namespace
{

using namespace dirsim;
using golden::CacheDirGuard;
using golden::digest;
using golden::kGolden;
using golden::kNumSchemes;
using golden::kSchemes;

/**
 * Each scheme replayed alone — one engine per simulator, so nothing
 * is interleaved with it — lands on its seed digest for every
 * scheme × workload, the baseline the fused groups below must match.
 */
TEST(FusedReplayEquivalence, SequentialWholeSpanMatchesGolden)
{
    const std::vector<gen::WorkloadConfig> workloads =
        gen::standardWorkloads();
    ASSERT_EQ(workloads.size(), 3u);
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::shared_ptr<const trace::PreparedTrace> prepared =
            sim::TraceRepository::global().get(workloads[w]);
        for (std::size_t s = 0; s < kNumSchemes; ++s) {
            sim::Simulator simulator;
            simulator.addEngine(kSchemes[s].make(
                workloads[w].space.nProcesses, nullptr));
            simulator.run(*prepared);
            EXPECT_EQ(digest(simulator.engine(0).results()),
                      kGolden[w][s])
                << "scheme '" << kSchemes[s].label << "' on workload '"
                << workloads[w].name << "' diverged replayed alone";
        }
    }
}

/**
 * Span size must never be observable: spans of one reference (maximum
 * engine interleaving), a prime size, and 1000 references all drive
 * every scheme fused onto its seed digest.
 */
TEST(FusedReplayEquivalence, AdversarialStripSizesMatchGolden)
{
    const gen::WorkloadConfig cfg = gen::standardWorkloads()[0];
    const std::shared_ptr<const trace::PreparedTrace> prepared =
        sim::TraceRepository::global().get(cfg);
    for (const std::size_t spanRefs : {std::size_t(1), std::size_t(7),
                                       std::size_t(1000)}) {
        sim::Simulator simulator;
        for (const golden::Scheme &scheme : kSchemes)
            simulator.addEngine(
                scheme.make(cfg.space.nProcesses, nullptr));
        trace::PreparedTraceSpans spans(*prepared, spanRefs);
        simulator.run(spans);
        ASSERT_EQ(simulator.numEngines(), kNumSchemes);
        for (std::size_t s = 0; s < kNumSchemes; ++s) {
            EXPECT_EQ(digest(simulator.engine(s).results()),
                      kGolden[0][s])
                << "scheme '" << kSchemes[s].label << "' diverged at "
                << spanRefs << "-ref spans";
        }
    }
}

/**
 * The scheme axis through analysis::runMatrix at 4 jobs: each
 * workload's 14 engines share one fused pass over its in-memory
 * columns, dir1nb and dir2nb as lanes of one shared table, and every
 * cell lands on its golden digest.
 */
TEST(FusedReplayEquivalence, FusedParallelSweepMatchesGolden)
{
    golden::expectMatrixMatchesGolden(analysis::EvalOptions{}, nullptr);
}

/**
 * The fused scheme axis over the out-of-core path, in parallel: one
 * sim::runOrdered task per workload at 4 jobs fuses all 14 schemes
 * into one pass over windowed spans of a spilled store file, each
 * through its own cursor (64K-reference chunks force many span
 * boundaries), and every scheme lands on its golden digest.
 */
TEST(FusedReplayEquivalence, FusedStreamedSweepMatchesGolden)
{
    CacheDirGuard dir("fused");
    sim::TraceRepository repo(1);
    sim::DiskCacheConfig disk;
    disk.dir = dir.path;
    disk.chunkRefs = 64 * 1024;
    repo.setDiskCache(disk);

    const std::vector<gen::WorkloadConfig> workloads =
        gen::standardWorkloads();
    ASSERT_EQ(workloads.size(), 3u);

    std::vector<std::function<std::vector<std::uint64_t>()>> tasks;
    for (const gen::WorkloadConfig &cfg : workloads) {
        const std::shared_ptr<const trace::StoredTrace> stored =
            repo.getStored(cfg);
        ASSERT_GT(stored->numChunks(), 1u);
        tasks.push_back([stored, units = cfg.space.nProcesses] {
            sim::Simulator simulator;
            for (const golden::Scheme &scheme : kSchemes)
                simulator.addEngine(scheme.make(units, nullptr));
            const auto spans = stored->spanCursor();
            simulator.run(*spans);
            std::vector<std::uint64_t> digests;
            for (std::size_t s = 0; s < simulator.numEngines(); ++s)
                digests.push_back(digest(simulator.engine(s).results()));
            return digests;
        });
    }

    const std::vector<std::vector<std::uint64_t>> digests =
        sim::runOrdered(4, tasks);
    ASSERT_EQ(digests.size(), workloads.size());
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        ASSERT_EQ(digests[w].size(), kNumSchemes);
        for (std::size_t s = 0; s < kNumSchemes; ++s) {
            EXPECT_EQ(digests[w][s], kGolden[w][s])
                << "scheme '" << kSchemes[s].label << "' on workload '"
                << workloads[w].name
                << "' diverged in a fused streamed sweep";
        }
    }
    EXPECT_EQ(repo.stats().builds, 3u);
}

/**
 * The multi-configuration collapse against the seed: one
 * MultiLimitedEngine with lanes {1, 2} replayed through the default
 * fused path lands on the dir1nb and dir2nb golden digests — name
 * included — for every standard workload.  The digests were recorded
 * from independent node-based engines, so this pins the shared-table
 * lanes to the seed semantics bit for bit.
 */
TEST(FusedReplayEquivalence, MultiConfigLanesMatchGolden)
{
    const std::vector<gen::WorkloadConfig> workloads =
        gen::standardWorkloads();
    ASSERT_EQ(workloads.size(), 3u);
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::shared_ptr<const trace::PreparedTrace> prepared =
            sim::TraceRepository::global().get(workloads[w]);
        sim::Simulator simulator{sim::SimConfig{}};
        simulator.addEngine(
            std::make_unique<coherence::MultiLimitedEngine>(
                workloads[w].space.nProcesses,
                std::vector<unsigned>{1, 2}));
        simulator.run(*prepared);
        const auto &multi =
            static_cast<const coherence::MultiLimitedEngine &>(
                simulator.engine(0));
        ASSERT_EQ(multi.numLanes(), 2u);
        EXPECT_EQ(digest(multi.laneResults(0)), kGolden[w][1])
            << "lane dir1nb diverged on workload '"
            << workloads[w].name << "'";
        EXPECT_EQ(digest(multi.laneResults(1)), kGolden[w][2])
            << "lane dir2nb diverged on workload '"
            << workloads[w].name << "'";
    }
}

/** An empty prepared stream fused across engines is a clean no-op. */
TEST(FusedReplay, EmptyStream)
{
    trace::MemoryTrace empty;
    trace::PrepareOptions prep;
    const trace::PreparedTrace prepared =
        trace::PreparedTrace::build(empty, prep);
    ASSERT_EQ(prepared.dataRefs(), 0u);

    coherence::InvalEngineConfig cfg;
    cfg.nUnits = 4;
    sim::Simulator simulator;
    simulator.addEngine(std::make_unique<coherence::InvalEngine>(cfg));
    simulator.addEngine(std::make_unique<coherence::InvalEngine>(cfg));
    trace::PreparedTraceSpans spans(prepared);
    EXPECT_EQ(simulator.run(spans), 0u);
    for (std::size_t e = 0; e < simulator.numEngines(); ++e)
        EXPECT_EQ(simulator.engine(e).results().events.totalRefs(), 0u);
}

} // namespace
