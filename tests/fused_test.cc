/**
 * @file
 * Fused multi-scheme replay: differential equivalence suite.
 *
 * FusedReplay hands each span of the prepared columns to every engine
 * in turn.  The claim that this interleaving is invisible to the
 * coherence models is load-bearing for the whole sweep path, so this
 * suite pins it from every angle against the seed golden digests
 * (golden_data.hh): each scheme replayed alone, adversarial span
 * sizes, fused groups through a parallel SweepRunner, and fused
 * groups over streamed store spans.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coherence/multi_limited_engine.hh"
#include "gen/workload.hh"
#include "gen/workloads.hh"
#include "sim/fused_replay.hh"
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
 * engine interleaving), a prime size whose boundaries never line up
 * with the 4K type-decode strips, and 1000 references all drive every
 * scheme fused onto its seed digest.
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
 * The scheme axis fused through a 4-worker SweepRunner: each
 * workload's 14 points share a fuseKey, so the runner collapses them
 * into one fused column pass per workload — and every point still
 * lands on its golden digest, in submission order.
 */
TEST(FusedReplayEquivalence, FusedParallelSweepMatchesGolden)
{
    const std::vector<gen::WorkloadConfig> workloads =
        gen::standardWorkloads();
    ASSERT_EQ(workloads.size(), 3u);

    sim::SweepRunner runner(4);
    for (const gen::WorkloadConfig &cfg : workloads) {
        const std::shared_ptr<const trace::PreparedTrace> prepared =
            sim::TraceRepository::global().get(cfg);
        for (std::size_t s = 0; s < kNumSchemes; ++s) {
            sim::SweepPoint point;
            point.name =
                std::string(cfg.name) + "/" + kSchemes[s].label;
            point.fuseKey = "fused/" + std::string(cfg.name);
            point.engines = [s, units = cfg.space.nProcesses] {
                std::vector<
                    std::unique_ptr<coherence::CoherenceEngine>>
                    engines;
                engines.push_back(kSchemes[s].make(units, nullptr));
                return engines;
            };
            point.prepared = prepared;
            runner.add(std::move(point));
        }
    }

    // One fused group per workload, not 42 standalone points.
    const std::vector<std::size_t> groups =
        runner.plannedGroupSizes();
    ASSERT_EQ(groups.size(), workloads.size());
    for (const std::size_t size : groups)
        EXPECT_EQ(size, kNumSchemes);

    const std::vector<sim::SweepPointResult> results = runner.run();
    ASSERT_EQ(results.size(), workloads.size() * kNumSchemes);
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (std::size_t s = 0; s < kNumSchemes; ++s) {
            const sim::SweepPointResult &res =
                results[w * kNumSchemes + s];
            ASSERT_EQ(res.engines.size(), 1u);
            EXPECT_EQ(digest(res.engines[0]), kGolden[w][s])
                << "point '" << res.name
                << "' diverged in a fused parallel sweep";
        }
    }
}

/**
 * Fused groups over the out-of-core path: every workload's 14 points
 * fuse into one pass over windowed spans of a spilled store file
 * (small chunks force many span boundaries inside every strip walk).
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

    sim::SweepRunner runner(4);
    for (const gen::WorkloadConfig &cfg : workloads) {
        const std::shared_ptr<const trace::StoredTrace> stored =
            repo.getStored(cfg);
        ASSERT_GT(stored->numChunks(), 1u);
        for (std::size_t s = 0; s < kNumSchemes; ++s) {
            sim::SweepPoint point;
            point.name =
                std::string(cfg.name) + "/" + kSchemes[s].label;
            point.fuseKey = "stream/" + std::string(cfg.name);
            point.engines = [s, units = cfg.space.nProcesses] {
                std::vector<
                    std::unique_ptr<coherence::CoherenceEngine>>
                    engines;
                engines.push_back(kSchemes[s].make(units, nullptr));
                return engines;
            };
            point.spans = [stored] { return stored->spanCursor(); };
            runner.add(std::move(point));
        }
    }

    const std::vector<std::size_t> groups =
        runner.plannedGroupSizes();
    ASSERT_EQ(groups.size(), workloads.size());
    for (const std::size_t size : groups)
        EXPECT_EQ(size, kNumSchemes);

    const std::vector<sim::SweepPointResult> results = runner.run();
    ASSERT_EQ(results.size(), workloads.size() * kNumSchemes);
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (std::size_t s = 0; s < kNumSchemes; ++s) {
            const sim::SweepPointResult &res =
                results[w * kNumSchemes + s];
            ASSERT_EQ(res.engines.size(), 1u);
            EXPECT_EQ(digest(res.engines[0]), kGolden[w][s])
                << "point '" << res.name
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

/** Points with distinct fuse keys (or none) stay standalone. */
TEST(FusedReplay, DistinctKeysDoNotFuse)
{
    const gen::WorkloadConfig cfg = gen::standardWorkloads()[0];
    const std::shared_ptr<const trace::PreparedTrace> prepared =
        sim::TraceRepository::global().get(cfg);
    sim::SweepRunner runner(2);
    for (const char *key : {"a", "b", ""}) {
        sim::SweepPoint point;
        point.name = key;
        point.fuseKey = key;
        point.engines = [units = cfg.space.nProcesses] {
            std::vector<std::unique_ptr<coherence::CoherenceEngine>>
                engines;
            engines.push_back(kSchemes[0].make(units, nullptr));
            return engines;
        };
        point.prepared = prepared;
        runner.add(std::move(point));
    }
    const std::vector<std::size_t> groups =
        runner.plannedGroupSizes();
    ASSERT_EQ(groups.size(), 3u);
    for (const std::size_t size : groups)
        EXPECT_EQ(size, 1u);
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
    coherence::InvalEngine a(cfg), b(cfg);
    trace::PreparedTraceSpans spans(prepared);
    sim::FusedReplayOptions opts;
    opts.timeEngines = true;
    const sim::FusedReplayRun run =
        sim::FusedReplay(opts).run(spans, {&a, &b});
    EXPECT_EQ(run.totalRefs(), 0u);
    ASSERT_EQ(run.engineSeconds.size(), 2u);
}

} // namespace
