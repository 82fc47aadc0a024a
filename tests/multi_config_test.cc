/**
 * @file
 * Multi-configuration collapse: randomized differential suite.
 *
 * MultiLimitedEngine claims each of its lanes is bit-identical to an
 * independent LimitedEngine at that pointer count — over any stream,
 * at any span size, through every replay path.  This suite holds it
 * to that with full EngineResults equality (every counter and
 * histogram, not just a digest) on randomized workloads the golden
 * tables have never seen: co-resident multi + independent engines at
 * adversarial span sizes, collapsed fused groups through a 4-worker
 * SweepRunner, collapsed groups over streamed store spans, and the
 * analysis layer's collapsed sweep and finite-dir-cache fallback,
 * serial and parallel.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/evaluation.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "coherence/multi_limited_engine.hh"
#include "directory/dir_cache.hh"
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

const std::vector<unsigned> kLanes = {1, 2, 4, 8};

/**
 * Three randomized workloads off the golden grid: preset behaviours
 * reseeded and rescaled, plus a generic 8-CPU scaled one, so the
 * differential covers unit counts and sharing mixes the recorded
 * digests never touch.
 */
std::vector<gen::WorkloadConfig>
randomWorkloads()
{
    std::vector<gen::WorkloadConfig> cfgs;
    gen::WorkloadConfig pops = gen::popsConfig();
    pops.name = "rnd-pops";
    pops.totalRefs = 120'000;
    pops.seed = 0xA11CE5EEDULL;
    cfgs.push_back(pops);
    gen::WorkloadConfig thor = gen::thorConfig();
    thor.name = "rnd-thor";
    thor.totalRefs = 90'000;
    thor.seed = 0xB0BACAFEULL;
    cfgs.push_back(thor);
    gen::WorkloadConfig wide = gen::scaledConfig(8, 100'000);
    wide.name = "rnd-wide8";
    wide.seed = 0xD15C0B47ULL;
    cfgs.push_back(wide);
    return cfgs;
}

std::shared_ptr<const trace::PreparedTrace>
prepare(const gen::WorkloadConfig &cfg)
{
    return std::make_shared<const trace::PreparedTrace>(
        trace::PreparedTrace::build(gen::generateTrace(cfg),
                                    trace::PrepareOptions{}));
}

/** Independent LimitedEngine baseline for one workload, per lane. */
std::vector<coherence::EngineResults>
independentBaseline(const gen::WorkloadConfig &cfg,
                    const trace::PreparedTrace &prepared)
{
    sim::Simulator simulator{sim::SimConfig{}};
    for (const unsigned p : kLanes)
        simulator.addEngine(std::make_unique<coherence::LimitedEngine>(
            cfg.space.nProcesses, p));
    simulator.run(prepared);
    std::vector<coherence::EngineResults> results;
    for (std::size_t e = 0; e < simulator.numEngines(); ++e)
        results.push_back(simulator.engine(e).results());
    return results;
}

/**
 * Multi + independents co-resident in one simulator over spans of 1
 * reference (maximum interleaving), 7 (a prime, so no boundary lines
 * up with the 4K type-decode strips) and 64K: every lane's
 * EngineResults must equal its independent twin's, field for field.
 */
TEST(MultiConfigDifferential, RandomWorkloadsAcrossStripSizes)
{
    for (const gen::WorkloadConfig &cfg : randomWorkloads()) {
        const auto prepared = prepare(cfg);
        for (const std::size_t strip :
             {std::size_t(1), std::size_t(7), std::size_t(64 * 1024)}) {
            sim::Simulator simulator;
            simulator.addEngine(
                std::make_unique<coherence::MultiLimitedEngine>(
                    cfg.space.nProcesses, kLanes));
            for (const unsigned p : kLanes)
                simulator.addEngine(
                    std::make_unique<coherence::LimitedEngine>(
                        cfg.space.nProcesses, p));
            trace::PreparedTraceSpans spans(*prepared, strip);
            simulator.run(spans);
            const auto &multi =
                static_cast<const coherence::MultiLimitedEngine &>(
                    simulator.engine(0));
            ASSERT_EQ(multi.numLanes(), kLanes.size());
            for (std::size_t l = 0; l < kLanes.size(); ++l) {
                EXPECT_TRUE(multi.laneResults(l) ==
                            simulator.engine(1 + l).results())
                    << "workload '" << cfg.name << "' strip " << strip
                    << " lane dir" << kLanes[l] << "nb diverged";
            }
        }
    }
}

/**
 * Collapsed fused groups through a 4-worker SweepRunner: each
 * workload's DiriNB points (multiPointers hints, shared fuseKey, plus
 * an unhinted inval rider in the same group) collapse to one shared
 * table — plannedMultiLanes() says so — and every point's result
 * equals its independent serial baseline.
 */
TEST(MultiConfigDifferential, FusedParallelSweepCollapses)
{
    const std::vector<gen::WorkloadConfig> cfgs = randomWorkloads();
    std::vector<std::vector<coherence::EngineResults>> baselines;
    sim::SweepRunner runner(4);
    for (const gen::WorkloadConfig &cfg : cfgs) {
        const auto prepared = prepare(cfg);
        baselines.push_back(independentBaseline(cfg, *prepared));
        const unsigned units = cfg.space.nProcesses;
        for (const unsigned p : kLanes) {
            sim::SweepPoint point;
            point.name = cfg.name + "/dir" + std::to_string(p) + "nb";
            point.fuseKey = "multi/" + cfg.name;
            point.multiPointers = p;
            point.multiUnits = units;
            point.engines = [units, p] {
                std::vector<
                    std::unique_ptr<coherence::CoherenceEngine>>
                    engines;
                engines.push_back(
                    std::make_unique<coherence::LimitedEngine>(units,
                                                               p));
                return engines;
            };
            point.prepared = prepared;
            runner.add(std::move(point));
        }
        // An unhinted rider in the same fused group: the collapse
        // must leave it on its own engine.
        sim::SweepPoint rider;
        rider.name = cfg.name + "/inval";
        rider.fuseKey = "multi/" + cfg.name;
        rider.engines = [units] {
            std::vector<std::unique_ptr<coherence::CoherenceEngine>>
                engines;
            coherence::InvalEngineConfig ic;
            ic.nUnits = units;
            engines.push_back(
                std::make_unique<coherence::InvalEngine>(ic));
            return engines;
        };
        rider.prepared = prepared;
        runner.add(std::move(rider));
    }

    const std::vector<std::size_t> groups = runner.plannedGroupSizes();
    ASSERT_EQ(groups.size(), cfgs.size());
    for (const std::size_t size : groups)
        EXPECT_EQ(size, kLanes.size() + 1);
    const std::vector<std::size_t> lanes = runner.plannedMultiLanes();
    ASSERT_EQ(lanes.size(), cfgs.size());
    for (const std::size_t n : lanes)
        EXPECT_EQ(n, kLanes.size());

    const std::vector<sim::SweepPointResult> results = runner.run();
    ASSERT_EQ(results.size(), cfgs.size() * (kLanes.size() + 1));
    for (std::size_t w = 0; w < cfgs.size(); ++w) {
        for (std::size_t l = 0; l < kLanes.size(); ++l) {
            const sim::SweepPointResult &res =
                results[w * (kLanes.size() + 1) + l];
            ASSERT_EQ(res.engines.size(), 1u) << res.name;
            EXPECT_TRUE(res.engines[0] == baselines[w][l])
                << "point '" << res.name
                << "' diverged through the collapsed fused sweep";
        }
        const sim::SweepPointResult &inval =
            results[w * (kLanes.size() + 1) + kLanes.size()];
        ASSERT_EQ(inval.engines.size(), 1u) << inval.name;
        EXPECT_EQ(inval.engines[0].name, "inval");
    }
}

/**
 * Collapsed groups over the out-of-core path: small chunks force many
 * span boundaries into the walk of the shared table, and each lane
 * still equals its independent in-memory baseline.
 */
TEST(MultiConfigDifferential, StreamedStoreSpansMatch)
{
    CacheDirGuard dir("multicfg");
    sim::TraceRepository repo(1);
    sim::DiskCacheConfig disk;
    disk.dir = dir.path;
    disk.chunkRefs = 8 * 1024;
    repo.setDiskCache(disk);

    const std::vector<gen::WorkloadConfig> cfgs = randomWorkloads();
    std::vector<std::vector<coherence::EngineResults>> baselines;
    sim::SweepRunner runner(4);
    for (const gen::WorkloadConfig &cfg : cfgs) {
        baselines.push_back(
            independentBaseline(cfg, *repo.get(cfg)));
        const std::shared_ptr<const trace::StoredTrace> stored =
            repo.getStored(cfg);
        ASSERT_GT(stored->numChunks(), 1u);
        const unsigned units = cfg.space.nProcesses;
        for (const unsigned p : kLanes) {
            sim::SweepPoint point;
            point.name = cfg.name + "/dir" + std::to_string(p) + "nb";
            point.fuseKey = "stream/" + cfg.name;
            point.multiPointers = p;
            point.multiUnits = units;
            point.engines = [units, p] {
                std::vector<
                    std::unique_ptr<coherence::CoherenceEngine>>
                    engines;
                engines.push_back(
                    std::make_unique<coherence::LimitedEngine>(units,
                                                               p));
                return engines;
            };
            point.spans = [stored] { return stored->spanCursor(); };
            runner.add(std::move(point));
        }
    }

    const std::vector<std::size_t> lanes = runner.plannedMultiLanes();
    ASSERT_EQ(lanes.size(), cfgs.size());
    for (const std::size_t n : lanes)
        EXPECT_EQ(n, kLanes.size());

    const std::vector<sim::SweepPointResult> results = runner.run();
    ASSERT_EQ(results.size(), cfgs.size() * kLanes.size());
    for (std::size_t w = 0; w < cfgs.size(); ++w) {
        for (std::size_t l = 0; l < kLanes.size(); ++l) {
            const sim::SweepPointResult &res =
                results[w * kLanes.size() + l];
            ASSERT_EQ(res.engines.size(), 1u) << res.name;
            EXPECT_TRUE(res.engines[0] == baselines[w][l])
                << "point '" << res.name
                << "' diverged over streamed store spans";
        }
    }
}

/**
 * One workload's merged DiriNB results from independent
 * LimitedEngines over the repository's prepared trace — what
 * analysis::limitedSweep must reproduce whether it collapses the
 * pointer counts into lanes or not.
 */
std::vector<coherence::EngineResults>
independentSweep(const gen::WorkloadConfig &cfg,
                 const directory::DirCacheConfig &dirCache = {})
{
    sim::Simulator simulator;
    for (const unsigned p : kLanes)
        simulator.addEngine(std::make_unique<coherence::LimitedEngine>(
            cfg.space.nProcesses, p, dirCache));
    simulator.run(*sim::TraceRepository::global().get(cfg));
    std::vector<coherence::EngineResults> merged(kLanes.size());
    for (std::size_t l = 0; l < kLanes.size(); ++l) {
        merged[l].name = simulator.engine(l).results().name;
        merged[l].merge(simulator.engine(l).results());
    }
    return merged;
}

/**
 * The analysis layer's collapse: limitedSweep runs the pointer counts
 * as lanes of one shared-table engine, serially and through a 4-job
 * parallel sweep, and both equal independent engines.
 */
TEST(MultiConfigDifferential, AnalysisMultiConfigOnOffIdentical)
{
    const std::vector<gen::WorkloadConfig> cfgs = {randomWorkloads()[0]};
    const auto independent = independentSweep(cfgs[0]);
    ASSERT_EQ(independent.size(), kLanes.size());
    for (const unsigned jobs : {1u, 4u}) {
        analysis::EvalOptions opts;
        opts.jobs = jobs;
        const auto collapsed = analysis::limitedSweep(cfgs, kLanes, opts);
        ASSERT_EQ(collapsed.size(), kLanes.size());
        for (std::size_t l = 0; l < kLanes.size(); ++l) {
            EXPECT_TRUE(collapsed[l] == independent[l])
                << "collapse at " << jobs << " jobs diverged at dir"
                << kLanes[l] << "nb";
        }
    }
}

/**
 * Finite directory caches force the fallback (eviction state is
 * per-configuration): with a DirCacheConfig set, limitedSweep must
 * equal independent LimitedEngines behind the same cache, serial and
 * parallel, because the collapse never engages.
 */
TEST(MultiConfigDifferential, DirCacheFallsBackIdentically)
{
    const std::vector<gen::WorkloadConfig> cfgs = {randomWorkloads()[1]};
    directory::DirCacheConfig dc;
    dc.enabled = true;
    dc.entries = 256;
    dc.associativity = 4;
    const auto independent = independentSweep(cfgs[0], dc);
    ASSERT_EQ(independent.size(), kLanes.size());
    for (const unsigned jobs : {1u, 4u}) {
        analysis::EvalOptions opts;
        opts.jobs = jobs;
        opts.dirCache = dc;
        const auto a = analysis::limitedSweep(cfgs, kLanes, opts);
        ASSERT_EQ(a.size(), kLanes.size());
        for (std::size_t l = 0; l < kLanes.size(); ++l) {
            EXPECT_TRUE(a[l] == independent[l])
                << "dir-cache fallback at " << jobs
                << " jobs diverged at dir" << kLanes[l] << "nb";
            EXPECT_GT(a[l].dirCacheEvictions, 0u)
                << "dir" << kLanes[l] << "nb never evicted";
        }
    }
}

} // namespace
