/**
 * @file
 * Tests for the TraceRepository disk tier: cold-miss spills, warm-hit
 * serving (in-process, cross-instance and cross-process), LRU
 * eviction under a byte budget, corruption recovery, and the
 * RepoStats counters that make all of it observable.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "coherence/inval_engine.hh"
#include "gen/workload.hh"
#include "gen/workloads.hh"
#include "sim/simulator.hh"
#include "sim/trace_repo.hh"
#include "trace/prepared.hh"
#include "trace/store.hh"

// fork()-based tests are skipped under TSan: forking a process that
// has ever run threads is unsupported there.
#if defined(__SANITIZE_THREAD__)
#define DIRSIM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DIRSIM_TSAN 1
#endif
#endif
#ifndef DIRSIM_TSAN
#define DIRSIM_TSAN 0
#endif

namespace
{

using namespace dirsim;
namespace fs = std::filesystem;

gen::WorkloadConfig
smallWorkload()
{
    auto cfg = gen::standardWorkloads()[0];
    cfg.totalRefs = 30'000;
    return cfg;
}

/** Unique scratch cache directory, removed on destruction. */
struct DirGuard
{
    explicit DirGuard(const std::string &stem)
        : path(testing::TempDir() + "dirsim-cache-" + stem + "-" +
               std::to_string(::getpid()))
    {
        fs::remove_all(path);
    }
    ~DirGuard() { fs::remove_all(path); }
    std::string path;
};

sim::DiskCacheConfig
diskConfig(const DirGuard &dir,
           std::uint64_t chunkRefs = 4096,
           std::uint64_t budget = 4ull * 1024 * 1024 * 1024)
{
    sim::DiskCacheConfig cfg;
    cfg.dir = dir.path;
    cfg.chunkRefs = chunkRefs;
    cfg.budgetBytes = budget;
    return cfg;
}

/** Store files currently in the cache directory. */
std::vector<fs::path>
cacheFiles(const std::string &dir)
{
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".dspt")
            files.push_back(entry.path());
    return files;
}

/** Engine results of replaying @p cfg directly from the generator. */
coherence::EngineResults
directResults(const gen::WorkloadConfig &cfg)
{
    coherence::InvalEngineConfig ecfg;
    ecfg.nUnits = cfg.space.nProcesses;
    sim::Simulator simulator;
    coherence::CoherenceEngine &engine = simulator.addEngine(
        std::make_unique<coherence::InvalEngine>(ecfg));
    gen::WorkloadSource source(cfg);
    simulator.run(source);
    return engine.results();
}

/** Engine results of replaying the stored trace's span stream. */
coherence::EngineResults
streamedResults(const trace::StoredTrace &stored,
                const gen::WorkloadConfig &cfg)
{
    coherence::InvalEngineConfig ecfg;
    ecfg.nUnits = cfg.space.nProcesses;
    sim::Simulator simulator;
    coherence::CoherenceEngine &engine = simulator.addEngine(
        std::make_unique<coherence::InvalEngine>(ecfg));
    const auto spans = stored.spanCursor();
    simulator.run(*spans);
    return engine.results();
}

TEST(TraceCacheTest, GetStoredRequiresConfiguredDiskTier)
{
    sim::TraceRepository repo(1);
    EXPECT_FALSE(repo.diskCacheEnabled());
    EXPECT_THROW(repo.getStored(smallWorkload()), std::logic_error);
}

TEST(TraceCacheTest, ColdMissSpillsAndWarmInstanceServesFile)
{
    const auto cfg = smallWorkload();
    DirGuard dir("cold-warm");

    // Cold: the first repository generates, spills and replays.
    sim::TraceRepository first(1);
    first.setDiskCache(diskConfig(dir));
    EXPECT_TRUE(first.diskCacheEnabled());
    const auto stored = first.getStored(cfg);
    ASSERT_NE(stored, nullptr);
    EXPECT_EQ(stored->totalRefs(), cfg.totalRefs);
    {
        const sim::RepoStats s = first.stats();
        EXPECT_EQ(s.builds, 1u);
        EXPECT_EQ(s.diskWrites, 1u);
        EXPECT_EQ(s.diskHits, 0u);
    }
    EXPECT_EQ(cacheFiles(dir.path).size(), 1u);
    EXPECT_TRUE(streamedResults(*stored, cfg) == directResults(cfg));

    // A repeat on the same instance is an in-memory hit, not a
    // second open or build.
    const auto again = first.getStored(cfg);
    EXPECT_EQ(again.get(), stored.get());
    EXPECT_EQ(first.stats().builds, 1u);

    // Warm: a fresh instance on the same directory does zero
    // generate/prepare work for both tiers of access.
    sim::TraceRepository second(1);
    second.setDiskCache(diskConfig(dir));
    const auto warmStored = second.getStored(cfg);
    {
        const sim::RepoStats s = second.stats();
        EXPECT_EQ(s.builds, 0u);
        EXPECT_EQ(s.diskHits, 1u);
        EXPECT_EQ(s.diskWrites, 0u);
    }
    EXPECT_TRUE(streamedResults(*warmStored, cfg) ==
                directResults(cfg));

    // The in-memory get() path also rides the warm file: column
    // read-back, not re-generation.
    sim::TraceRepository third(1);
    third.setDiskCache(diskConfig(dir));
    const auto prepared = third.get(cfg);
    EXPECT_EQ(prepared->totalRefs(), cfg.totalRefs);
    {
        const sim::RepoStats s = third.stats();
        EXPECT_EQ(s.builds, 0u);
        EXPECT_EQ(s.diskHits, 1u);
    }
}

TEST(TraceCacheTest, ChunkRefsIsNotPartOfTheCacheKey)
{
    const auto cfg = smallWorkload();
    DirGuard dir("chunkrefs");

    sim::TraceRepository writer(1);
    writer.setDiskCache(diskConfig(dir, 1024));
    writer.getStored(cfg);

    // A different replay chunking must still hit the same file.
    sim::TraceRepository reader(1);
    reader.setDiskCache(diskConfig(dir, 16384));
    reader.getStored(cfg);
    EXPECT_EQ(reader.stats().builds, 0u);
    EXPECT_EQ(reader.stats().diskHits, 1u);
}

/**
 * Moving the disk tier to another directory with another chunking
 * forgets what getStored() handed out before: the same key is spilled
 * to the new directory at the new chunk size, not served from the
 * first directory's object.
 */
TEST(TraceCacheTest, MovingTheTierForgetsStoredTraces)
{
    const auto cfg = smallWorkload();
    DirGuard dirA("move-a");
    DirGuard dirB("move-b");

    sim::TraceRepository repo(1);
    repo.setDiskCache(diskConfig(dirA, 64 * 1024));
    const auto first = repo.getStored(cfg);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->chunkRefs(), 64u * 1024);
    EXPECT_EQ(first->numChunks(), 1u);

    repo.setDiskCache(diskConfig(dirB, 8 * 1024));
    const auto moved = repo.getStored(cfg);
    ASSERT_NE(moved, nullptr);
    EXPECT_NE(moved.get(), first.get());
    EXPECT_EQ(moved->chunkRefs(), 8u * 1024);
    EXPECT_GT(moved->numChunks(), 1u);
    EXPECT_EQ(cacheFiles(dirB.path).size(), 1u);
    EXPECT_EQ(repo.stats().builds, 2u);
    EXPECT_TRUE(streamedResults(*moved, cfg) == directResults(cfg));
}

TEST(TraceCacheTest, ConcurrentGetStoredBuildsExactlyOnce)
{
    const auto cfg = smallWorkload();
    DirGuard dir("threads");
    sim::TraceRepository repo(1);
    repo.setDiskCache(diskConfig(dir));

    std::vector<std::shared_ptr<const trace::StoredTrace>> results(8);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < results.size(); ++t)
        threads.emplace_back([&repo, &results, &cfg, t] {
            results[t] = repo.getStored(cfg);
        });
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(repo.stats().builds, 1u);
    for (const auto &result : results) {
        ASSERT_NE(result, nullptr);
        EXPECT_EQ(result.get(), results[0].get());
    }
}

TEST(TraceCacheTest, SecondProcessOnWarmDirDoesZeroBuildWork)
{
#if DIRSIM_TSAN
    GTEST_SKIP() << "fork() under TSan is unreliable";
#endif
    const auto cfg = smallWorkload();
    DirGuard dir("two-proc");

    // Parent warms the directory.
    {
        sim::TraceRepository warm(1);
        warm.setDiskCache(diskConfig(dir));
        warm.getStored(cfg);
    }

    // The acceptance bar: a second *process* re-running the same
    // workload on the warm directory performs zero generate/prepare
    // work, observable through the RepoStats disk-hit counters.
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        int code = 1;
        try {
            sim::TraceRepository repo(1);
            repo.setDiskCache(diskConfig(dir));
            const auto stored = repo.getStored(cfg);
            const sim::RepoStats s = repo.stats();
            if (stored != nullptr &&
                stored->totalRefs() == cfg.totalRefs &&
                s.builds == 0 && s.diskHits == 1 && s.diskWrites == 0)
                code = 0;
        } catch (...) {
            code = 2;
        }
        ::_exit(code);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "warm-dir child rebuilt or failed";
}

TEST(TraceCacheTest, TwoProcessesRacingOnColdDirBothSucceed)
{
#if DIRSIM_TSAN
    GTEST_SKIP() << "fork() under TSan is unreliable";
#endif
    const auto cfg = smallWorkload();
    DirGuard dir("race");

    // Both children start cold and spill concurrently; the pid-
    // suffixed temp + rename protocol means neither can observe a
    // torn file, and the directory converges to one valid entry.
    std::vector<pid_t> children;
    for (int i = 0; i < 2; ++i) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            int code = 1;
            try {
                sim::TraceRepository repo(1);
                repo.setDiskCache(diskConfig(dir));
                const auto stored = repo.getStored(cfg);
                if (stored != nullptr &&
                    stored->totalRefs() == cfg.totalRefs)
                    code = 0;
            } catch (...) {
                code = 2;
            }
            ::_exit(code);
        }
        children.push_back(pid);
    }
    for (const pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0) << "racing child failed";
    }

    // No temp litter, and the surviving file is valid and warm.
    EXPECT_EQ(cacheFiles(dir.path).size(), 1u);
    sim::TraceRepository after(1);
    after.setDiskCache(diskConfig(dir));
    after.getStored(cfg);
    EXPECT_EQ(after.stats().builds, 0u);
    EXPECT_EQ(after.stats().diskHits, 1u);
}

TEST(TraceCacheTest, DiskEvictionHonorsByteBudget)
{
    DirGuard dir("evict");
    // A 1-byte budget can keep nothing but the always-spared newest
    // file, so every additional spill must evict a predecessor.
    sim::TraceRepository repo(1);
    repo.setDiskCache(diskConfig(dir, 4096, 1));

    auto cfg = smallWorkload();
    cfg.totalRefs = 10'000;
    repo.getStored(cfg);
    EXPECT_EQ(cacheFiles(dir.path).size(), 1u);

    auto other = cfg;
    other.seed ^= 0x5a5a;
    repo.getStored(other);
    EXPECT_EQ(cacheFiles(dir.path).size(), 1u);
    const sim::RepoStats s = repo.stats();
    EXPECT_EQ(s.diskWrites, 2u);
    EXPECT_GE(s.diskEvictions, 1u);
}

TEST(TraceCacheTest, CorruptWarmFileIsRebuiltNotServed)
{
    const auto cfg = smallWorkload();
    DirGuard dir("corrupt");
    {
        sim::TraceRepository warm(1);
        warm.setDiskCache(diskConfig(dir, 512));
        warm.getStored(cfg);
    }
    auto files = cacheFiles(dir.path);
    ASSERT_EQ(files.size(), 1u);

    // Flip one byte deep in the chunk payload: the file still opens,
    // so only the per-chunk digests can catch it at read time.
    {
        std::fstream f(files[0],
                       std::ios::in | std::ios::out | std::ios::binary);
        const auto size =
            static_cast<std::streamoff>(fs::file_size(files[0]));
        f.seekg(size * 2 / 3);
        char byte = 0;
        f.get(byte);
        f.seekp(size * 2 / 3);
        f.put(static_cast<char>(byte ^ 0x10));
    }

    sim::TraceRepository repo(1);
    repo.setDiskCache(diskConfig(dir, 512));
    const auto prepared = repo.get(cfg);
    EXPECT_EQ(prepared->totalRefs(), cfg.totalRefs);
    // The corruption was detected and the trace rebuilt from the
    // generator, never served wrong.
    EXPECT_EQ(repo.stats().builds, 1u);
    EXPECT_EQ(repo.stats().diskHits, 0u);
}

TEST(TraceCacheTest, FilenameCollisionWithWrongFingerprintIsAMiss)
{
    const auto cfg = smallWorkload();
    DirGuard dir("collide");
    {
        sim::TraceRepository warm(1);
        warm.setDiskCache(diskConfig(dir));
        warm.getStored(cfg);
    }
    auto files = cacheFiles(dir.path);
    ASSERT_EQ(files.size(), 1u);

    // Overwrite the cache file with a *valid* store that belongs to
    // some other configuration (wrong fingerprint): the reader must
    // treat it as a miss and rebuild, not replay the impostor.
    auto other = cfg;
    other.totalRefs = 5'000;
    trace::StoreWriteOptions wopts;
    wopts.configFingerprint = 0x1234;
    trace::writeStored(
        trace::PreparedTrace::build(gen::generateTrace(other)),
        files[0].string(), wopts);

    sim::TraceRepository repo(1);
    repo.setDiskCache(diskConfig(dir));
    const auto stored = repo.getStored(cfg);
    EXPECT_EQ(stored->totalRefs(), cfg.totalRefs);
    EXPECT_EQ(repo.stats().builds, 1u);
    EXPECT_EQ(repo.stats().diskHits, 0u);
}

TEST(TraceCacheTest, StatsSummaryNamesEveryCounter)
{
    sim::RepoStats stats;
    stats.hits = 1;
    stats.misses = 2;
    stats.builds = 3;
    stats.diskHits = 4;
    stats.diskWrites = 5;
    stats.evictions = 6;
    stats.diskEvictions = 7;
    const std::string line = stats.summary();
    for (const char *needle :
         {"1 hits", "2 misses", "3 builds", "4 disk hits",
          "5 disk writes", "6 evictions", "7 disk evictions"})
        EXPECT_NE(line.find(needle), std::string::npos)
            << "summary '" << line << "' lacks '" << needle << "'";
}

} // namespace
