/**
 * @file
 * Differential suite for the single-pass builder: every way into the
 * prepared format — PreparedTrace::build over a MemoryTrace or any
 * RefSource, gen::generatePrepared, gen::spillPrepared,
 * spillFromSource and the repository — against the independent
 * reference in reference_prepare.hh.  Spilled files must be
 * byte-identical to writeStored() of the in-memory trace.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gen/direct_prepare.hh"
#include "gen/workload.hh"
#include "gen/workloads.hh"
#include "reference_prepare.hh"
#include "sim/trace_repo.hh"
#include "trace/prepared.hh"
#include "trace/store.hh"
#include "util/hash.hh"

namespace
{

using namespace dirsim;
using testref::expectMatchesReference;
using testref::referencePrepare;

/** The three standard workloads shrunk for test runtime. */
std::vector<gen::WorkloadConfig>
smallWorkloads(std::uint64_t refs = 40000)
{
    auto cfgs = gen::standardWorkloads(false);
    for (auto &cfg : cfgs)
        cfg.totalRefs = refs;
    return cfgs;
}

testref::ReferencePrepared
reference(const gen::WorkloadConfig &cfg,
          const trace::PrepareOptions &opts)
{
    return referencePrepare(gen::generateTrace(cfg), opts);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** Unique scratch path under the system temp directory. */
std::string
tmpPath(const std::string &stem)
{
    const auto dir =
        std::filesystem::temp_directory_path() / "dirsim_direct_gen";
    std::filesystem::create_directories(dir);
    return (dir / stem).string();
}

/** Serves a MemoryTrace at most @p cap records per nextBatch(). */
class CappedSource final : public trace::RefSource
{
  public:
    CappedSource(const trace::MemoryTrace &trace, std::size_t cap)
        : _inner(trace), _cap(cap)
    {
    }

    bool next(trace::TraceRecord &rec) override
    {
        return _inner.next(rec);
    }
    std::size_t nextBatch(trace::TraceRecord *out,
                          std::size_t max) override
    {
        return _inner.nextBatch(out, std::min(max, _cap));
    }
    void rewind() override { _inner.rewind(); }

  private:
    trace::MemoryTraceSource _inner;
    std::size_t _cap;
};

TEST(DirectGen, MatchesReferenceForEveryStandardWorkload)
{
    for (const auto &cfg : smallWorkloads()) {
        SCOPED_TRACE(cfg.name);
        const trace::PrepareOptions opts;
        expectMatchesReference(gen::generatePrepared(cfg, opts),
                               reference(cfg, opts));
    }
}

/** The lock-test filter and both sharing domains, in memory: the
 *  generated build and build() over the materialised trace. */
TEST(DirectGen, FilterAndSharingDomainMatchReference)
{
    const auto cfg = smallWorkloads()[1];
    const trace::MemoryTrace raw = gen::generateTrace(cfg);
    for (const bool drop : {false, true}) {
        for (const auto domain :
             {sim::SharingDomain::Process,
              sim::SharingDomain::Processor}) {
            SCOPED_TRACE("drop=" + std::to_string(drop) + " domain=" +
                         std::to_string(static_cast<int>(domain)));
            trace::PrepareOptions opts;
            opts.dropLockTests = drop;
            opts.domain = domain;
            const auto want = referencePrepare(raw, opts);
            expectMatchesReference(gen::generatePrepared(cfg, opts),
                                   want);
            expectMatchesReference(
                trace::PreparedTrace::build(raw, opts), want);
        }
    }
}

/** Timed per-CPU streams under the same option matrix. */
TEST(DirectGen, TimedStreamsMatchReference)
{
    const auto cfg = smallWorkloads(20000)[0];
    const trace::MemoryTrace raw = gen::generateTrace(cfg);
    for (const bool drop : {false, true}) {
        for (const auto domain :
             {sim::SharingDomain::Process,
              sim::SharingDomain::Processor}) {
            SCOPED_TRACE("drop=" + std::to_string(drop) + " domain=" +
                         std::to_string(static_cast<int>(domain)));
            trace::PrepareOptions opts;
            opts.timedStreams = true;
            opts.dropLockTests = drop;
            opts.domain = domain;
            const auto want = referencePrepare(raw, opts);
            const trace::PreparedTrace built =
                gen::generatePrepared(cfg, opts);
            ASSERT_TRUE(built.hasTimedStreams());
            expectMatchesReference(built, want);
            expectMatchesReference(
                trace::PreparedTrace::build(raw, opts), want);
        }
    }
}

/** Every spilled file, timed or not, is byte-identical to
 *  writeStored() of the in-memory build. */
TEST(DirectGen, SpillIsByteIdenticalToWriteStored)
{
    const auto cfg = smallWorkloads(30000)[2];
    for (const bool timed : {false, true}) {
        trace::PrepareOptions opts;
        opts.timedStreams = timed;
        const trace::PreparedTrace built =
            gen::generatePrepared(cfg, opts);
        // Several store chunks per column.  A timed spill flushes data
        // and CPU chunks interleaved in stream order, writeStored()
        // column by column, so for timed traces only a one-chunk file
        // has the same layout both ways.
        std::vector<std::uint64_t> chunks = {cfg.totalRefs};
        if (!timed)
            chunks.push_back(1000);
        for (const std::uint64_t chunk : chunks) {
            SCOPED_TRACE("timed=" + std::to_string(timed) +
                         " chunk=" + std::to_string(chunk));
            trace::StoreWriteOptions store;
            store.chunkRefs = chunk;
            const std::string spilled = tmpPath("spilled.dspt");
            const std::string written = tmpPath("written.dspt");
            const auto info =
                gen::spillPrepared(cfg, opts, spilled, store);
            const auto ref = trace::writeStored(built, written, store);
            EXPECT_EQ(info.instrRefs, ref.instrRefs);
            EXPECT_EQ(info.dataRefs, ref.dataRefs);
            EXPECT_EQ(info.nUnits, ref.nUnits);
            EXPECT_EQ(info.nCpus, ref.nCpus);
            EXPECT_EQ(info.fileBytes, ref.fileBytes);
            EXPECT_EQ(slurp(spilled), slurp(written))
                << "file bytes differ";
            std::filesystem::remove(spilled);
            std::filesystem::remove(written);
        }
    }
}

/**
 * A timed spill flushes data and CPU chunks in stream order, the
 * layout the format has always had: this file's digest was recorded
 * with the two-phase builder, before the single pass replaced it.
 */
TEST(DirectGen, TimedSpillLayoutIsPinned)
{
    auto cfg = gen::peroConfig(false);
    cfg.totalRefs = 30000;
    trace::PrepareOptions opts;
    opts.timedStreams = true;
    // An odd chunk size makes CPU chunks fill between data chunks
    // inside one source batch, where the order is observable.
    trace::StoreWriteOptions store;
    store.chunkRefs = 777;
    const std::string path = tmpPath("pinned_timed.dspt");
    gen::spillPrepared(cfg, opts, path, store);
    const std::string bytes = slurp(path);
    EXPECT_EQ(bytes.size(), 275416u);
    EXPECT_EQ(util::StreamHash64::of(bytes.data(), bytes.size()),
              0x097d0ac8ccb81d93ULL);
    std::filesystem::remove(path);
}

/**
 * Every producer numbers blocks identically: in memory, spilled by
 * gen::spillPrepared and by spillFromSource over a fresh source, the
 * columns, timed per-CPU streams and names equal the reference, for
 * every preset, with and without the lock-test filter.
 */
TEST(DirectGen, EveryProducerNumbersBlocksIdentically)
{
    trace::StoreWriteOptions store;
    store.chunkRefs = 3001;
    for (const auto &cfg : smallWorkloads(20000)) {
        for (const bool drop : {false, true}) {
            for (const bool timed : {false, true}) {
                SCOPED_TRACE(cfg.name + " drop=" + std::to_string(drop) +
                             " timed=" + std::to_string(timed));
                trace::PrepareOptions opts;
                opts.dropLockTests = drop;
                opts.timedStreams = timed;
                const auto want = reference(cfg, opts);
                ASSERT_GT(want.names.size(), 0u);
                const trace::PreparedTrace built =
                    gen::generatePrepared(cfg, opts);
                expectMatchesReference(built, want);

                const std::string direct = tmpPath("numbering_direct");
                gen::spillPrepared(cfg, opts, direct, store);
                expectMatchesReference(
                    trace::StoredTrace::open(direct)->loadAll(), want,
                    false);
                if (!timed) {
                    // Timed layouts differ by design at several chunks
                    // (SpillIsByteIdenticalToWriteStored).
                    const std::string written = tmpPath("numbering_written");
                    trace::writeStored(built, written, store);
                    EXPECT_EQ(slurp(direct), slurp(written));
                    std::filesystem::remove(written);
                }
                std::filesystem::remove(direct);

                const std::string spilled = tmpPath("numbering_source");
                gen::WorkloadSource source(cfg);
                trace::spillFromSource(source, cfg.name, opts, spilled,
                                       store);
                expectMatchesReference(
                    trace::StoredTrace::open(spilled)->loadAll(), want,
                    false);
                std::filesystem::remove(spilled);
            }
        }
    }
}

/** Batch boundaries are invisible: a source that hands out 1, 7 or
 *  4096 records per call builds and spills the same trace. */
TEST(DirectGen, SourceBatchSizeIsInvisible)
{
    const auto cfg = smallWorkloads(20000)[0];
    const trace::MemoryTrace raw = gen::generateTrace(cfg);
    trace::PrepareOptions opts;
    opts.timedStreams = true;
    const auto want = referencePrepare(raw, opts);
    trace::StoreWriteOptions store;
    store.chunkRefs = 1000;
    const std::string refPath = tmpPath("batch_ref.dspt");
    trace::MemoryTraceSource whole(raw);
    trace::spillFromSource(whole, cfg.name, opts, refPath, store);
    for (const std::size_t cap : {1u, 7u, 4096u}) {
        SCOPED_TRACE("cap=" + std::to_string(cap));
        CappedSource source(raw, cap);
        expectMatchesReference(
            trace::PreparedTrace::build(source, cfg.name, opts), want);
        source.rewind();
        const std::string path = tmpPath("batch_capped.dspt");
        trace::spillFromSource(source, cfg.name, opts, path, store);
        EXPECT_EQ(slurp(path), slurp(refPath)) << "file bytes differ";
        std::filesystem::remove(path);
    }
    std::filesystem::remove(refPath);
}

/**
 * A hand-made stream whose lowering batches (4096 records each) mix
 * instruction fetches, data references and lock tests right across
 * their boundaries: batch 0 is a random mix, batch 1 holds only
 * instruction fetches and lock tests (no data reference at all once
 * lock tests are dropped), and batch 2 opens with first touches.
 */
trace::MemoryTrace
mixedBatchTrace()
{
    constexpr std::size_t batch = 4096;
    std::mt19937 rng(20240611);
    trace::MemoryTrace out;
    for (std::size_t i = 0; i < 3 * batch + 1500; ++i) {
        trace::TraceRecord r;
        r.cpu = static_cast<std::uint8_t>(rng() % 5);
        r.pid = static_cast<std::uint16_t>(rng() % 9);
        const unsigned pick = rng() % 4;
        const bool onlyInstrAndTests = i >= batch && i < 2 * batch;
        if (pick == 0 || (onlyInstrAndTests && pick == 1)) {
            r.type = trace::RefType::Instr;
        } else if (pick == 1 || onlyInstrAndTests) {
            r.type = trace::RefType::Read;
            r.flags = trace::FlagLockTest;
        } else {
            r.type = pick == 2 ? trace::RefType::Read
                               : trace::RefType::Write;
        }
        // Reuse a few hundred blocks; the first data references of
        // batch 2 touch blocks never seen before.
        const bool fresh = i >= 2 * batch && i < 2 * batch + 64;
        r.addr = 16 * (fresh ? 100000 + i : rng() % 700);
        out.append(r);
    }
    return out;
}

TEST(DirectGen, MixedBatchesMatchReference)
{
    const trace::MemoryTrace raw = mixedBatchTrace();
    for (const bool timed : {false, true}) {
        for (const bool drop : {false, true}) {
            SCOPED_TRACE("timed=" + std::to_string(timed) +
                         " drop=" + std::to_string(drop));
            trace::PrepareOptions opts;
            opts.timedStreams = timed;
            opts.dropLockTests = drop;
            expectMatchesReference(trace::PreparedTrace::build(raw, opts),
                                   referencePrepare(raw, opts));
        }
    }
}

/** byteSize() feeds the repository's budget, so a built trace must
 *  report the same bytes as that trace read back from its store file,
 *  whose tables are exactly sized. */
TEST(DirectGen, BuiltByteSizeEqualsLoadedByteSize)
{
    const auto cfg = smallWorkloads(20000)[0];
    for (const bool timed : {false, true}) {
        SCOPED_TRACE("timed=" + std::to_string(timed));
        trace::PrepareOptions opts;
        opts.timedStreams = timed;
        const trace::PreparedTrace built = gen::generatePrepared(cfg, opts);
        const std::string path = tmpPath("byte_size.dspt");
        trace::writeStored(built, path);
        EXPECT_EQ(built.byteSize(),
                  trace::StoredTrace::open(path)->loadAll().byteSize());
        std::filesystem::remove(path);
    }
}

/** The repository's builds, timed or not, land on the reference, and
 *  concurrent getters of one key share one build. */
TEST(DirectGen, RepositoryBuildsMatchReference)
{
    sim::TraceRepository repo(1);
    const auto cfg = smallWorkloads(20000)[0];
    trace::PrepareOptions timed;
    timed.timedStreams = true;
    std::vector<std::shared_ptr<const trace::PreparedTrace>> got(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t)
        threads.emplace_back([&, t] {
            got[t] = repo.get(cfg, t % 2 ? timed : trace::PrepareOptions{});
        });
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(repo.buildCount(), 2u);
    expectMatchesReference(*got[0], reference(cfg, {}));
    expectMatchesReference(*got[1], reference(cfg, timed));
    EXPECT_EQ(got[2].get(), got[0].get());
    EXPECT_EQ(got[3].get(), got[1].get());
}

TEST(DirectGen, TooManySharingUnitsThrowsLikeReference)
{
    auto cfg = smallWorkloads(40000)[0];
    cfg.space.nProcesses = 300; // > the 8-bit unit column's 256.
    cfg.quantumRefs = 16; // Rotate all 300 through the CPUs quickly.
    const trace::PrepareOptions opts; // Process domain.
    EXPECT_THROW(reference(cfg, opts), std::invalid_argument);
    EXPECT_THROW(gen::generatePrepared(cfg, opts), std::invalid_argument);
    const std::string path = tmpPath("too_many_units.dspt");
    EXPECT_THROW(gen::spillPrepared(cfg, opts, path),
                 std::invalid_argument);
    EXPECT_FALSE(std::filesystem::exists(path));
}

} // namespace
