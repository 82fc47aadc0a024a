/**
 * @file
 * Tests for the out-of-core stored-trace format (trace/store.hh):
 * write → read round trips, the windowed span/CPU cursors, corruption
 * and version rejection, and bit-identical streamed replay.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "coherence/dragon_engine.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "gen/workload.hh"
#include "gen/workloads.hh"
#include "sim/cost_model.hh"
#include "sim/simulator.hh"
#include "timing/timed_bus.hh"
#include "trace/prepared.hh"
#include "trace/store.hh"
#include "trace/trace.hh"
#include "util/aligned.hh"

namespace
{

using namespace dirsim;

gen::WorkloadConfig
smallWorkload()
{
    auto cfg = gen::standardWorkloads()[0];
    cfg.totalRefs = 30'000;
    return cfg;
}

/** A per-test scratch path under the gtest temp dir. */
std::string
scratchPath(const std::string &stem)
{
    return testing::TempDir() + "dirsim-store-" + stem + ".dspt";
}

struct PathGuard
{
    std::string path;
    ~PathGuard() { ::remove(path.c_str()); }
};

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    return bytes;
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
}

void
expectColumnsEqual(const trace::PreparedTrace &a,
                   const trace::PreparedTrace &b)
{
    EXPECT_EQ(a.name(), b.name());
    EXPECT_TRUE(a.options() == b.options());
    EXPECT_EQ(a.instrRefs(), b.instrRefs());
    ASSERT_EQ(a.dataRefs(), b.dataRefs());
    EXPECT_EQ(a.numUnits(), b.numUnits());
    EXPECT_EQ(a.numCpus(), b.numCpus());
    ASSERT_EQ(a.numBlocks(), b.numBlocks());
    for (std::size_t i = 0; i < a.numBlocks(); ++i)
        ASSERT_EQ(a.blockNames()[i], b.blockNames()[i]) << "block " << i;
    for (std::size_t i = 0; i < a.dataRefs(); ++i) {
        ASSERT_EQ(a.blockData()[i], b.blockData()[i]) << "ref " << i;
        ASSERT_EQ(a.unitData()[i], b.unitData()[i]) << "ref " << i;
        ASSERT_EQ(a.typeFlagsData()[i], b.typeFlagsData()[i])
            << "ref " << i;
    }
    ASSERT_EQ(a.cpuStreams().size(), b.cpuStreams().size());
    for (std::size_t c = 0; c < a.cpuStreams().size(); ++c) {
        EXPECT_EQ(a.cpuStreams()[c].block, b.cpuStreams()[c].block);
        EXPECT_EQ(a.cpuStreams()[c].unit, b.cpuStreams()[c].unit);
        EXPECT_EQ(a.cpuStreams()[c].typeFlags,
                  b.cpuStreams()[c].typeFlags);
    }
}

TEST(StoredTraceTest, WriteStoredRoundTripsEverything)
{
    const auto cfg = smallWorkload();
    trace::PrepareOptions opts;
    opts.timedStreams = true;
    const trace::PreparedTrace prepared =
        trace::PreparedTrace::build(gen::generateTrace(cfg), opts);

    PathGuard file{scratchPath("roundtrip")};
    trace::StoreWriteOptions wopts;
    wopts.chunkRefs = 4096; // several chunks per column
    wopts.configFingerprint = 0xfeedfacecafef00dULL;
    const trace::StoredTraceInfo info =
        trace::writeStored(prepared, file.path, wopts);
    EXPECT_EQ(info.instrRefs, prepared.instrRefs());
    EXPECT_EQ(info.dataRefs, prepared.dataRefs());
    EXPECT_GT(info.fileBytes, 0u);

    const auto stored = trace::StoredTrace::open(file.path);
    EXPECT_EQ(stored->name(), prepared.name());
    EXPECT_TRUE(stored->options() == opts);
    EXPECT_EQ(stored->instrRefs(), prepared.instrRefs());
    EXPECT_EQ(stored->dataRefs(), prepared.dataRefs());
    EXPECT_EQ(stored->numUnits(), prepared.numUnits());
    EXPECT_EQ(stored->numCpus(), prepared.numCpus());
    EXPECT_TRUE(stored->hasTimedStreams());
    EXPECT_EQ(stored->chunkRefs(), wopts.chunkRefs);
    EXPECT_GT(stored->numChunks(), 1u);
    EXPECT_EQ(stored->configFingerprint(), wopts.configFingerprint);
    EXPECT_EQ(stored->fileBytes(), info.fileBytes);

    expectColumnsEqual(stored->loadAll(), prepared);
}

TEST(StoredTraceTest, SpanConcatenationEqualsColumns)
{
    const auto cfg = smallWorkload();
    const trace::PreparedTrace prepared =
        trace::PreparedTrace::build(gen::generateTrace(cfg));

    PathGuard file{scratchPath("spans")};
    trace::StoreWriteOptions wopts;
    wopts.chunkRefs = 1000;
    trace::writeStored(prepared, file.path, wopts);
    const auto stored = trace::StoredTrace::open(file.path);

    const auto checkOnePass = [&](trace::PreparedSpanSource &spans) {
        std::size_t at = 0;
        std::size_t nSpans = 0;
        trace::PreparedSpan span;
        while (spans.nextSpan(span)) {
            ++nSpans;
            ASSERT_LE(at + span.n, prepared.dataRefs());
            for (std::size_t i = 0; i < span.n; ++i) {
                ASSERT_EQ(span.block[i], prepared.blockData()[at + i]);
                ASSERT_EQ(span.unit[i], prepared.unitData()[at + i]);
                ASSERT_EQ(span.typeFlags[i],
                          prepared.typeFlagsData()[at + i]);
            }
            at += span.n;
        }
        EXPECT_EQ(at, prepared.dataRefs());
        EXPECT_EQ(nSpans, stored->numChunks());
    };

    const auto spans = stored->spanCursor();
    checkOnePass(*spans);
    // rewind() restarts the sequence from the first chunk.
    spans->rewind();
    checkOnePass(*spans);
}

/** util::AlignedVector, the columns' storage, starts on a cache line
 *  whatever its element type. */
TEST(StoredTraceTest, AlignedVectorIsCacheLineAligned)
{
    util::AlignedVector<std::uint8_t> v(100);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) %
                  util::kCacheLineBytes,
              0u);
    util::AlignedVector<std::uint32_t> w(3);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) %
                  util::kCacheLineBytes,
              0u);
}

/**
 * The alignment contract: in-memory columns and every streamed span
 * must start on a cache line, so no load over the prepared columns
 * splits a line.  Chunk payload offsets are 64-aligned in the file
 * and the reader's mmap/pread windows preserve that.
 */
TEST(StoredTraceTest, ColumnsAndSpansAreCacheLineAligned)
{
    const auto aligned = [](const void *p) {
        return reinterpret_cast<std::uintptr_t>(p) %
                   util::kCacheLineBytes ==
               0;
    };

    const auto cfg = smallWorkload();
    const trace::PreparedTrace prepared =
        trace::PreparedTrace::build(gen::generateTrace(cfg));
    EXPECT_TRUE(aligned(prepared.blockData()));
    EXPECT_TRUE(aligned(prepared.unitData()));
    EXPECT_TRUE(aligned(prepared.typeFlagsData()));

    PathGuard file{scratchPath("aligned")};
    trace::StoreWriteOptions wopts;
    wopts.chunkRefs = 4096;
    trace::writeStored(prepared, file.path, wopts);
    const auto stored = trace::StoredTrace::open(file.path);
    ASSERT_GT(stored->numChunks(), 1u);

    const auto spans = stored->spanCursor();
    trace::PreparedSpan span;
    std::size_t nSpans = 0;
    while (spans->nextSpan(span)) {
        ++nSpans;
        EXPECT_TRUE(aligned(span.block));
    }
    EXPECT_EQ(nSpans, stored->numChunks());
}

TEST(StoredTraceTest, SpillFromSourceMatchesInMemoryDecode)
{
    // spillFromSource streams generate → decode → disk in O(chunk)
    // memory; the columns it lays down must be bit-identical to the
    // materialise-then-decode path.
    const auto cfg = smallWorkload();
    trace::PrepareOptions opts;
    opts.timedStreams = true;
    const trace::PreparedTrace viaMemory =
        trace::PreparedTrace::build(gen::generateTrace(cfg), opts);

    PathGuard file{scratchPath("spill")};
    gen::WorkloadSource source(cfg);
    trace::StoreWriteOptions wopts;
    wopts.chunkRefs = 2048;
    const trace::StoredTraceInfo info = trace::spillFromSource(
        source, viaMemory.name(), opts, file.path, wopts);
    EXPECT_EQ(info.dataRefs, viaMemory.dataRefs());
    EXPECT_EQ(info.instrRefs, viaMemory.instrRefs());

    const auto stored = trace::StoredTrace::open(file.path);
    expectColumnsEqual(stored->loadAll(), viaMemory);
}

TEST(StoredTraceTest, StreamedSimulatorRunMatchesInMemoryRun)
{
    const auto cfg = smallWorkload();
    const trace::PreparedTrace prepared =
        trace::PreparedTrace::build(gen::generateTrace(cfg));

    const auto makeEngine = [&cfg] {
        coherence::InvalEngineConfig ecfg;
        ecfg.nUnits = cfg.space.nProcesses;
        return std::make_unique<coherence::InvalEngine>(ecfg);
    };
    sim::Simulator memSim;
    coherence::CoherenceEngine &memEngine =
        memSim.addEngine(makeEngine());
    const std::uint64_t memRefs = memSim.run(prepared);

    const auto expectStreamedMatches = [&](const std::string &path) {
        const auto stored = trace::StoredTrace::open(path);
        sim::Simulator fileSim;
        coherence::CoherenceEngine &fileEngine =
            fileSim.addEngine(makeEngine());
        const auto spans = stored->spanCursor();
        EXPECT_EQ(fileSim.run(*spans), memRefs) << path;
        EXPECT_TRUE(memEngine.results() == fileEngine.results()) << path;
    };

    // The decoded trace written out, at an odd chunk size so spans
    // straddle chunk edges.
    PathGuard file{scratchPath("simrun")};
    trace::StoreWriteOptions wopts;
    wopts.chunkRefs = 777;
    trace::writeStored(prepared, file.path, wopts);
    expectStreamedMatches(file.path);

    // Spilled straight from the generator, never materialised.
    for (const std::uint64_t chunk : {4096u, 16384u}) {
        PathGuard spilled{scratchPath("simspill")};
        gen::WorkloadSource source(cfg);
        wopts.chunkRefs = chunk;
        trace::spillFromSource(source, cfg.name, {}, spilled.path,
                               wopts);
        expectStreamedMatches(spilled.path);
    }
}

/**
 * A stored timed replay reads each CPU's stream one file chunk at a
 * time, and the timed bus's ports compact those windows 1,024
 * references at a time: neither boundary may show.  Chunk sizes just
 * below, at and above the compaction chunk, a tiny one and a larger
 * one, for each timed scheme of the contention study.
 */
TEST(StoredTraceTest, TimedReplayMatchesPreparedReplay)
{
    const auto cfg = smallWorkload();
    trace::PrepareOptions opts;
    opts.timedStreams = true;
    const trace::PreparedTrace prepared =
        trace::PreparedTrace::build(gen::generateTrace(cfg), opts);

    const auto makeEngine = [units = cfg.space.nProcesses](
                                sim::Scheme scheme)
        -> std::unique_ptr<coherence::CoherenceEngine> {
        switch (sim::engineKindFor(scheme)) {
          case sim::EngineKind::Limited:
            return std::make_unique<coherence::LimitedEngine>(units, 1);
          case sim::EngineKind::Dragon:
            return std::make_unique<coherence::DragonEngine>(units);
          default: {
            coherence::InvalEngineConfig ecfg;
            ecfg.nUnits = units;
            return std::make_unique<coherence::InvalEngine>(ecfg);
          }
        }
    };
    for (const std::uint64_t chunkRefs : {7, 1023, 1024, 1025, 1500}) {
        PathGuard file{scratchPath("timed")};
        trace::StoreWriteOptions wopts;
        wopts.chunkRefs = chunkRefs;
        trace::writeStored(prepared, file.path, wopts);
        const auto stored = trace::StoredTrace::open(file.path);
        for (const sim::Scheme scheme :
             {sim::Scheme::Dir0B, sim::Scheme::Dir1NB,
              sim::Scheme::Dragon, sim::Scheme::WTI}) {
            timing::TimedBusConfig tcfg;
            tcfg.scheme = scheme;
            timing::TimedBusSim memSim(tcfg, makeEngine(scheme));
            const timing::TimedRun memRun = memSim.run(prepared);
            timing::TimedBusSim fileSim(tcfg, makeEngine(scheme));
            const timing::TimedRun fileRun = fileSim.run(*stored);
            EXPECT_TRUE(memRun.identicalTo(fileRun))
                << memRun.scheme << " at " << chunkRefs
                << "-reference chunks";
        }
    }
}

TEST(StoredTraceTest, PreadModeMatchesMmap)
{
    const auto cfg = smallWorkload();
    const trace::PreparedTrace prepared =
        trace::PreparedTrace::build(gen::generateTrace(cfg));

    PathGuard file{scratchPath("pread")};
    trace::StoreWriteOptions wopts;
    wopts.chunkRefs = 3000;
    trace::writeStored(prepared, file.path, wopts);

    trace::StoredTraceOptions mmapOpts;
    mmapOpts.mode = trace::StoreReadMode::Mmap;
    trace::StoredTraceOptions preadOpts;
    preadOpts.mode = trace::StoreReadMode::Pread;
    const auto viaMmap = trace::StoredTrace::open(file.path, mmapOpts);
    const auto viaPread =
        trace::StoredTrace::open(file.path, preadOpts);
    expectColumnsEqual(viaMmap->loadAll(), prepared);
    expectColumnsEqual(viaPread->loadAll(), prepared);
}

TEST(StoredTraceTest, EmptyTraceRoundTrips)
{
    trace::MemoryTrace raw;
    raw.meta().name = "empty";
    const trace::PreparedTrace prepared =
        trace::PreparedTrace::build(raw);

    PathGuard file{scratchPath("empty")};
    trace::writeStored(prepared, file.path);
    const auto stored = trace::StoredTrace::open(file.path);
    EXPECT_EQ(stored->totalRefs(), 0u);

    // An empty stream still yields exactly one (empty) span — the
    // same contract PreparedTraceSpans keeps.
    const auto spans = stored->spanCursor();
    trace::PreparedSpan span;
    ASSERT_TRUE(spans->nextSpan(span));
    EXPECT_EQ(span.n, 0u);
    EXPECT_FALSE(spans->nextSpan(span));

    expectColumnsEqual(stored->loadAll(), prepared);
}

/**
 * Flip every byte of a small store file, one at a time: each flip
 * must either be rejected (open or cursor read throws) or leave the
 * replayed columns bit-identical (flips in alignment padding are
 * harmless by construction).  A flip that silently *changes* the
 * replay is the one outcome the digests exist to prevent.
 */
TEST(StoredTraceTest, EveryByteFlipIsRejectedOrHarmless)
{
    auto cfg = smallWorkload();
    cfg.totalRefs = 1'200; // keeps the file (and this loop) small
    const trace::PreparedTrace prepared =
        trace::PreparedTrace::build(gen::generateTrace(cfg));

    PathGuard file{scratchPath("flip")};
    trace::StoreWriteOptions wopts;
    wopts.chunkRefs = 128;
    trace::writeStored(prepared, file.path, wopts);
    const std::string golden = slurp(file.path);
    ASSERT_GT(golden.size(), 0u);

    PathGuard copy{scratchPath("flip-copy")};
    std::size_t rejected = 0;
    for (std::size_t pos = 0; pos < golden.size(); ++pos) {
        std::string bytes = golden;
        bytes[pos] = static_cast<char>(bytes[pos] ^ 0x40);
        spit(copy.path, bytes);
        try {
            const auto stored = trace::StoredTrace::open(copy.path);
            const trace::PreparedTrace replayed = stored->loadAll();
            expectColumnsEqual(replayed, prepared);
        } catch (const std::runtime_error &) {
            ++rejected; // detection is the expected outcome
        }
    }
    // The overwhelming majority of bytes are digest-covered; only
    // alignment padding may pass unrejected.
    EXPECT_GT(rejected, golden.size() / 2);
}

TEST(StoredTraceTest, RejectsVersionMismatchDistinctly)
{
    const trace::PreparedTrace prepared = trace::PreparedTrace::build(
        gen::generateTrace(smallWorkload()));
    PathGuard file{scratchPath("version")};
    trace::writeStored(prepared, file.path);

    std::string bytes = slurp(file.path);
    bytes[8] = 99; // u32 version field follows the 8-byte magic
    spit(file.path, bytes);
    try {
        trace::StoredTrace::open(file.path);
        FAIL() << "future format version accepted";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("format version"),
                  std::string::npos)
            << err.what();
    }
}

TEST(StoredTraceTest, RejectsTruncationAndBadMagic)
{
    const trace::PreparedTrace prepared = trace::PreparedTrace::build(
        gen::generateTrace(smallWorkload()));
    PathGuard file{scratchPath("trunc")};
    trace::writeStored(prepared, file.path);

    const std::string golden = slurp(file.path);
    spit(file.path, golden.substr(0, golden.size() - 5));
    EXPECT_THROW(trace::StoredTrace::open(file.path),
                 std::runtime_error);

    spit(file.path, "NOTASTORE");
    EXPECT_THROW(trace::StoredTrace::open(file.path),
                 std::runtime_error);

    spit(file.path, golden + "extra");
    EXPECT_THROW(trace::StoredTrace::open(file.path),
                 std::runtime_error);
}

TEST(StoredTraceTest, WriterMisuseAndAbandonment)
{
    const std::string path = scratchPath("misuse");
    {
        trace::PreparedTraceWriter writer(path, "misuse", {});
        writer.appendData(1, 0, 0);
        writer.setUnits(1, 1);
        writer.finish();
        EXPECT_THROW(writer.finish(), std::logic_error);
    }
    // finish() completed, so the file persists and opens.
    EXPECT_NO_THROW(trace::StoredTrace::open(path));
    ::remove(path.c_str());

    {
        trace::PreparedTraceWriter writer(path, "abandoned", {});
        writer.appendData(1, 0, 0);
        // No finish(): the destructor must abandon the file.
    }
    EXPECT_FALSE(std::filesystem::exists(path));

    trace::StoreWriteOptions zero;
    zero.chunkRefs = 0;
    EXPECT_THROW(
        trace::PreparedTraceWriter(path, "zero", {}, zero),
        std::invalid_argument);

    trace::PreparedTraceWriter untimed(path, "untimed", {});
    EXPECT_THROW(untimed.appendCpu(0, 1, 0, 0), std::logic_error);
    EXPECT_THROW(untimed.setUnits(300, 1), std::invalid_argument);
}

// --- Dense block ids at the store boundary ---------------------------

/** Read every chunk of @p stored, data and CPU streams alike. */
void
readEveryChunk(const trace::StoredTrace &stored)
{
    const auto spans = stored.spanCursor();
    trace::PreparedSpan span;
    while (spans->nextSpan(span)) {
    }
    for (unsigned cpu = 0; stored.hasTimedStreams() && cpu < stored.numCpus();
         ++cpu) {
        const auto cursor = stored.cpuCursor(cpu);
        while (cursor->nextWindow(span)) {
        }
    }
}

/** Expect reading @p path to fail with a message naming the block id
 *  and the numBlocks bound. */
void
expectOutOfRangeRejected(const std::string &path, const std::string &id,
                         const std::string &bound)
{
    const auto stored = trace::StoredTrace::open(path);
    try {
        readEveryChunk(*stored);
        FAIL() << "out-of-range block id accepted";
    } catch (const std::runtime_error &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("block id " + id), std::string::npos) << what;
        EXPECT_NE(what.find("numBlocks " + bound), std::string::npos)
            << what;
    }
    EXPECT_THROW(stored->loadAll(), std::runtime_error);
}

TEST(StoredTraceTest, RejectsOutOfRangeBlockIdInDataChunk)
{
    // A crafted store whose chunk digests are all valid: only the
    // range check stands between id == numBlocks() and an engine's
    // out-of-bounds write.
    const std::uint8_t read =
        trace::packTypeFlags(trace::RefType::Read, 0);
    PathGuard file{scratchPath("range-data")};
    {
        trace::PreparedTraceWriter writer(file.path, "crafted", {});
        writer.appendData(0, 0, read);
        writer.appendData(1, 0, read);
        writer.appendData(2, 0, read);
        writer.setUnits(1, 1);
        writer.setBlockNames({0x10, 0x20});
        writer.finish();
    }
    expectOutOfRangeRejected(file.path, "2", "2");
}

TEST(StoredTraceTest, RejectsOutOfRangeBlockIdInCpuChunk)
{
    const std::uint8_t read =
        trace::packTypeFlags(trace::RefType::Read, 0);
    const std::uint8_t instr =
        trace::packTypeFlags(trace::RefType::Instr, 0);
    trace::PrepareOptions timed;
    timed.timedStreams = true;
    // Instruction entries carry no block, so their id is not checked;
    // the data entry with id == numBlocks() is.
    const auto craft = [&](const std::string &path, std::uint32_t cpuId) {
        trace::PreparedTraceWriter writer(path, "crafted", timed);
        writer.appendData(0, 0, read);
        writer.appendData(0, 0, read);
        writer.addInstrRefs(1);
        writer.appendCpu(0, 0, 0, read);
        writer.appendCpu(0, 0xffffffffu, 0, instr);
        writer.appendCpu(0, cpuId, 0, read);
        writer.setUnits(1, 1);
        writer.setBlockNames({0x40});
        writer.finish();
    };
    PathGuard good{scratchPath("range-cpu-ok")};
    craft(good.path, 0);
    EXPECT_NO_THROW(readEveryChunk(*trace::StoredTrace::open(good.path)));

    PathGuard bad{scratchPath("range-cpu")};
    craft(bad.path, 1);
    expectOutOfRangeRejected(bad.path, "1", "1");
}

TEST(StoredTraceTest, RejectsMoreBlockNamesThanDataRefs)
{
    // Each block is numbered by a data reference, so a names table
    // longer than the data columns is malformed.
    PathGuard file{scratchPath("names")};
    {
        trace::PreparedTraceWriter writer(file.path, "crafted", {});
        writer.appendData(0, 0, 0);
        writer.setUnits(1, 1);
        writer.setBlockNames({0x10, 0x20});
        writer.finish();
    }
    try {
        trace::StoredTrace::open(file.path);
        FAIL() << "more names than data references accepted";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("names"),
                  std::string::npos)
            << err.what();
    }
}

TEST(StoredTraceTest, CpuCursorRequiresTimedStreams)
{
    const trace::PreparedTrace prepared = trace::PreparedTrace::build(
        gen::generateTrace(smallWorkload()));
    PathGuard file{scratchPath("untimed-cursor")};
    trace::writeStored(prepared, file.path);
    const auto stored = trace::StoredTrace::open(file.path);
    EXPECT_FALSE(stored->hasTimedStreams());
    EXPECT_THROW(stored->cpuCursor(0), std::logic_error);
}

} // namespace
