/**
 * @file
 * Unit tests for the trace substrate: records, containers, I/O,
 * filters, the characteriser and the first-touch block numbering.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/block_numbering.hh"
#include "trace/characterize.hh"
#include "trace/filter.hh"
#include "trace/io.hh"
#include "trace/record.hh"
#include "trace/trace.hh"
#include "gen/rng.hh"

namespace
{

using namespace dirsim::trace;

TraceRecord
makeRecord(std::uint8_t cpu, std::uint16_t pid, RefType type,
           std::uint64_t addr, std::uint8_t flags = FlagNone)
{
    TraceRecord rec;
    rec.cpu = cpu;
    rec.pid = pid;
    rec.type = type;
    rec.addr = addr;
    rec.flags = flags;
    return rec;
}

MemoryTrace
makeSampleTrace()
{
    TraceMeta meta;
    meta.name = "sample";
    meta.nCpus = 2;
    meta.nProcesses = 3;
    meta.lockAddrs = {0x1000, 0x2000};
    MemoryTrace trace(meta);
    trace.append(makeRecord(0, 0, RefType::Instr, 0x400));
    trace.append(makeRecord(1, 1, RefType::Read, 0x1000, FlagLockTest));
    trace.append(makeRecord(0, 0, RefType::Write, 0x8000));
    trace.append(
        makeRecord(1, 2, RefType::Read, 0x9000, FlagSystem));
    trace.append(
        makeRecord(0, 1, RefType::Write, 0x1000, FlagLockWrite));
    return trace;
}

TEST(Record, FlagPredicates)
{
    TraceRecord rec = makeRecord(0, 0, RefType::Read, 0x10,
                                 FlagSystem | FlagLockTest);
    EXPECT_TRUE(rec.isRead());
    EXPECT_TRUE(rec.isData());
    EXPECT_FALSE(rec.isWrite());
    EXPECT_FALSE(rec.isInstr());
    EXPECT_TRUE(rec.isSystem());
    EXPECT_TRUE(rec.isLockTest());
    EXPECT_FALSE(rec.isLockWrite());
}

TEST(Record, InstrIsNotData)
{
    TraceRecord rec = makeRecord(0, 0, RefType::Instr, 0x10);
    EXPECT_TRUE(rec.isInstr());
    EXPECT_FALSE(rec.isData());
    EXPECT_FALSE(rec.isRead());
}

TEST(Record, Equality)
{
    TraceRecord a = makeRecord(1, 2, RefType::Write, 0x30);
    TraceRecord b = a;
    EXPECT_EQ(a, b);
    b.addr = 0x31;
    EXPECT_FALSE(a == b);
}

TEST(MemoryTraceTest, AppendAndIndex)
{
    MemoryTrace trace = makeSampleTrace();
    ASSERT_EQ(trace.size(), 5u);
    EXPECT_EQ(trace[0].type, RefType::Instr);
    EXPECT_EQ(trace[4].flags, FlagLockWrite);
    EXPECT_FALSE(trace.empty());
}

TEST(MemoryTraceTest, SourceReplayAndRewind)
{
    MemoryTrace trace = makeSampleTrace();
    MemoryTraceSource source(trace);
    TraceRecord rec;
    std::size_t count = 0;
    while (source.next(rec))
        ++count;
    EXPECT_EQ(count, trace.size());
    EXPECT_FALSE(source.next(rec));

    source.rewind();
    ASSERT_TRUE(source.next(rec));
    EXPECT_EQ(rec, trace[0]);
}

TEST(MemoryTraceTest, FillFromWithLimit)
{
    MemoryTrace trace = makeSampleTrace();
    MemoryTraceSource source(trace);
    MemoryTrace copy;
    EXPECT_EQ(copy.fillFrom(source, 3), 3u);
    EXPECT_EQ(copy.size(), 3u);
    // The source continues where it stopped.
    MemoryTrace rest;
    EXPECT_EQ(rest.fillFrom(source), 2u);
}

TEST(TraceIo, BinaryRoundTrip)
{
    const MemoryTrace trace = makeSampleTrace();
    std::stringstream buffer;
    writeBinary(trace, buffer);
    const MemoryTrace loaded = readBinary(buffer);

    EXPECT_EQ(loaded.meta().name, "sample");
    EXPECT_EQ(loaded.meta().nCpus, 2u);
    EXPECT_EQ(loaded.meta().nProcesses, 3u);
    EXPECT_EQ(loaded.meta().lockAddrs, trace.meta().lockAddrs);
    ASSERT_EQ(loaded.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(loaded[i], trace[i]) << "record " << i;
}

TEST(TraceIo, TextRoundTrip)
{
    const MemoryTrace trace = makeSampleTrace();
    std::stringstream buffer;
    writeText(trace, buffer);
    const MemoryTrace loaded = readText(buffer);

    EXPECT_EQ(loaded.meta().name, "sample");
    EXPECT_EQ(loaded.meta().lockAddrs, trace.meta().lockAddrs);
    ASSERT_EQ(loaded.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(loaded[i], trace[i]) << "record " << i;
}

TEST(TraceIo, BinaryRejectsBadMagic)
{
    std::stringstream buffer;
    buffer << "NOPE garbage";
    EXPECT_THROW(readBinary(buffer), std::runtime_error);
}

TEST(TraceIo, BinaryRejectsTruncation)
{
    const MemoryTrace trace = makeSampleTrace();
    std::stringstream buffer;
    writeBinary(trace, buffer);
    std::string bytes = buffer.str();
    bytes.resize(bytes.size() - 7);
    std::stringstream truncated(bytes);
    EXPECT_THROW(readBinary(truncated), std::runtime_error);
}

TEST(TraceIo, BinaryRejectsPayloadCorruption)
{
    // Flip one byte of a record's address: the structure still
    // parses, so only the digest footer can catch it.
    const MemoryTrace trace = makeSampleTrace();
    std::stringstream buffer;
    writeBinary(trace, buffer);
    std::string bytes = buffer.str();
    bytes[bytes.size() - 20] ^= 0x01;
    std::stringstream corrupt(bytes);
    try {
        readBinary(corrupt);
        FAIL() << "corrupt payload accepted";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("digest"),
                  std::string::npos)
            << err.what();
    }
}

TEST(TraceIo, BinaryRejectsTrailingBytes)
{
    const MemoryTrace trace = makeSampleTrace();
    std::stringstream buffer;
    writeBinary(trace, buffer);
    buffer << "junk";
    try {
        readBinary(buffer);
        FAIL() << "trailing bytes accepted";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("trailing"),
                  std::string::npos)
            << err.what();
    }
}

TEST(TraceIo, BinaryReadsVersion1Files)
{
    // A v1 file is a v2 file minus the digest footer, with the
    // version field saying 1; the compat path must still read it.
    const MemoryTrace trace = makeSampleTrace();
    std::stringstream buffer;
    writeBinary(trace, buffer);
    std::string bytes = buffer.str();
    bytes[4] = 1;
    bytes.resize(bytes.size() - 8);
    std::stringstream v1(bytes);
    const MemoryTrace loaded = readBinary(v1);
    ASSERT_EQ(loaded.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(loaded[i], trace[i]) << "record " << i;
}

TEST(TraceIo, BinaryRejectsUnsupportedVersion)
{
    const MemoryTrace trace = makeSampleTrace();
    std::stringstream buffer;
    writeBinary(trace, buffer);
    std::string bytes = buffer.str();
    bytes[4] = 3;
    std::stringstream v3(bytes);
    try {
        readBinary(v3);
        FAIL() << "future version accepted";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("version 3"),
                  std::string::npos)
            << err.what();
    }
}

TEST(TraceIo, BinaryRejectsOversizedNameLength)
{
    // Patch the name-length field to a multi-gigabyte claim; the cap
    // must reject it before any allocation, not after.
    const MemoryTrace trace = makeSampleTrace();
    std::stringstream buffer;
    writeBinary(trace, buffer);
    std::string bytes = buffer.str();
    bytes[16] = static_cast<char>(0xff);
    bytes[17] = static_cast<char>(0xff);
    bytes[18] = static_cast<char>(0xff);
    bytes[19] = static_cast<char>(0x7f);
    std::stringstream bad(bytes);
    try {
        readBinary(bad);
        FAIL() << "oversized name length accepted";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("name length"),
                  std::string::npos)
            << err.what();
    }
}

TEST(TraceIo, TextRejectsBadType)
{
    std::stringstream buffer;
    buffer << "0 0 Q 0x10 0\n";
    EXPECT_THROW(readText(buffer), std::runtime_error);
}

TEST(TraceIo, EmptyTraceRoundTrips)
{
    MemoryTrace trace;
    trace.meta().name = "empty";
    std::stringstream buffer;
    writeBinary(trace, buffer);
    const MemoryTrace loaded = readBinary(buffer);
    EXPECT_EQ(loaded.size(), 0u);
    EXPECT_EQ(loaded.meta().name, "empty");
}

TEST(Filter, DropLockTests)
{
    MemoryTrace trace = makeSampleTrace();
    MemoryTraceSource inner(trace);
    FilteredSource filtered = dropLockTests(inner);
    TraceRecord rec;
    std::size_t count = 0;
    while (filtered.next(rec)) {
        EXPECT_FALSE(rec.isLockTest());
        ++count;
    }
    EXPECT_EQ(count, 4u); // one lock-test read dropped
}

TEST(Filter, DropInstructions)
{
    MemoryTrace trace = makeSampleTrace();
    MemoryTraceSource inner(trace);
    FilteredSource filtered = dropInstructions(inner);
    TraceRecord rec;
    std::size_t count = 0;
    while (filtered.next(rec)) {
        EXPECT_TRUE(rec.isData());
        ++count;
    }
    EXPECT_EQ(count, 4u);
}

TEST(Filter, DropSystemRefs)
{
    MemoryTrace trace = makeSampleTrace();
    MemoryTraceSource inner(trace);
    FilteredSource filtered = dropSystemRefs(inner);
    TraceRecord rec;
    std::size_t count = 0;
    while (filtered.next(rec)) {
        EXPECT_FALSE(rec.isSystem());
        ++count;
    }
    EXPECT_EQ(count, 4u);
}

TEST(Filter, RewindRestartsUpstream)
{
    MemoryTrace trace = makeSampleTrace();
    MemoryTraceSource inner(trace);
    FilteredSource filtered = dropInstructions(inner);
    TraceRecord rec;
    while (filtered.next(rec)) {
    }
    filtered.rewind();
    std::size_t count = 0;
    while (filtered.next(rec))
        ++count;
    EXPECT_EQ(count, 4u);
}

TEST(Characterize, CountsByKind)
{
    MemoryTrace trace = makeSampleTrace();
    MemoryTraceSource source(trace);
    const TraceCharacteristics ch = characterize(source, "sample");
    EXPECT_EQ(ch.refs, 5u);
    EXPECT_EQ(ch.instr, 1u);
    EXPECT_EQ(ch.dataReads, 2u);
    EXPECT_EQ(ch.dataWrites, 2u);
    EXPECT_EQ(ch.system, 1u);
    EXPECT_EQ(ch.user, 4u);
    EXPECT_EQ(ch.lockTestReads, 1u);
    EXPECT_DOUBLE_EQ(ch.readWriteRatio(), 1.0);
    EXPECT_DOUBLE_EQ(ch.lockTestReadFrac(), 0.5);
}

TEST(Characterize, SharedBlockDetection)
{
    MemoryTrace trace;
    // Block 0x100/16 touched by pids 1 and 2; block 0x200/16 only by
    // pid 1.
    trace.append(makeRecord(0, 1, RefType::Read, 0x100));
    trace.append(makeRecord(1, 2, RefType::Write, 0x104));
    trace.append(makeRecord(0, 1, RefType::Read, 0x200));
    MemoryTraceSource source(trace);
    const TraceCharacteristics ch = characterize(source, "t");
    EXPECT_EQ(ch.uniqueDataBlocks, 2u);
    EXPECT_EQ(ch.sharedDataBlocks, 1u);
    EXPECT_EQ(ch.refsToSharedBlocks, 2u);
}

TEST(Characterize, RatioGuardsAgainstZeroWrites)
{
    MemoryTrace trace;
    trace.append(makeRecord(0, 0, RefType::Read, 0x10));
    MemoryTraceSource source(trace);
    const TraceCharacteristics ch = characterize(source, "t");
    EXPECT_DOUBLE_EQ(ch.readWriteRatio(), 0.0);
}

TEST(Characterize, BlockSizeMatters)
{
    MemoryTrace trace;
    trace.append(makeRecord(0, 1, RefType::Read, 0x100));
    trace.append(makeRecord(0, 2, RefType::Read, 0x108));
    {
        MemoryTraceSource source(trace);
        // 16-byte blocks: same block, shared.
        EXPECT_EQ(characterize(source, "t", 16).sharedDataBlocks, 1u);
    }
    {
        MemoryTraceSource source(trace);
        // 8-byte blocks: distinct blocks, no sharing.
        EXPECT_EQ(characterize(source, "t", 8).sharedDataBlocks, 0u);
    }
}

/** The largest 32-bit block index is counted; one past it is
 *  rejected, naming the trace, as a prepared trace rejects it. */
TEST(Characterize, RejectsBlockIndexPast32Bits)
{
    const std::uint64_t lastBlock = 0xffffffffULL * 16;
    MemoryTrace trace;
    trace.append(makeRecord(0, 1, RefType::Read, lastBlock));
    trace.append(makeRecord(0, 2, RefType::Write, lastBlock + 15));
    {
        MemoryTraceSource source(trace);
        const TraceCharacteristics ch = characterize(source, "t", 16);
        EXPECT_EQ(ch.uniqueDataBlocks, 1u);
        EXPECT_EQ(ch.sharedDataBlocks, 1u);
    }
    trace.append(makeRecord(0, 1, RefType::Read, lastBlock + 16));
    MemoryTraceSource source(trace);
    try {
        characterize(source, "wide", 16);
        FAIL() << "a block index past 32 bits was accepted";
    } catch (const std::invalid_argument &err) {
        EXPECT_NE(std::string(err.what()).find("'wide'"),
                  std::string::npos)
            << err.what();
    }
}

/**
 * Number @p keys in order (repeats allowed) and hold every id, the
 * names and the size to a first-touch std::unordered_map reference;
 * then number them again in reverse, where every key is a hit.
 */
void
expectNumbersLikeReference(BlockNumbering &numbering,
                           const std::vector<std::uint32_t> &keys)
{
    std::unordered_map<std::uint32_t, std::uint32_t> ref;
    std::vector<std::uint32_t> names;
    for (const std::uint32_t key : keys) {
        const auto [it, fresh] =
            ref.try_emplace(key, static_cast<std::uint32_t>(ref.size()));
        if (fresh)
            names.push_back(key);
        ASSERT_EQ(numbering.number(key), it->second) << "key " << key;
    }
    ASSERT_EQ(numbering.size(), ref.size());
    EXPECT_TRUE(std::ranges::equal(numbering.names(), names));
    for (auto it = keys.rbegin(); it != keys.rend(); ++it)
        ASSERT_EQ(numbering.number(*it), ref.at(*it)) << "key " << *it;
    EXPECT_EQ(numbering.size(), ref.size());
}

/** @p count distinct keys 2^k apart: j << k while that fits 32 bits,
 *  rotated round after (so they stay distinct); k = 0 is sequential.
 *  0xFFFFFFFF comes first, so the all-ones key takes id 0 and key 0
 *  id 1: both ends of the slot encoding. */
std::vector<std::uint32_t>
stridedKeys(unsigned k, std::uint32_t count)
{
    std::vector<std::uint32_t> keys{0xffffffffU};
    for (std::uint32_t j = 0; j < count; ++j)
        keys.push_back(std::rotl(j, static_cast<int>(k)));
    return keys;
}

/** Every power-of-two stride, at counts either side of the 3/4-load
 *  growth of a 4096-, 8192- and 16384-slot table. */
TEST(BlockNumbering, MatchesReferenceOnStridedKeysAcrossGrowth)
{
    for (const std::uint32_t limit : {3072u, 6144u, 12288u}) {
        for (const std::uint32_t count : {limit - 1, limit, limit + 1}) {
            for (unsigned k = 0; k < 32; ++k) {
                SCOPED_TRACE("count " + std::to_string(count) +
                             " stride 2^" + std::to_string(k));
                BlockNumbering numbering;
                // count distinct keys, the all-ones key included.
                expectNumbersLikeReference(numbering,
                                           stridedKeys(k, count - 1));
            }
        }
    }
}

/** A numbering restarts at id 0 after takeNames() and clear(), in the
 *  table it has already grown. */
TEST(BlockNumbering, ReuseAfterTakeNamesAndClear)
{
    BlockNumbering numbering;
    const std::vector<std::uint32_t> first = stridedKeys(4, 6144);
    expectNumbersLikeReference(numbering, first);
    EXPECT_EQ(numbering.takeNames(), first);
    EXPECT_EQ(numbering.size(), 0u);
    EXPECT_TRUE(numbering.names().empty());

    expectNumbersLikeReference(numbering, stridedKeys(17, 3072));
    numbering.clear();
    EXPECT_EQ(numbering.size(), 0u);
    EXPECT_TRUE(numbering.names().empty());
    expectNumbersLikeReference(numbering, first);
}

} // namespace

namespace
{

using namespace dirsim::trace;

/** Parser robustness: random garbage must throw, never crash. */
TEST(TraceIoFuzz, TextParserSurvivesGarbage)
{
    dirsim::gen::Rng rng(0xFADE);
    const std::string alphabet =
        "0123456789abcdefxIRW# \t\n\"-+.,";
    for (int trial = 0; trial < 500; ++trial) {
        std::string garbage;
        const std::size_t len = rng.nextBelow(200);
        for (std::size_t i = 0; i < len; ++i)
            garbage += alphabet[rng.nextBelow(alphabet.size())];
        std::stringstream is(garbage);
        try {
            const MemoryTrace trace = readText(is);
            // Parsed cleanly: every record must be well-formed.
            for (std::size_t i = 0; i < trace.size(); ++i) {
                EXPECT_LE(static_cast<unsigned>(trace[i].type),
                          static_cast<unsigned>(RefType::Write));
            }
        } catch (const std::runtime_error &) {
            // Rejection is fine; crashing is not.
        }
    }
}

TEST(TraceIoFuzz, BinaryParserSurvivesBitFlips)
{
    // Serialise a small trace, flip random bytes, and reload: the
    // reader must either parse or throw, never crash or hang.
    dirsim::gen::Rng rng(0xD00D);
    MemoryTrace trace;
    trace.meta().name = "fuzz";
    for (int i = 0; i < 20; ++i) {
        TraceRecord rec;
        rec.cpu = static_cast<std::uint8_t>(i % 4);
        rec.pid = static_cast<std::uint16_t>(i % 3);
        rec.type = static_cast<RefType>(i % 3);
        rec.addr = 0x1000 + 16 * i;
        trace.append(rec);
    }
    std::stringstream buffer;
    writeBinary(trace, buffer);
    const std::string golden = buffer.str();

    for (int trial = 0; trial < 500; ++trial) {
        std::string bytes = golden;
        const std::size_t flips = 1 + rng.nextBelow(4);
        for (std::size_t f = 0; f < flips; ++f) {
            const std::size_t pos = rng.nextBelow(bytes.size());
            bytes[pos] = static_cast<char>(rng.nextBelow(256));
        }
        std::stringstream is(bytes);
        try {
            const MemoryTrace loaded = readBinary(is);
            for (std::size_t i = 0; i < loaded.size(); ++i) {
                EXPECT_LE(static_cast<unsigned>(loaded[i].type),
                          static_cast<unsigned>(RefType::Write));
            }
        } catch (const std::runtime_error &) {
            // Rejection is the expected failure mode; the reader
            // bounds its preallocation, so corrupt record counts can
            // never demand pathological memory.
        }
    }
}

} // namespace
