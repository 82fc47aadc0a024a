/**
 * @file
 * An independent reference for the prepared format: the literal
 * definition of every column, written as the dumbest possible loop
 * over a materialised trace, with its own ordered maps for the
 * first-seen unit and CPU numbers and the first-touch block ids.  It
 * shares no code with the lowering (trace/lowering.hh) beyond the
 * record type, so the differential suites compare the single builder
 * against a second implementation, not against itself.
 */

#ifndef DIRSIM_TESTS_REFERENCE_PREPARE_HH
#define DIRSIM_TESTS_REFERENCE_PREPARE_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "trace/prepared.hh"
#include "trace/trace.hh"

namespace dirsim::testref
{

struct ReferenceStream
{
    std::vector<std::uint32_t> block;
    std::vector<std::uint8_t> unit;
    std::vector<std::uint8_t> typeFlags;
};

/** Every field a PreparedTrace exposes, as plain vectors. */
struct ReferencePrepared
{
    std::uint64_t instrRefs = 0;
    unsigned nUnits = 0;
    unsigned nCpus = 0;
    std::vector<std::uint32_t> block;
    std::vector<std::uint8_t> unit;
    std::vector<std::uint8_t> typeFlags;
    std::vector<std::uint32_t> names;
    std::vector<ReferenceStream> streams; //!< timedStreams only.
};

/** First-seen dense index of @p key in @p seen. */
inline unsigned
denseIndex(std::map<std::uint64_t, unsigned> &seen, std::uint64_t key)
{
    const auto it = seen.find(key);
    if (it != seen.end())
        return it->second;
    const unsigned next = static_cast<unsigned>(seen.size());
    seen.emplace(key, next);
    return next;
}

/** Prepare @p trace by definition; throws std::invalid_argument past
 *  256 sharing units or a 32-bit block index. */
inline ReferencePrepared
referencePrepare(const trace::MemoryTrace &trace,
                 const trace::PrepareOptions &opts)
{
    ReferencePrepared out;
    std::map<std::uint64_t, unsigned> units;
    std::map<std::uint64_t, unsigned> cpus;
    std::map<std::uint64_t, unsigned> blocks;
    for (const trace::TraceRecord &rec : trace.records()) {
        if (opts.dropLockTests && (rec.flags & trace::FlagLockTest))
            continue;
        const bool byProcess =
            opts.domain == sim::SharingDomain::Process;
        const unsigned unit =
            denseIndex(units, byProcess ? rec.pid : rec.cpu);
        const unsigned cpu = denseIndex(cpus, rec.cpu);
        const std::uint64_t raw = rec.addr / opts.blockBytes;
        if (raw > 0xffffffffULL)
            throw std::invalid_argument("reference: block past 32 bits");
        // Type in the low two bits, flags above them.
        const auto tf = static_cast<std::uint8_t>(
            static_cast<unsigned>(rec.type) | (rec.flags << 2));
        std::uint32_t id = 0;
        if (rec.type == trace::RefType::Instr) {
            ++out.instrRefs;
        } else {
            const auto before = blocks.size();
            id = denseIndex(blocks, raw);
            if (blocks.size() != before)
                out.names.push_back(static_cast<std::uint32_t>(raw));
            out.block.push_back(id);
            out.unit.push_back(static_cast<std::uint8_t>(unit));
            out.typeFlags.push_back(tf);
        }
        if (opts.timedStreams) {
            if (cpu == out.streams.size())
                out.streams.emplace_back();
            ReferenceStream &s = out.streams[cpu];
            s.block.push_back(id);
            s.unit.push_back(static_cast<std::uint8_t>(unit));
            s.typeFlags.push_back(tf);
        }
    }
    if (units.size() > 256)
        throw std::invalid_argument("reference: more than 256 units");
    out.nUnits = static_cast<unsigned>(units.size());
    out.nCpus = static_cast<unsigned>(cpus.size());
    return out;
}

template <typename T>
bool
sameColumn(const std::vector<T> &want, const T *got, std::size_t n)
{
    return want.size() == n && std::equal(want.begin(), want.end(), got);
}

/** @p got equals @p want field for field; with @p exactBytes its
 *  columns must also be exactly sized (byteSize() counts capacity). */
inline void
expectMatchesReference(const trace::PreparedTrace &got,
                       const ReferencePrepared &want,
                       bool exactBytes = true)
{
    EXPECT_EQ(got.instrRefs(), want.instrRefs);
    EXPECT_EQ(got.numUnits(), want.nUnits);
    EXPECT_EQ(got.numCpus(), want.nCpus);
    ASSERT_EQ(got.dataRefs(), want.block.size());
    const std::size_t n = want.block.size();
    EXPECT_TRUE(sameColumn(want.block, got.blockData(), n));
    EXPECT_TRUE(sameColumn(want.unit, got.unitData(), n));
    EXPECT_TRUE(sameColumn(want.typeFlags, got.typeFlagsData(), n));
    EXPECT_TRUE(std::ranges::equal(got.blockNames(), want.names))
        << "block names differ";
    std::size_t bytes = sizeof(trace::PreparedTrace) + 6 * n +
                        4 * want.names.size();
    ASSERT_EQ(got.cpuStreams().size(), want.streams.size());
    for (std::size_t c = 0; c < want.streams.size(); ++c) {
        SCOPED_TRACE("cpu " + std::to_string(c));
        const trace::PreparedCpuStream &s = got.cpuStreams()[c];
        const ReferenceStream &r = want.streams[c];
        EXPECT_TRUE(sameColumn(r.block, s.block.data(), s.size()));
        EXPECT_TRUE(sameColumn(r.unit, s.unit.data(), s.size()));
        EXPECT_TRUE(
            sameColumn(r.typeFlags, s.typeFlags.data(), s.size()));
        bytes += 6 * r.block.size();
    }
    if (exactBytes) {
        EXPECT_EQ(got.byteSize(), bytes)
            << "columns are not exactly sized";
    }
}

} // namespace dirsim::testref

#endif // DIRSIM_TESTS_REFERENCE_PREPARE_HH
