/**
 * @file
 * Tests for the simulation driver and the protocol cost models.
 *
 * The PaperTable4 suite is the repository's central validation: it
 * rebuilds the paper's published event frequencies (Table 4) as an
 * EngineResults and checks that the cost models reproduce the
 * published cumulative bus-cycle numbers (Table 5) and the Section 5.1
 * transaction coefficients.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bus/bus_model.hh"
#include "coherence/dragon_engine.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "coherence/wti_engine.hh"
#include "gen/workloads.hh"
#include "sim/cost_model.hh"
#include "sim/simulator.hh"
#include "trace/prepared.hh"
#include "trace/trace.hh"

namespace
{

using namespace dirsim;
using coherence::EngineResults;
using coherence::Event;
using sim::CostBreakdown;
using sim::CostOptions;
using sim::Scheme;

// ---------------------------------------------------------------------
// Simulator driver.
// ---------------------------------------------------------------------

trace::MemoryTrace
tinyTrace()
{
    trace::MemoryTrace trace;
    auto add = [&](std::uint8_t cpu, std::uint16_t pid,
                   trace::RefType type, std::uint64_t addr) {
        trace::TraceRecord rec;
        rec.cpu = cpu;
        rec.pid = pid;
        rec.type = type;
        rec.addr = addr;
        trace.append(rec);
    };
    add(0, 10, trace::RefType::Read, 0x100);
    add(1, 20, trace::RefType::Read, 0x100);
    add(0, 10, trace::RefType::Write, 0x100);
    add(1, 20, trace::RefType::Instr, 0x200);
    return trace;
}

TEST(Simulator, RunsAllEnginesOverEveryRecord)
{
    sim::Simulator simulator;
    coherence::InvalEngineConfig cfg;
    cfg.nUnits = 4;
    auto &a = simulator.addEngine(
        std::make_unique<coherence::InvalEngine>(cfg));
    auto &b = simulator.addEngine(
        std::make_unique<coherence::DragonEngine>(4));

    trace::MemoryTrace trace = tinyTrace();
    trace::MemoryTraceSource source(trace);
    EXPECT_EQ(simulator.run(source), 4u);
    EXPECT_EQ(a.results().events.totalRefs(), 4u);
    EXPECT_EQ(b.results().events.totalRefs(), 4u);
    EXPECT_EQ(simulator.numEngines(), 2u);
}

TEST(Simulator, ProcessDomainMapsPids)
{
    sim::SimConfig cfg;
    cfg.domain = sim::SharingDomain::Process;
    sim::Simulator simulator(cfg);
    coherence::InvalEngineConfig ecfg;
    ecfg.nUnits = 2;
    auto &eng = simulator.addEngine(
        std::make_unique<coherence::InvalEngine>(ecfg));

    trace::MemoryTrace trace = tinyTrace();
    trace::MemoryTraceSource source(trace);
    simulator.run(source);
    EXPECT_EQ(simulator.unitsSeen(), 2u);
    // pid 20's read of 0x100 sees pid 10's clean copy.
    EXPECT_EQ(eng.results().events.count(Event::RmBlkCln), 1u);
}

TEST(Simulator, ProcessorDomainMapsCpus)
{
    // Two pids on the same CPU collapse into one unit.
    sim::SimConfig cfg;
    cfg.domain = sim::SharingDomain::Processor;
    sim::Simulator simulator(cfg);
    coherence::InvalEngineConfig ecfg;
    ecfg.nUnits = 2;
    simulator.addEngine(
        std::make_unique<coherence::InvalEngine>(ecfg));

    trace::MemoryTrace trace;
    trace::TraceRecord rec;
    rec.cpu = 3;
    rec.pid = 1;
    rec.type = trace::RefType::Read;
    rec.addr = 0x10;
    trace.append(rec);
    rec.pid = 2; // different process, same CPU
    rec.addr = 0x10;
    trace.append(rec);
    trace::MemoryTraceSource source(trace);
    simulator.run(source);
    EXPECT_EQ(simulator.unitsSeen(), 1u);
}

TEST(Simulator, ThrowsWhenUnitsExceedEngineCapacity)
{
    sim::Simulator simulator;
    coherence::InvalEngineConfig ecfg;
    ecfg.nUnits = 1;
    simulator.addEngine(
        std::make_unique<coherence::InvalEngine>(ecfg));
    trace::MemoryTrace trace = tinyTrace(); // two pids
    trace::MemoryTraceSource source(trace);
    EXPECT_THROW(simulator.run(source), std::runtime_error);
}

/** A prepared stream whose summary declares one more data reference
 *  than its spans yield. */
class OverdeclaredSpans final : public trace::PreparedSpanSource
{
  public:
    explicit OverdeclaredSpans(const trace::PreparedTrace &prepared)
        : _spans(prepared)
    {
    }

    const std::string &name() const override { return _spans.name(); }
    const trace::PrepareOptions &options() const override
    {
        return _spans.options();
    }
    std::uint64_t instrRefs() const override { return _spans.instrRefs(); }
    std::uint64_t dataRefs() const override { return _spans.dataRefs() + 1; }
    unsigned numUnits() const override { return _spans.numUnits(); }
    unsigned numCpus() const override { return _spans.numCpus(); }
    mem::BlockNames blockNames() const override
    {
        return _spans.blockNames();
    }
    bool
    nextSpan(trace::PreparedSpan &span) override
    {
        return _spans.nextSpan(span);
    }
    void rewind() override { _spans.rewind(); }

  private:
    trace::PreparedTraceSpans _spans;
};

/**
 * A span source that yields fewer data references than its summary
 * declares fails the replay, and leaves no engine holding the partial
 * replay: engines that count repeat reads in bulk and one that gets
 * every reference (write-around WTI) alike equal fresh engines.
 */
TEST(Simulator, MiscountedSpanSourceThrowsAndResetsEngines)
{
    using Maker = std::function<std::unique_ptr<coherence::CoherenceEngine>()>;
    const std::vector<Maker> makers = {
        [] {
            coherence::InvalEngineConfig cfg;
            cfg.nUnits = 4;
            return std::make_unique<coherence::InvalEngine>(cfg);
        },
        [] { return std::make_unique<coherence::LimitedEngine>(4, 1); },
        [] { return std::make_unique<coherence::DragonEngine>(4); },
        [] { return std::make_unique<coherence::WtiEngine>(4, false); },
    };
    sim::Simulator simulator;
    for (const Maker &make : makers)
        simulator.addEngine(make());
    ASSERT_FALSE(simulator.engine(3).repeatReadsHit());

    const trace::PreparedTrace prepared =
        trace::PreparedTrace::build(tinyTrace());
    ASSERT_GT(prepared.dataRefs(), 0u);
    OverdeclaredSpans spans(prepared);
    EXPECT_THROW(simulator.run(spans), std::runtime_error);
    for (std::size_t e = 0; e < makers.size(); ++e)
        EXPECT_TRUE(simulator.engine(e).results() == makers[e]()->results())
            << "engine " << simulator.engine(e).results().name
            << " kept the partial replay";
}

TEST(Simulator, BlockSizeGroupsAddresses)
{
    sim::SimConfig cfg;
    cfg.blockBytes = 256;
    sim::Simulator simulator(cfg);
    coherence::InvalEngineConfig ecfg;
    ecfg.nUnits = 2;
    auto &eng = simulator.addEngine(
        std::make_unique<coherence::InvalEngine>(ecfg));
    trace::MemoryTrace trace = tinyTrace();
    {
        trace::TraceRecord rec;
        rec.cpu = 1;
        rec.pid = 20;
        rec.type = trace::RefType::Read;
        rec.addr = 0x1ff; // same 256-byte block as 0x100
        trace.append(rec);
    }
    trace::MemoryTraceSource source(trace);
    simulator.run(source);
    // The final read hits: 0x1ff is in the dirty block 0x100 owned by
    // unit... pid 10 wrote it, so pid 20 read-misses dirty.
    EXPECT_EQ(eng.results().events.count(Event::RmBlkDrty), 1u);
}

// ---------------------------------------------------------------------
// Cost-model validation against the paper's published numbers.
// ---------------------------------------------------------------------

/**
 * Rebuild the paper's Table 4 average event frequencies (in percent of
 * references) as EngineResults over a synthetic 1M-reference run.
 */
class PaperTable4 : public ::testing::Test
{
  protected:
    static constexpr std::uint64_t refs = 1'000'000;

    static std::uint64_t
    pct(double percent)
    {
        return static_cast<std::uint64_t>(percent * 10'000.0 + 0.5);
    }

    static void
    fill(coherence::EventCounts &ev,
         std::initializer_list<std::pair<Event, double>> entries)
    {
        std::uint64_t used = 0;
        for (const auto &[event, percent] : entries) {
            const std::uint64_t n = pct(percent);
            for (std::uint64_t i = 0; i < n; ++i)
                ev.record(event);
            used += n;
        }
        // Pad with instructions so totals come out to `refs`.
        while (ev.totalRefs() < refs)
            ev.record(Event::Instr);
        ASSERT_LE(used, refs);
    }

    /** Dir1NB column of Table 4. */
    EngineResults
    dir1nb() const
    {
        EngineResults r;
        r.name = "dir1nb-paper";
        coherence::EventCounts &ev = r.events;
        fill(ev, {{Event::RdHit, 34.32},
                  {Event::RmBlkCln, 4.78},
                  {Event::RmBlkDrty, 0.40},
                  {Event::RmFirstRef, 0.32},
                  {Event::WhBlkClnExcl, 10.19},
                  {Event::WmBlkCln, 0.08},
                  {Event::WmBlkDrty, 0.09},
                  {Event::WmFirstRef, 0.08}});
        // Every rm-blk-cln displaces the single existing copy; every
        // wm-blk-cln invalidates exactly one copy.
        r.displacementInvals = pct(4.78);
        r.wmClnFanout.sample(1, pct(0.08));
        return r;
    }

    /** Dir0B / WTI column of Table 4. */
    EngineResults
    dir0b() const
    {
        EngineResults r;
        r.name = "inval-paper";
        coherence::EventCounts &ev = r.events;
        fill(ev, {{Event::RdHit, 38.88},
                  {Event::RmBlkCln, 0.23},
                  {Event::RmBlkDrty, 0.40},
                  {Event::RmFirstRef, 0.32},
                  // wh-blk-cln = 0.41; the paper does not publish
                  // the exclusive/shared split.  This split keeps the
                  // >85 % of Figure 1 (most writes see <= 1 other
                  // copy).
                  {Event::WhBlkClnExcl, 0.11},
                  {Event::WhBlkClnShared, 0.30},
                  {Event::WhBlkDrty, 9.84},
                  {Event::WmBlkCln, 0.02},
                  {Event::WmBlkDrty, 0.09},
                  {Event::WmFirstRef, 0.08}});
        r.whClnFanout.sample(0, pct(0.11));
        r.whClnFanout.sample(1, pct(0.26));
        r.whClnFanout.sample(2, pct(0.03));
        r.whClnFanout.sample(3, pct(0.01));
        r.wmClnFanout.sample(1, pct(0.02));
        return r;
    }

    /** Dragon column of Table 4. */
    EngineResults
    dragon() const
    {
        EngineResults r;
        r.name = "dragon-paper";
        coherence::EventCounts &ev = r.events;
        fill(ev, {{Event::RdHit, 39.20},
                  {Event::RmBlkCln, 0.14},
                  {Event::RmBlkDrty, 0.17},
                  {Event::RmFirstRef, 0.32},
                  {Event::WhDistrib, 1.74},
                  {Event::WhLocal, 8.62},
                  {Event::WmBlkCln, 0.01},
                  {Event::WmBlkDrty, 0.01},
                  {Event::WmFirstRef, 0.08}});
        return r;
    }
};

TEST_F(PaperTable4, Dir1NbCumulativeMatchesTable5)
{
    const CostBreakdown cost =
        sim::computeCost(Scheme::Dir1NB, dir1nb(),
                         bus::standardBuses().pipelined);
    // Published: 0.3210 bus cycles per reference.
    EXPECT_NEAR(cost.total(), 0.3210, 0.005);
    // Write hits are free in Dir1NB.
    EXPECT_DOUBLE_EQ(cost.dirCheck, 0.0);
    EXPECT_DOUBLE_EQ(cost.writeWord, 0.0);
}

TEST_F(PaperTable4, WtiCumulativeMatchesTable5)
{
    const CostBreakdown cost = sim::computeCost(
        Scheme::WTI, dir0b(), bus::standardBuses().pipelined);
    // Published: 0.1466.
    EXPECT_NEAR(cost.total(), 0.1466, 0.007);
    // Write-through traffic dominates (Figure 4).
    EXPECT_GT(cost.writeWord / cost.total(), 0.6);
}

TEST_F(PaperTable4, Dir0bCumulativeMatchesTable5)
{
    const CostBreakdown cost = sim::computeCost(
        Scheme::Dir0B, dir0b(), bus::standardBuses().pipelined);
    // Published: 0.0491.  Table 4's frequencies are rounded to two
    // decimals and the paper does not publish the exclusive/shared
    // write-hit split, so the reconstruction carries ~10 % slack.
    EXPECT_NEAR(cost.total(), 0.0491, 0.0048);
    // Published dir-access row: 0.0041.
    EXPECT_NEAR(cost.dirCheck, 0.0041, 0.0004);
}

TEST_F(PaperTable4, DragonCumulativeMatchesTable5)
{
    const CostBreakdown cost = sim::computeCost(
        Scheme::Dragon, dragon(), bus::standardBuses().pipelined);
    // Published: 0.0336.
    EXPECT_NEAR(cost.total(), 0.0336, 0.002);
    // Figure 4: Dragon splits cycles roughly evenly between loading
    // caches and write updates.
    EXPECT_NEAR(cost.writeWord / cost.total(), 0.5, 0.1);
}

TEST_F(PaperTable4, Section51TransactionCoefficients)
{
    const auto pipe = bus::standardBuses().pipelined;
    const CostBreakdown d0 =
        sim::computeCost(Scheme::Dir0B, dir0b(), pipe);
    const CostBreakdown dr =
        sim::computeCost(Scheme::Dragon, dragon(), pipe);
    // Published: Dir0B 0.0491 + 0.0114 q; Dragon 0.0336 + 0.0206 q.
    EXPECT_NEAR(d0.transactionsPerRef, 0.0114, 0.0005);
    EXPECT_NEAR(dr.transactionsPerRef, 0.0206, 0.0005);
    // "With q = 1 Dir0B needs only 12% more bus cycles than Dragon,
    // as compared with 46% in Figure 2."
    const double gap0 = d0.total() / dr.total() - 1.0;
    CostOptions q1;
    q1.overheadQ = 1.0;
    const double gap1 =
        sim::computeCost(Scheme::Dir0B, dir0b(), pipe, q1).total() /
            sim::computeCost(Scheme::Dragon, dragon(), pipe, q1)
                .total() -
        1.0;
    // Published: the gap shrinks from 46 % to 12 % at q = 1.  The
    // reconstruction preserves the shape: a large gap collapses to a
    // small one because Dragon makes ~1.8x more transactions.
    EXPECT_GT(gap0, 0.25);
    EXPECT_LT(gap1, gap0 / 2.0);
    EXPECT_LT(gap1, 0.15);
}

TEST_F(PaperTable4, Section6SequentialInvalidates)
{
    const auto pipe = bus::standardBuses().pipelined;
    const double broadcast =
        sim::computeCost(Scheme::Dir0B, dir0b(), pipe).total();
    const double sequential =
        sim::computeCost(Scheme::DirNNBSeq, dir0b(), pipe).total();
    // Published: 0.0491 -> 0.0499 (a very small increase).
    EXPECT_GE(sequential, broadcast - 0.0005);
    EXPECT_NEAR(sequential - broadcast, 0.0008, 0.002);
}

TEST_F(PaperTable4, Section6Dir1BLinearModel)
{
    const auto pipe = bus::standardBuses().pipelined;
    CostOptions opts;
    opts.nPointers = 1;
    opts.broadcastCost = 0.0;
    const double base =
        sim::computeCost(Scheme::DirIB, dir0b(), pipe, opts).total();
    opts.broadcastCost = 1.0;
    const double slope =
        sim::computeCost(Scheme::DirIB, dir0b(), pipe, opts).total() -
        base;
    // Published: 0.0485 + 0.0006 b (same reconstruction slack as the
    // Dir0B cumulative).
    EXPECT_NEAR(base, 0.0485, 0.0048);
    EXPECT_NEAR(slope, 0.0006, 0.0004);
}

TEST_F(PaperTable4, BerkeleyDropsDirectoryCost)
{
    const auto pipe = bus::standardBuses().pipelined;
    const CostBreakdown d0 =
        sim::computeCost(Scheme::Dir0B, dir0b(), pipe);
    const CostBreakdown bk =
        sim::computeCost(Scheme::Berkeley, dir0b(), pipe);
    EXPECT_DOUBLE_EQ(bk.dirCheck, 0.0);
    EXPECT_NEAR(d0.total() - bk.total(), d0.dirCheck, 1e-12);
}

TEST_F(PaperTable4, Figure5PerTransactionShape)
{
    const auto pipe = bus::standardBuses().pipelined;
    const double d1 = sim::computeCost(Scheme::Dir1NB, dir1nb(), pipe)
                          .perTransaction();
    const double wti =
        sim::computeCost(Scheme::WTI, dir0b(), pipe).perTransaction();
    const double d0 = sim::computeCost(Scheme::Dir0B, dir0b(), pipe)
                          .perTransaction();
    const double dr = sim::computeCost(Scheme::Dragon, dragon(), pipe)
                          .perTransaction();
    // Figure 5: Dir1NB has the longest transactions, WTI the
    // shortest; Dragon transactions are much shorter than Dir0B's.
    EXPECT_GT(d1, d0);
    EXPECT_GT(d0, dr);
    EXPECT_GT(dr, wti);
    EXPECT_NEAR(d1, 6.0, 0.2);
}

// ---------------------------------------------------------------------
// Cost-model unit behaviour on hand-built inputs.
// ---------------------------------------------------------------------

TEST(CostModel, EmptyResultsCostNothing)
{
    EngineResults empty;
    for (Scheme scheme :
         {Scheme::Dir1NB, Scheme::Dir0B, Scheme::WTI, Scheme::Dragon,
          Scheme::DirNNBSeq, Scheme::DirIB, Scheme::Berkeley,
          Scheme::YenFu}) {
        const CostBreakdown cost = sim::computeCost(
            scheme, empty, bus::standardBuses().pipelined);
        EXPECT_DOUBLE_EQ(cost.total(), 0.0)
            << sim::schemeName(scheme);
        EXPECT_DOUBLE_EQ(cost.perTransaction(), 0.0);
    }
}

TEST(CostModel, FirstReferencesAreNeverCharged)
{
    EngineResults r;
    for (int i = 0; i < 100; ++i)
        r.events.record(Event::RmFirstRef);
    for (int i = 0; i < 50; ++i)
        r.events.record(Event::WmFirstRef);
    for (Scheme scheme :
         {Scheme::Dir1NB, Scheme::Dir0B, Scheme::Dragon}) {
        EXPECT_DOUBLE_EQ(
            sim::computeCost(scheme, r,
                             bus::standardBuses().pipelined)
                .total(),
            0.0)
            << sim::schemeName(scheme);
    }
    // WTI still pays the write-through for the first-reference writes.
    const CostBreakdown wti = sim::computeCost(
        Scheme::WTI, r, bus::standardBuses().pipelined);
    EXPECT_DOUBLE_EQ(wti.memAccess, 0.0);
    EXPECT_GT(wti.writeWord, 0.0);
}

TEST(CostModel, SingleReadMissCosts)
{
    EngineResults r;
    r.events.record(Event::RmBlkCln);
    const auto buses = bus::standardBuses();
    // Dir0B: one memory access over one reference.
    EXPECT_DOUBLE_EQ(
        sim::computeCost(Scheme::Dir0B, r, buses.pipelined).total(),
        5.0);
    EXPECT_DOUBLE_EQ(
        sim::computeCost(Scheme::Dir0B, r, buses.nonPipelined).total(),
        7.0);
    // Dragon identical for a clean miss.
    EXPECT_DOUBLE_EQ(
        sim::computeCost(Scheme::Dragon, r, buses.pipelined).total(),
        5.0);
}

TEST(CostModel, DirtyMissChargesFlush)
{
    EngineResults r;
    r.events.record(Event::RmBlkDrty);
    const auto pipe = bus::standardBuses().pipelined;
    // Dir0B: directory check (1) + write-back (4).
    EXPECT_DOUBLE_EQ(
        sim::computeCost(Scheme::Dir0B, r, pipe).total(), 5.0);
    // Dragon: cache-to-cache supply (5).
    const CostBreakdown dragon =
        sim::computeCost(Scheme::Dragon, r, pipe);
    EXPECT_DOUBLE_EQ(dragon.total(), 5.0);
    EXPECT_DOUBLE_EQ(dragon.cacheAccess, 5.0);
    // Dir1NB: request (1) + invalidate (1) + write-back (4).
    EXPECT_DOUBLE_EQ(
        sim::computeCost(Scheme::Dir1NB, r, pipe).total(), 6.0);
}

TEST(CostModel, Dir1NbCleanMissWithDisplacement)
{
    EngineResults r;
    r.events.record(Event::RmBlkCln);
    r.displacementInvals = 1;
    const auto pipe = bus::standardBuses().pipelined;
    // Memory access (5) + displacement invalidate (1).
    EXPECT_DOUBLE_EQ(
        sim::computeCost(Scheme::Dir1NB, r, pipe).total(), 6.0);
}

TEST(CostModel, WriteHitCleanCosts)
{
    EngineResults r;
    r.events.record(Event::WhBlkClnShared);
    r.whClnFanout.sample(3);
    const auto pipe = bus::standardBuses().pipelined;
    // Dir0B: dir check + single broadcast invalidate.
    EXPECT_DOUBLE_EQ(
        sim::computeCost(Scheme::Dir0B, r, pipe).total(), 2.0);
    // Sequential: dir check + 3 directed invalidates.
    EXPECT_DOUBLE_EQ(
        sim::computeCost(Scheme::DirNNBSeq, r, pipe).total(), 4.0);
    // Dir2B with broadcast cost 10: fanout 3 > 2 pointers -> 1 + 10.
    CostOptions opts;
    opts.nPointers = 2;
    opts.broadcastCost = 10.0;
    EXPECT_DOUBLE_EQ(
        sim::computeCost(Scheme::DirIB, r, pipe, opts).total(), 11.0);
    // Dir4B: fanout 3 <= 4 -> directed.
    opts.nPointers = 4;
    EXPECT_DOUBLE_EQ(
        sim::computeCost(Scheme::DirIB, r, pipe, opts).total(), 4.0);
}

TEST(CostModel, YenFuTradesChecksForUpdates)
{
    EngineResults r;
    r.events.record(Event::WhBlkClnExcl);
    r.whClnFanout.sample(0);
    r.holderGrowth12 = 0;
    const auto pipe = bus::standardBuses().pipelined;
    // Exclusive clean write hit is free under Yen-Fu...
    EXPECT_DOUBLE_EQ(
        sim::computeCost(Scheme::YenFu, r, pipe).total(), 0.0);
    // ...but each 1->2 holder growth costs a bus word.
    r.holderGrowth12 = 1;
    EXPECT_DOUBLE_EQ(
        sim::computeCost(Scheme::YenFu, r, pipe).total(), 1.0);
}

TEST(CostModel, OverheadQScalesWithTransactions)
{
    EngineResults r;
    r.events.record(Event::RmBlkCln);
    r.events.record(Event::RmBlkCln);
    const auto pipe = bus::standardBuses().pipelined;
    CostOptions opts;
    opts.overheadQ = 3.0;
    const CostBreakdown cost =
        sim::computeCost(Scheme::Dir0B, r, pipe, opts);
    EXPECT_DOUBLE_EQ(cost.transactionsPerRef, 1.0);
    EXPECT_DOUBLE_EQ(cost.overhead, 3.0);
    EXPECT_DOUBLE_EQ(cost.total(), 5.0 + 3.0);
}

TEST(CostModel, ReplacementWriteBacksCharged)
{
    EngineResults r;
    r.events.record(Event::RdHit);
    r.replacementWriteBacks = 1;
    const auto pipe = bus::standardBuses().pipelined;
    EXPECT_DOUBLE_EQ(
        sim::computeCost(Scheme::Dir0B, r, pipe).writeBack, 4.0);
}

TEST(CostModel, SchemeNames)
{
    EXPECT_EQ(sim::schemeName(Scheme::Dir1NB), "Dir1NB");
    EXPECT_EQ(sim::schemeName(Scheme::DirINB, 4), "Dir4NB");
    EXPECT_EQ(sim::schemeName(Scheme::DirIB, 2), "Dir2B");
    EXPECT_EQ(sim::schemeName(Scheme::Dir0B), "Dir0B");
    EXPECT_EQ(sim::schemeName(Scheme::DirNNBSeq), "DirnNB");
}

TEST(CostModel, EngineKinds)
{
    EXPECT_EQ(sim::engineKindFor(Scheme::Dir1NB),
              sim::EngineKind::Limited);
    EXPECT_EQ(sim::engineKindFor(Scheme::DirINB),
              sim::EngineKind::Limited);
    EXPECT_EQ(sim::engineKindFor(Scheme::Dragon),
              sim::EngineKind::Dragon);
    for (Scheme s : {Scheme::Dir0B, Scheme::WTI, Scheme::DirNNBSeq,
                     Scheme::DirIB, Scheme::Berkeley, Scheme::YenFu})
        EXPECT_EQ(sim::engineKindFor(s), sim::EngineKind::Inval);
}

TEST(CostModel, DirIBWithHugeBroadcastCostConvergesToSequential)
{
    // When no event exceeds i pointers, DirIB == DirnNB regardless of
    // the broadcast cost.
    EngineResults r;
    r.events.record(Event::WhBlkClnShared);
    r.whClnFanout.sample(2);
    const auto pipe = bus::standardBuses().pipelined;
    CostOptions opts;
    opts.nPointers = 4;
    opts.broadcastCost = 1e6;
    EXPECT_DOUBLE_EQ(
        sim::computeCost(Scheme::DirIB, r, pipe, opts).total(),
        sim::computeCost(Scheme::DirNNBSeq, r, pipe).total());
}

} // namespace

namespace
{

using dirsim::gen::Rng;

/**
 * Property suite over randomly generated EngineResults: structural
 * invariants every cost model must satisfy.
 */
class CostModelProperties : public ::testing::TestWithParam<int>
{
  protected:
    static EngineResults
    randomResults(std::uint64_t seed)
    {
        Rng rng(seed);
        EngineResults r;
        auto record_many = [&](Event e, std::uint64_t max) {
            const std::uint64_t n = rng.nextBelow(max + 1);
            for (std::uint64_t i = 0; i < n; ++i)
                r.events.record(e);
            return n;
        };
        record_many(Event::Instr, 5000);
        record_many(Event::RdHit, 4000);
        record_many(Event::RmBlkCln, 60);
        const auto rm_drty = record_many(Event::RmBlkDrty, 60);
        record_many(Event::RmFirstRef, 40);
        record_many(Event::WhBlkDrty, 900);
        const auto wh_excl = record_many(Event::WhBlkClnExcl, 40);
        const auto wh_shared = record_many(Event::WhBlkClnShared, 40);
        const auto wm_cln = record_many(Event::WmBlkCln, 20);
        record_many(Event::WmBlkDrty, 20);
        record_many(Event::WmFirstRef, 10);
        (void)rm_drty;
        r.whClnFanout.sample(0, wh_excl);
        for (std::uint64_t i = 0; i < wh_shared; ++i)
            r.whClnFanout.sample(1 + rng.nextBelow(3));
        for (std::uint64_t i = 0; i < wm_cln; ++i)
            r.wmClnFanout.sample(1 + rng.nextBelow(3));
        r.displacementInvals = rng.nextBelow(50);
        r.holderGrowth12 = rng.nextBelow(50);
        return r;
    }

    static const std::vector<Scheme> &
    allSchemes()
    {
        static const std::vector<Scheme> schemes = {
            Scheme::Dir1NB,   Scheme::DirINB, Scheme::Dir0B,
            Scheme::DirNNBSeq, Scheme::DirIB,  Scheme::WTI,
            Scheme::Dragon,   Scheme::Berkeley, Scheme::YenFu,
            Scheme::BerkeleyOwn, Scheme::MESI};
        return schemes;
    }
};

TEST_P(CostModelProperties, TotalsEqualCategorySums)
{
    const EngineResults r = randomResults(GetParam());
    const auto buses = bus::standardBuses();
    for (Scheme scheme : allSchemes()) {
        for (const auto *costs : {&buses.pipelined,
                                  &buses.nonPipelined}) {
            const CostBreakdown c =
                sim::computeCost(scheme, r, *costs);
            EXPECT_NEAR(c.total(),
                        c.memAccess + c.cacheAccess + c.writeBack +
                            c.writeWord + c.dirCheck + c.invalidate +
                            c.overhead,
                        1e-12)
                << c.scheme << " on " << c.bus;
        }
    }
}

TEST_P(CostModelProperties, CostsAndTransactionsNonNegative)
{
    const EngineResults r = randomResults(GetParam() + 100);
    for (Scheme scheme : allSchemes()) {
        const CostBreakdown c = sim::computeCost(
            scheme, r, bus::standardBuses().pipelined);
        EXPECT_GE(c.total(), 0.0) << c.scheme;
        EXPECT_GE(c.transactionsPerRef, 0.0) << c.scheme;
        EXPECT_GE(c.memAccess, 0.0);
        EXPECT_GE(c.invalidate, 0.0);
    }
}

TEST_P(CostModelProperties, OverheadIsAffineInQ)
{
    const EngineResults r = randomResults(GetParam() + 200);
    for (Scheme scheme : allSchemes()) {
        CostOptions q0;
        CostOptions q2;
        q2.overheadQ = 2.0;
        CostOptions q5;
        q5.overheadQ = 5.0;
        const auto pipe = bus::standardBuses().pipelined;
        const double c0 =
            sim::computeCost(scheme, r, pipe, q0).total();
        const double c2 =
            sim::computeCost(scheme, r, pipe, q2).total();
        const double c5 =
            sim::computeCost(scheme, r, pipe, q5).total();
        // Affine: the slope between any two points matches.
        EXPECT_NEAR((c2 - c0) / 2.0, (c5 - c0) / 5.0, 1e-12)
            << sim::schemeName(scheme);
    }
}

TEST_P(CostModelProperties, DirIBIsAffineInBroadcastCost)
{
    const EngineResults r = randomResults(GetParam() + 300);
    const auto pipe = bus::standardBuses().pipelined;
    for (unsigned i : {1u, 2u, 3u}) {
        CostOptions opts;
        opts.nPointers = i;
        opts.broadcastCost = 0.0;
        const double b0 =
            sim::computeCost(Scheme::DirIB, r, pipe, opts).total();
        opts.broadcastCost = 4.0;
        const double b4 =
            sim::computeCost(Scheme::DirIB, r, pipe, opts).total();
        opts.broadcastCost = 10.0;
        const double b10 =
            sim::computeCost(Scheme::DirIB, r, pipe, opts).total();
        EXPECT_NEAR((b4 - b0) / 4.0, (b10 - b0) / 10.0, 1e-12)
            << "i=" << i;
    }
}

TEST_P(CostModelProperties, MorePointersNeverCostMore)
{
    const EngineResults r = randomResults(GetParam() + 400);
    const auto pipe = bus::standardBuses().pipelined;
    double prev = 1e9;
    for (unsigned i : {1u, 2u, 3u, 4u, 8u}) {
        CostOptions opts;
        opts.nPointers = i;
        opts.broadcastCost = 6.0;
        const double total =
            sim::computeCost(Scheme::DirIB, r, pipe, opts).total();
        EXPECT_LE(total, prev + 1e-12) << "i=" << i;
        prev = total;
    }
}

TEST_P(CostModelProperties, MergedResultsGiveWeightedAverageCost)
{
    // Costing the merge of two runs equals the reference-weighted
    // average of costing them separately (all charges are linear in
    // event frequencies).
    const EngineResults a = randomResults(GetParam() + 500);
    const EngineResults b = randomResults(GetParam() + 600);
    EngineResults merged = a;
    merged.merge(b);
    const auto pipe = bus::standardBuses().pipelined;
    for (Scheme scheme : allSchemes()) {
        const double ca =
            sim::computeCost(scheme, a, pipe).total();
        const double cb =
            sim::computeCost(scheme, b, pipe).total();
        const double cm =
            sim::computeCost(scheme, merged, pipe).total();
        const double wa =
            static_cast<double>(a.events.totalRefs());
        const double wb =
            static_cast<double>(b.events.totalRefs());
        if (wa + wb == 0.0)
            continue;
        EXPECT_NEAR(cm, (ca * wa + cb * wb) / (wa + wb), 1e-9)
            << sim::schemeName(scheme);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostModelProperties,
                         ::testing::Range(1, 9));

} // namespace
