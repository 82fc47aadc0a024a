#include "analysis/exhibits.hh"

#include "bus/bus_model.hh"
#include "coherence/events.hh"
#include "directory/storage.hh"

namespace dirsim::analysis
{

using coherence::EngineResults;
using coherence::Event;
using stats::TextTable;

namespace
{

/** "-" placeholder used where the paper leaves a cell blank. */
const std::string blank = "-";

std::string
pctOf(const EngineResults &r, std::uint64_t count)
{
    if (r.events.totalRefs() == 0)
        return "0.00";
    return TextTable::pct(static_cast<double>(count) /
                              static_cast<double>(r.events.totalRefs()));
}

std::string
pctEvent(const EngineResults &r, Event e)
{
    return pctOf(r, r.events.count(e));
}

} // namespace

const std::vector<PaperScheme> &
paperSchemes()
{
    static const std::vector<PaperScheme> schemes = {
        PaperScheme::Dir1NB, PaperScheme::WTI, PaperScheme::Dir0B,
        PaperScheme::Dragon};
    return schemes;
}

const EngineResults &
resultsFor(PaperScheme scheme, const TraceEvaluation &te)
{
    switch (scheme) {
      case PaperScheme::Dir1NB:
        return te.dir1nb;
      case PaperScheme::Dragon:
        return te.dragon;
      case PaperScheme::WTI:
      case PaperScheme::Dir0B:
        // WTI and Dir0B share the same state-change model (Section 5
        // of the paper), hence the same engine run.
        return te.inval;
    }
    return te.inval;
}

sim::Scheme
simSchemeFor(PaperScheme scheme)
{
    switch (scheme) {
      case PaperScheme::Dir1NB:
        return sim::Scheme::Dir1NB;
      case PaperScheme::WTI:
        return sim::Scheme::WTI;
      case PaperScheme::Dir0B:
        return sim::Scheme::Dir0B;
      case PaperScheme::Dragon:
        return sim::Scheme::Dragon;
    }
    return sim::Scheme::Dir0B;
}

std::string
paperSchemeName(PaperScheme scheme)
{
    return sim::schemeName(simSchemeFor(scheme));
}

std::vector<SchemeCost>
schemeCosts(const TraceEvaluation &te, double overheadQ)
{
    const bus::BusModels buses = bus::standardBuses();
    std::vector<SchemeCost> costs;
    for (PaperScheme scheme : paperSchemes()) {
        sim::CostOptions opts;
        opts.overheadQ = overheadQ;
        SchemeCost sc;
        sc.name = paperSchemeName(scheme);
        sc.pipelined = sim::computeCost(simSchemeFor(scheme),
                                        resultsFor(scheme, te),
                                        buses.pipelined, opts);
        sc.nonPipelined = sim::computeCost(simSchemeFor(scheme),
                                           resultsFor(scheme, te),
                                           buses.nonPipelined, opts);
        costs.push_back(std::move(sc));
    }
    return costs;
}

TextTable
table1()
{
    const bus::BusPrimitives prim;
    TextTable table("Table 1: Timing for fundamental bus operations",
                    {"Operation", "Bus cycles"});
    table.addRow({"Transfer 1 data word",
                  std::to_string(prim.transferWord)});
    table.addRow({"Send address", std::to_string(prim.sendAddress)});
    table.addRow({"Invalidate", std::to_string(prim.invalidate)});
    table.addRow({"Wait for directory",
                  std::to_string(prim.waitDirectory)});
    table.addRow({"Wait for memory", std::to_string(prim.waitMemory)});
    table.addRow({"Wait for cache", std::to_string(prim.waitCache)});
    return table;
}

TextTable
table2()
{
    const bus::BusModels buses = bus::standardBuses();
    TextTable table("Table 2: Summary of bus cycle costs",
                    {"Access type", "Pipelined bus",
                     "Non-pipelined bus"});
    auto row = [&](const std::string &label, unsigned p, unsigned np) {
        table.addRow({label, std::to_string(p), std::to_string(np)});
    };
    row("Memory access", buses.pipelined.memoryAccess,
        buses.nonPipelined.memoryAccess);
    row("Cache access", buses.pipelined.cacheAccess,
        buses.nonPipelined.cacheAccess);
    row("Write-back", buses.pipelined.writeBack,
        buses.nonPipelined.writeBack);
    row("Write-through / update", buses.pipelined.writeWord,
        buses.nonPipelined.writeWord);
    row("Directory check", buses.pipelined.directoryCheck,
        buses.nonPipelined.directoryCheck);
    row("Invalidate", buses.pipelined.invalidate,
        buses.nonPipelined.invalidate);
    return table;
}

TextTable
table3(const std::vector<trace::TraceCharacteristics> &chars)
{
    TextTable table(
        "Table 3: Summary of trace characteristics (thousands)",
        {"Trace", "Refs", "Instr", "DRd", "DWrt", "User", "Sys",
         "Rd/Wrt", "Spin rds"});
    auto k = [](std::uint64_t v) {
        return std::to_string((v + 500) / 1000);
    };
    for (const auto &ch : chars) {
        table.addRow({ch.name, k(ch.refs), k(ch.instr),
                      k(ch.dataReads), k(ch.dataWrites), k(ch.user),
                      k(ch.system), TextTable::num(ch.readWriteRatio(), 2),
                      TextTable::pct(ch.lockTestReadFrac(), 1) + "%"});
    }
    return table;
}

TextTable
table4(const Evaluation &eval)
{
    const TraceEvaluation &avg = eval.average;
    const EngineResults &d1 = avg.dir1nb;
    const EngineResults &iv = avg.inval;
    const EngineResults &dg = avg.dragon;

    TextTable table(
        "Table 4: Event frequencies (% of all references, trace "
        "average)",
        {"Event", "Dir1NB", "WTI", "Dir0B", "Dragon"});

    auto pct4 = [&](Event e) {
        return std::vector<std::string>{pctEvent(d1, e),
                                        pctEvent(iv, e),
                                        pctEvent(iv, e),
                                        pctEvent(dg, e)};
    };

    table.addRow({"instr", pctEvent(d1, Event::Instr),
                  pctEvent(iv, Event::Instr), pctEvent(iv, Event::Instr),
                  pctEvent(dg, Event::Instr)});
    table.addRow({"read", pctOf(d1, d1.events.reads()),
                  pctOf(iv, iv.events.reads()),
                  pctOf(iv, iv.events.reads()),
                  pctOf(dg, dg.events.reads())});
    table.addRow({"  rd-hit", pctEvent(d1, Event::RdHit),
                  pctEvent(iv, Event::RdHit), pctEvent(iv, Event::RdHit),
                  pctEvent(dg, Event::RdHit)});
    table.addRow({"  rd-miss(rm)", pctOf(d1, d1.events.readMisses()),
                  pctOf(iv, iv.events.readMisses()),
                  pctOf(iv, iv.events.readMisses()),
                  pctOf(dg, dg.events.readMisses())});
    {
        auto row = pct4(Event::RmBlkCln);
        table.addRow({"    rm-blk-cln", row[0], blank, row[2], row[3]});
    }
    {
        auto row = pct4(Event::RmBlkDrty);
        table.addRow({"    rm-blk-drty", row[0], blank, row[2], row[3]});
    }
    {
        auto row = pct4(Event::RmFirstRef);
        table.addRow(
            {"  rm-first-ref", row[0], row[1], row[2], row[3]});
    }
    table.addRow({"write", pctOf(d1, d1.events.writes()),
                  pctOf(iv, iv.events.writes()),
                  pctOf(iv, iv.events.writes()),
                  pctOf(dg, dg.events.writes())});
    table.addRow({"  wrt-hit(wh)", pctOf(d1, d1.events.writeHits()),
                  pctOf(iv, iv.events.writeHits()),
                  pctOf(iv, iv.events.writeHits()),
                  pctOf(dg, dg.events.writeHits())});
    table.addRow({"    wh-blk-cln", blank, blank,
                  pctOf(iv, iv.events.writeHitsClean()), blank});
    table.addRow({"    wh-blk-drty", blank, blank,
                  pctEvent(iv, Event::WhBlkDrty), blank});
    table.addRow({"    wh-distrib", blank, blank, blank,
                  pctEvent(dg, Event::WhDistrib)});
    table.addRow({"    wh-local", blank, blank, blank,
                  pctEvent(dg, Event::WhLocal)});
    table.addRow({"  wrt-miss(wm)", pctOf(d1, d1.events.writeMisses()),
                  pctOf(iv, iv.events.writeMisses()),
                  pctOf(iv, iv.events.writeMisses()),
                  pctOf(dg, dg.events.writeMisses())});
    {
        auto row = pct4(Event::WmBlkCln);
        table.addRow({"    wm-blk-cln", row[0], blank, row[2], row[3]});
    }
    {
        auto row = pct4(Event::WmBlkDrty);
        table.addRow({"    wm-blk-drty", row[0], blank, row[2], row[3]});
    }
    {
        auto row = pct4(Event::WmFirstRef);
        table.addRow(
            {"  wm-first-ref", row[0], row[1], row[2], row[3]});
    }
    return table;
}

Figure1
figure1(const Evaluation &eval)
{
    Figure1 fig;
    fig.fanout.merge(eval.average.inval.whClnFanout);
    fig.fanout.merge(eval.average.inval.wmClnFanout);
    fig.fracAtMostOne = fig.fanout.fracAtMost(1);
    return fig;
}

TextTable
renderFigure1(const Figure1 &fig, unsigned nCaches)
{
    TextTable table(
        "Figure 1: Caches invalidated on a write to a previously-clean "
        "block (% of such writes)",
        {"Caches", "Percent"});
    for (unsigned k = 0; k < nCaches; ++k) {
        table.addRow({std::to_string(k),
                      TextTable::pct(fig.fanout.frac(k))});
    }
    table.addSeparator();
    table.addRow({"<= 1", TextTable::pct(fig.fracAtMostOne)});
    return table;
}

TextTable
figure2(const Evaluation &eval)
{
    TextTable table(
        "Figure 2: Bus cycles per memory reference (trace average; "
        "low = pipelined, high = non-pipelined)",
        {"Scheme", "Pipelined", "Non-pipelined"});
    for (const SchemeCost &sc : schemeCosts(eval.average)) {
        table.addRow({sc.name, TextTable::num(sc.pipelined.total()),
                      TextTable::num(sc.nonPipelined.total())});
    }
    return table;
}

TextTable
figure3(const Evaluation &eval)
{
    TextTable table(
        "Figure 3: Bus cycles per memory reference by trace "
        "(pipelined / non-pipelined)",
        {"Trace", "Dir1NB", "WTI", "Dir0B", "Dragon"});
    for (const TraceEvaluation &te : eval.traces) {
        std::vector<std::string> row = {te.trace};
        for (const SchemeCost &sc : schemeCosts(te)) {
            row.push_back(TextTable::num(sc.pipelined.total()) + " / " +
                          TextTable::num(sc.nonPipelined.total()));
        }
        table.addRow(row);
    }
    return table;
}

TextTable
table5(const Evaluation &eval)
{
    const std::vector<SchemeCost> costs = schemeCosts(eval.average);
    TextTable table(
        "Table 5: Breakdown of bus cycles per reference (pipelined "
        "bus)",
        {"Access", "Dir1NB", "WTI", "Dir0B", "Dragon"});
    auto row = [&](const std::string &label,
                   double(sim::CostBreakdown::*field)) {
        std::vector<std::string> cells = {label};
        for (const SchemeCost &sc : costs) {
            const double v = sc.pipelined.*field;
            cells.push_back(v == 0.0 ? blank : TextTable::num(v));
        }
        table.addRow(cells);
    };
    row("mem access", &sim::CostBreakdown::memAccess);
    row("cache access", &sim::CostBreakdown::cacheAccess);
    row("invalidates", &sim::CostBreakdown::invalidate);
    row("wrt-backs", &sim::CostBreakdown::writeBack);
    row("wt or wup", &sim::CostBreakdown::writeWord);
    row("dir access", &sim::CostBreakdown::dirCheck);
    table.addSeparator();
    std::vector<std::string> cum = {"cumulative"};
    for (const SchemeCost &sc : costs)
        cum.push_back(TextTable::num(sc.pipelined.total()));
    table.addRow(cum);
    return table;
}

TextTable
figure4(const Evaluation &eval)
{
    const std::vector<SchemeCost> costs = schemeCosts(eval.average);
    TextTable table(
        "Figure 4: Bus-cycle breakdown as a fraction of each scheme's "
        "total (pipelined bus, %)",
        {"Access", "Dir1NB", "WTI", "Dir0B", "Dragon"});
    auto row = [&](const std::string &label,
                   double(sim::CostBreakdown::*field)) {
        std::vector<std::string> cells = {label};
        for (const SchemeCost &sc : costs) {
            const double total = sc.pipelined.total();
            const double v =
                total == 0.0 ? 0.0 : sc.pipelined.*field / total;
            cells.push_back(v == 0.0 ? blank : TextTable::pct(v, 1));
        }
        table.addRow(cells);
    };
    row("mem access", &sim::CostBreakdown::memAccess);
    row("cache access", &sim::CostBreakdown::cacheAccess);
    row("invalidates", &sim::CostBreakdown::invalidate);
    row("wrt-backs", &sim::CostBreakdown::writeBack);
    row("wt or wup", &sim::CostBreakdown::writeWord);
    row("dir access", &sim::CostBreakdown::dirCheck);
    return table;
}

TextTable
figure5(const Evaluation &eval)
{
    TextTable table(
        "Figure 5: Average bus cycles per bus transaction (pipelined "
        "bus)",
        {"Scheme", "Cycles/transaction", "Transactions/ref"});
    for (const SchemeCost &sc : schemeCosts(eval.average)) {
        table.addRow({sc.name,
                      TextTable::num(sc.pipelined.perTransaction(), 2),
                      TextTable::num(sc.pipelined.transactionsPerRef)});
    }
    return table;
}

TextTable
section51(const Evaluation &eval, const std::vector<double> &qValues)
{
    std::vector<std::string> headers = {"Scheme",
                                        "base (cyc/ref)",
                                        "txn/ref (q coef)"};
    for (double q : qValues)
        headers.push_back("q=" + TextTable::num(q, 0));
    TextTable table(
        "Section 5.1: Fixed per-transaction overhead sensitivity "
        "(pipelined bus)",
        headers);
    for (PaperScheme scheme : paperSchemes()) {
        const auto &results = resultsFor(scheme, eval.average);
        sim::CostBreakdown base =
            sim::computeCost(simSchemeFor(scheme), results,
                             bus::standardBuses().pipelined);
        std::vector<std::string> row = {
            paperSchemeName(scheme), TextTable::num(base.total()),
            TextTable::num(base.transactionsPerRef)};
        for (double q : qValues) {
            row.push_back(TextTable::num(
                base.total() + q * base.transactionsPerRef));
        }
        table.addRow(row);
    }
    return table;
}

TextTable
section52(const Evaluation &withLocks, const Evaluation &withoutLocks)
{
    TextTable table(
        "Section 5.2: Impact of spin-lock test reads (pipelined bus, "
        "bus cycles per reference)",
        {"Scheme", "With lock tests", "Lock tests excluded"});
    const auto with_costs = schemeCosts(withLocks.average);
    const auto without_costs = schemeCosts(withoutLocks.average);
    for (std::size_t s = 0; s < with_costs.size(); ++s) {
        table.addRow({with_costs[s].name,
                      TextTable::num(with_costs[s].pipelined.total()),
                      TextTable::num(
                          without_costs[s].pipelined.total())});
    }
    return table;
}

Section6
section6(const Evaluation &eval, double broadcastCost)
{
    const bus::BusCosts pipe = bus::standardBuses().pipelined;
    const EngineResults &iv = eval.average.inval;
    Section6 sec;
    sec.dir0b = sim::computeCost(sim::Scheme::Dir0B, iv, pipe).total();
    sec.dirnnbSeq =
        sim::computeCost(sim::Scheme::DirNNBSeq, iv, pipe).total();
    sec.berkeley =
        sim::computeCost(sim::Scheme::Berkeley, iv, pipe).total();
    sec.yenfu = sim::computeCost(sim::Scheme::YenFu, iv, pipe).total();

    // Dir1B linear model in the broadcast cost b: evaluating at b = 0
    // and b = 1 recovers base and slope exactly (the model is affine).
    sim::CostOptions d1b;
    d1b.nPointers = 1;
    d1b.broadcastCost = 0.0;
    sec.dir1bBase =
        sim::computeCost(sim::Scheme::DirIB, iv, pipe, d1b).total();
    d1b.broadcastCost = 1.0;
    sec.dir1bCoef =
        sim::computeCost(sim::Scheme::DirIB, iv, pipe, d1b).total() -
        sec.dir1bBase;

    for (unsigned i = 1; i <= 4; ++i) {
        sim::CostOptions opts;
        opts.nPointers = i;
        opts.broadcastCost = broadcastCost;
        sec.diribTotals.emplace_back(
            i, sim::computeCost(sim::Scheme::DirIB, iv, pipe, opts)
                   .total());
    }
    return sec;
}

TextTable
renderSection6(const Section6 &sec, double broadcastCost)
{
    TextTable table(
        "Section 6: Scalable directory alternatives (pipelined bus, "
        "bus cycles per reference)",
        {"Scheme", "Cycles/ref"});
    table.addRow({"Dir0B (broadcast inval)", TextTable::num(sec.dir0b)});
    table.addRow({"DirnNB (sequential inval)",
                  TextTable::num(sec.dirnnbSeq)});
    table.addRow({"Berkeley estimate", TextTable::num(sec.berkeley)});
    table.addRow({"Yen-Fu single bit", TextTable::num(sec.yenfu)});
    table.addRow({"Dir1B model base", TextTable::num(sec.dir1bBase)});
    table.addRow({"Dir1B model slope (per b)",
                  TextTable::num(sec.dir1bCoef)});
    for (const auto &[i, total] : sec.diribTotals) {
        table.addRow({"Dir" + std::to_string(i) + "B (b=" +
                          TextTable::num(broadcastCost, 0) + ")",
                      TextTable::num(total)});
    }
    return table;
}

TextTable
section5Berkeley(const Evaluation &eval, const EngineResults &berkeleyOwn)
{
    const bus::BusModels buses = bus::standardBuses();
    TextTable table(
        "Section 5 aside: the Berkeley estimate vs the real protocol "
        "(and relatives), bus cycles per reference",
        {"Scheme", "Pipelined", "Non-pipelined"});
    const auto row = [&](sim::Scheme scheme, const EngineResults &r) {
        const sim::CostBreakdown pipe =
            sim::computeCost(scheme, r, buses.pipelined);
        table.addRow(
            {pipe.scheme, TextTable::num(pipe.total()),
             TextTable::num(
                 sim::computeCost(scheme, r, buses.nonPipelined)
                     .total())});
    };
    // The real engine keeps ownership across read misses, so more
    // misses are serviced cache-to-cache than the estimate assumes.
    row(sim::Scheme::Dir0B, eval.average.inval);
    row(sim::Scheme::Berkeley, eval.average.inval);
    row(sim::Scheme::BerkeleyOwn, berkeleyOwn);
    row(sim::Scheme::MESI, eval.average.inval);
    row(sim::Scheme::YenFu, eval.average.inval);
    row(sim::Scheme::Dragon, eval.average.dragon);
    return table;
}

TextTable
section6Storage(const std::vector<unsigned> &cacheCounts)
{
    std::vector<std::string> headers = {"Scheme"};
    for (const unsigned n : cacheCounts)
        headers.push_back("n=" + std::to_string(n));
    TextTable table(
        "Section 6: directory storage (bits per main-memory block)",
        headers);
    for (const directory::StorageRow &row : directory::storageTable(
             cacheCounts, directory::StorageParams{})) {
        std::vector<std::string> cells = {row.scheme};
        for (const double bits : row.bitsPerBlock)
            cells.push_back(TextTable::num(bits, 1));
        table.addRow(cells);
    }
    return table;
}

TextTable
limitedSweepTable(const std::vector<EngineResults> &sweep,
                  const std::vector<unsigned> &pointerCounts)
{
    const bus::BusModels buses = bus::standardBuses();
    TextTable table(
        "DiriNB pointer sweep (no broadcast; misses rise as i "
        "shrinks)",
        {"i", "rd-miss %", "displacements %", "Pipelined cyc/ref",
         "Non-pipelined cyc/ref"});
    for (std::size_t s = 0; s < sweep.size(); ++s) {
        const EngineResults &r = sweep[s];
        const unsigned i = pointerCounts[s];
        sim::CostOptions opts;
        opts.nPointers = i;
        const sim::Scheme scheme =
            i == 1 ? sim::Scheme::Dir1NB : sim::Scheme::DirINB;
        const double refs =
            static_cast<double>(r.events.totalRefs());
        table.addRow(
            {std::to_string(i),
             TextTable::pct(refs == 0.0
                                ? 0.0
                                : static_cast<double>(
                                      r.events.readMisses()) /
                                      refs),
             TextTable::pct(refs == 0.0
                                ? 0.0
                                : static_cast<double>(
                                      r.displacementInvals) /
                                      refs),
             TextTable::num(
                 sim::computeCost(scheme, r, buses.pipelined, opts)
                     .total()),
             TextTable::num(
                 sim::computeCost(scheme, r, buses.nonPipelined, opts)
                     .total())});
    }
    return table;
}

} // namespace dirsim::analysis
