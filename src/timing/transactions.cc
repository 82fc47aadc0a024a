#include "timing/transactions.hh"

#include <cmath>
#include <initializer_list>
#include <limits>
#include <stdexcept>

namespace dirsim::timing
{

using coherence::EngineResults;
using coherence::Event;
using coherence::Outcome;

namespace
{

/** Validate a CostOptions double as a whole, representable cycle
 *  count (the timed model deals in integer cycles). */
std::uint32_t
toCycles(double value, const char *what)
{
    if (!(value >= 0.0) || value != std::floor(value) ||
        value > static_cast<double>(
                    std::numeric_limits<std::uint32_t>::max())) {
        throw std::invalid_argument(
            std::string("timed bus: ") + what +
            " must be a non-negative whole number of cycles");
    }
    return static_cast<std::uint32_t>(value);
}

/** Add @p cycles of uncounted traffic to @p charge: onto its last
 *  tenure, or as a tenure of its own when it has none. */
void
fold(RefCharge &charge, std::uint64_t cycles)
{
    if (cycles == 0)
        return;
    if (charge.count != 0)
        charge.txns[charge.count - 1].busCycles +=
            static_cast<std::uint32_t>(cycles);
    else
        charge.add(cycles, false);
}

} // namespace

TransactionModel::TransactionModel(sim::Scheme scheme,
                                   const bus::BusCosts &bus,
                                   const sim::CostOptions &opts)
    : _bus(bus),
      _nPointers(scheme == sim::Scheme::Dir1NB ? 1 : opts.nPointers),
      _broadcastCycles(toCycles(opts.broadcastCost, "broadcastCost")),
      _overheadQ(toCycles(opts.overheadQ, "overheadQ"))
{
    const std::uint32_t mem = bus.memoryAccess;
    const std::uint32_t cache = bus.cacheAccess;
    const std::uint32_t wb = bus.writeBack;
    const std::uint32_t ww = bus.writeWord;
    const std::uint32_t dc = bus.directoryCheck;
    const std::uint32_t inv = bus.invalidate;
    const std::uint32_t req = bus.requestAddress;
    constexpr bool memory = true;

    // One counted transaction (so carrying q) for each of @p events.
    const auto txn = [this](std::initializer_list<Event> events,
                            std::uint64_t cycles, bool usesMemory) {
        for (const Event e : events)
            _rows[static_cast<std::size_t>(e)].add(cycles + _overheadQ,
                                                   usesMemory);
    };

    switch (scheme) {
      case sim::Scheme::Dir1NB:
      case sim::Scheme::DirINB:
        txn({Event::RmBlkCln, Event::RmMemory, Event::WmBlkCln,
             Event::WmMemory},
            mem, memory);
        txn({Event::RmBlkDrty, Event::WmBlkDrty}, req + wb + inv, false);
        // A single pointer makes cached blocks exclusive by
        // construction, so write hits are free for i = 1.
        if (_nPointers >= 2) {
            txn({Event::WhBlkClnExcl, Event::WhBlkClnShared}, dc, false);
            _whFanout = Fanout::Directed;
        }
        _wmFanout = Fanout::Directed;
        // Pointer displacements on fills are charged but are not bus
        // transactions of their own in the static accounting.
        _displacementCycles = inv;
        break;

      case sim::Scheme::Dir0B:
        txn({Event::RmBlkCln, Event::RmMemory, Event::WmMemory}, mem,
            memory);
        txn({Event::WmBlkCln}, mem + inv, memory);
        txn({Event::RmBlkDrty}, req + wb, false);
        txn({Event::WmBlkDrty}, req + wb + inv, false);
        // "Clean in exactly one cache" suppresses the broadcast.
        txn({Event::WhBlkClnExcl}, dc, false);
        txn({Event::WhBlkClnShared}, dc + inv, false);
        break;

      case sim::Scheme::DirNNBSeq:
      case sim::Scheme::DirIB:
        txn({Event::RmBlkCln, Event::RmMemory, Event::WmMemory,
             Event::WmBlkCln},
            mem, memory);
        txn({Event::RmBlkDrty}, req + wb, false);
        txn({Event::WmBlkDrty}, req + wb + inv, false);
        txn({Event::WhBlkClnExcl, Event::WhBlkClnShared}, dc, false);
        // Clean-block writes invalidate each copy with a directed
        // message; DiriB broadcasts once the copies outnumber its
        // pointers.
        _whFanout = _wmFanout = scheme == sim::Scheme::DirIB
                                    ? Fanout::Pointer
                                    : Fanout::Directed;
        break;

      case sim::Scheme::WTI:
        txn({Event::RmBlkCln, Event::RmBlkDrty, Event::RmMemory,
             Event::WmBlkCln, Event::WmBlkDrty, Event::WmMemory},
            mem, memory);
        // Every write goes through (a write miss's after its fill);
        // snooping invalidates for free.
        txn({Event::WmBlkCln, Event::WmBlkDrty, Event::WmMemory,
             Event::WhBlkDrty, Event::WhBlkClnExcl,
             Event::WhBlkClnShared, Event::WmFirstRef},
            ww, false);
        break;

      case sim::Scheme::Dragon:
        txn({Event::RmBlkCln, Event::RmMemory, Event::WmMemory}, mem,
            memory);
        txn({Event::RmBlkDrty}, cache, false);
        txn({Event::WmBlkCln}, mem + ww, memory);
        txn({Event::WmBlkDrty}, cache + ww, false);
        txn({Event::WhDistrib}, ww, false);
        break;

      case sim::Scheme::Berkeley:
      case sim::Scheme::YenFu:
        txn({Event::RmBlkCln, Event::RmMemory, Event::WmMemory}, mem,
            memory);
        txn({Event::WmBlkCln}, mem + inv, memory);
        txn({Event::RmBlkDrty}, req + wb, false);
        txn({Event::WmBlkDrty}, req + wb + inv, false);
        if (scheme == sim::Scheme::Berkeley) {
            // The cache's own state replaces the directory probe.
            txn({Event::WhBlkClnShared}, inv, false);
        } else {
            // The single bit answers the exclusive-clean check
            // locally, but keeping single bits current costs one bus
            // word per 1 -> 2 holder transition.
            txn({Event::WhBlkClnShared}, dc + inv, false);
            _growthTenure = true;
        }
        break;

      case sim::Scheme::BerkeleyOwn:
        txn({Event::RmBlkCln, Event::RmMemory, Event::WmMemory}, mem,
            memory);
        txn({Event::WmBlkCln}, mem + inv, memory);
        // The owning cache supplies; no memory write-back.
        txn({Event::RmBlkDrty}, cache, false);
        txn({Event::WmBlkDrty}, cache + inv, false);
        // No exclusivity knowledge: every clean write hit broadcasts
        // one invalidate.
        txn({Event::WhBlkClnExcl, Event::WhBlkClnShared}, inv, false);
        break;

      case sim::Scheme::MESI:
        txn({Event::RmMemory, Event::WmMemory}, mem, memory);
        txn({Event::RmBlkCln}, cache, false);
        txn({Event::WmBlkCln}, cache + inv, false);
        txn({Event::RmBlkDrty}, req + wb, false);
        txn({Event::WmBlkDrty}, req + wb + inv, false);
        // Exclusive-clean write hits are silent.
        txn({Event::WhBlkClnShared}, inv, false);
        break;
    }

    // Zero-cycle tenures occupy nothing and cost nothing: drop them.
    for (std::size_t e = 0; e < coherence::numEvents; ++e) {
        for (unsigned t = 0; t < _rows[e].count; ++t) {
            const TxnCharge &txn = _rows[e].txns[t];
            if (txn.busCycles != 0)
                _base[e].add(txn.busCycles, txn.usesMemory);
        }
    }
}

std::uint64_t
TransactionModel::fanoutCycles(Fanout rule, std::uint64_t fanout) const
{
    switch (rule) {
      case Fanout::None:
        break;
      case Fanout::Directed:
        return fanout * _bus.invalidate;
      case Fanout::Pointer:
        return fanout <= _nPointers ? fanout * _bus.invalidate
                                    : _broadcastCycles;
    }
    return 0;
}

const RefCharge &
TransactionModel::price(const Outcome &o)
{
    const RefCharge &row = _rows[static_cast<std::size_t>(o.event())];
    const std::uint64_t growth =
        o.sampled() ? fanoutCycles(coherence::isWriteHit(o.event())
                                       ? _whFanout
                                       : _wmFanout,
                                   o.fanout())
                    : 0;

    RefCharge &out = _scratch;
    out.count = 0;
    for (unsigned t = 0; t < row.count; ++t) {
        const std::uint64_t cycles =
            row.txns[t].busCycles + (t == 0 ? growth : 0);
        if (cycles != 0)
            out.add(cycles, row.txns[t].usesMemory);
    }
    if (row.count == 0)
        fold(out, growth);
    fold(out,
         std::uint64_t(o.displacementInvals()) * _displacementCycles);
    if (_growthTenure && o.holderGrowth12() != 0) {
        const std::uint64_t cycles =
            std::uint64_t(o.holderGrowth12()) * _bus.writeWord +
            _overheadQ;
        if (cycles != 0)
            out.add(cycles, false);
    }
    // Finite-cache replacement write-backs and directory-cache
    // eviction traffic use the bus but are not transactions of their
    // own in the static accounting.
    fold(out,
         std::uint64_t(o.replacementWriteBacks()) * _bus.writeBack +
             std::uint64_t(o.dirCacheEvictionInvals()) * _bus.invalidate +
             std::uint64_t(o.dirCacheEvictionWriteBacks()) *
                 _bus.writeBack);
    return out;
}

std::uint64_t
TransactionModel::histogramCycles(const stats::Histogram &hist,
                                  Fanout rule) const
{
    std::uint64_t cycles = 0;
    if (rule == Fanout::None)
        return cycles;
    for (std::size_t k = 0; k <= hist.maxValue(); ++k)
        cycles += hist.count(k) * fanoutCycles(rule, k);
    return cycles;
}

std::uint64_t
TransactionModel::totalCycles(const EngineResults &r) const
{
    std::uint64_t cycles = 0;
    for (std::size_t e = 0; e < coherence::numEvents; ++e) {
        std::uint64_t row = 0;
        for (unsigned t = 0; t < _rows[e].count; ++t)
            row += _rows[e].txns[t].busCycles;
        cycles += r.events.count(static_cast<Event>(e)) * row;
    }
    cycles += histogramCycles(r.whClnFanout, _whFanout) +
              histogramCycles(r.wmClnFanout, _wmFanout);
    cycles += r.displacementInvals * _displacementCycles;
    if (_growthTenure)
        cycles += r.holderGrowth12 * (_bus.writeWord + _overheadQ);
    return cycles + r.replacementWriteBacks * _bus.writeBack +
           r.dirCacheEvictionInvals * _bus.invalidate +
           r.dirCacheEvictionWriteBacks * _bus.writeBack;
}

std::uint64_t
staticBusCycles(sim::Scheme scheme, const EngineResults &results,
                const bus::BusCosts &bus, const sim::CostOptions &opts)
{
    return TransactionModel(scheme, bus, opts).totalCycles(results);
}

} // namespace dirsim::timing
