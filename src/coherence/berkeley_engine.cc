#include "coherence/berkeley_engine.hh"

#include "coherence/prepared_loop.hh"

#include <cassert>
#include <stdexcept>

namespace dirsim::coherence
{

namespace
{

unsigned
popcount(std::uint64_t mask)
{
    return static_cast<unsigned>(__builtin_popcountll(mask));
}

} // namespace

BerkeleyEngine::BerkeleyEngine(unsigned nUnits) : _nUnits(nUnits)
{
    if (nUnits == 0 || nUnits > 64)
        throw std::invalid_argument(
            "BerkeleyEngine: unit count must be in [1, 64]");
    _results.name = "berkeley";
}

void
BerkeleyEngine::reset()
{
    _results = EngineResults{};
    _results.name = "berkeley";
    _blocks.clear();
}

int
BerkeleyEngine::owner(mem::BlockId block) const
{
    const BlockState *st = _blocks.find(block);
    return st ? st->owner : -1;
}

Outcome
BerkeleyEngine::access(unsigned unit, trace::RefType type,
                       mem::BlockId block)
{
    _blocks.cover(block);
    return step<Outcome>(unit, type, block);
}

template <typename Out>
Out
BerkeleyEngine::step(unsigned unit, trace::RefType type, mem::BlockId block)
{
    assert(unit < _nUnits);
    if (type == trace::RefType::Instr) {
        _results.events.record(Event::Instr);
        return Out{};
    }
    BlockState &st = _blocks[block];
    if (type == trace::RefType::Read)
        return handleRead<Out>(unit, st);
    return handleWrite<Out>(unit, st);
}

void
BerkeleyEngine::accessPrepared(const trace::PreparedSpan &span)
{
    forEachPreparedRef(
        span, [this](mem::BlockId last) { _blocks.cover(last); },
        [this](unsigned unit, trace::RefType type, mem::BlockId block) {
            step<NoOutcome>(unit, type, block);
        });
}

void
BerkeleyEngine::recordInstrs(std::uint64_t n)
{
    _results.events.record(Event::Instr, n);
}

template <typename Out>
Out
BerkeleyEngine::handleRead(unsigned unit, BlockState &st)
{
    const std::uint64_t unit_bit = 1ULL << unit;
    Out out;
    if (st.holders & unit_bit) {
        classify(_results, out, Event::RdHit);
        return out;
    }
    if (!st.referenced) {
        st.referenced = true;
        classify(_results, out, Event::RmFirstRef);
    } else if (st.owner >= 0) {
        // The owner supplies the block cache-to-cache and *keeps*
        // ownership (SharedDirty); memory is not updated.
        classify(_results, out, Event::RmBlkDrty);
    } else if (st.holders != 0) {
        classify(_results, out, Event::RmBlkCln);
    } else {
        classify(_results, out, Event::RmMemory);
    }
    if (popcount(st.holders) == 1) {
        ++_results.holderGrowth12;
        out.setHolderGrowth12(1);
    }
    st.holders |= unit_bit;
    return out;
}

template <typename Out>
Out
BerkeleyEngine::handleWrite(unsigned unit, BlockState &st)
{
    const std::uint64_t unit_bit = 1ULL << unit;
    Out out;
    const bool has_copy = (st.holders & unit_bit) != 0;
    const std::uint64_t others = st.holders & ~unit_bit;

    if (has_copy && st.owner == static_cast<int>(unit) &&
        others == 0) {
        // Dirty (exclusive owned): silent upgrade.
        classify(_results, out, Event::WhBlkDrty);
        return out;
    }

    if (has_copy) {
        // Valid copy, or SharedDirty owner with other sharers: the
        // write must invalidate the other copies.  Classified exactly
        // as the invalidation state model classifies the same
        // reference, which keeps the event-frequency equivalence the
        // paper relies on testable.
        const unsigned fanout = popcount(others);
        classify(_results, out,
                 fanout == 0 ? Event::WhBlkClnExcl
                             : Event::WhBlkClnShared);
        sampleFanout(_results.whClnFanout, out, fanout);
    } else if (!st.referenced) {
        st.referenced = true;
        classify(_results, out, Event::WmFirstRef);
    } else if (st.owner >= 0) {
        // Owner supplies, everyone else invalidates.
        classify(_results, out, Event::WmBlkDrty);
    } else if (st.holders != 0) {
        classify(_results, out, Event::WmBlkCln);
        sampleFanout(_results.wmClnFanout, out,
                     popcount(st.holders));
    } else {
        classify(_results, out, Event::WmMemory);
    }

    st.holders = unit_bit;
    st.owner = static_cast<std::int16_t>(unit);
    return out;
}

} // namespace dirsim::coherence
