#include "coherence/dragon_engine.hh"

#include "coherence/prepared_loop.hh"
#include "util/bits.hh"

#include <cassert>
#include <stdexcept>

namespace dirsim::coherence
{

DragonEngine::DragonEngine(unsigned nUnits) : _nUnits(nUnits)
{
    if (nUnits == 0 || nUnits > 64)
        throw std::invalid_argument(
            "DragonEngine: unit count must be in [1, 64]");
    _results.name = "dragon";
}

void
DragonEngine::reset()
{
    _results = EngineResults{};
    _results.name = "dragon";
    _blocks.clear();
}

Outcome
DragonEngine::access(unsigned unit, trace::RefType type,
                     mem::BlockId block)
{
    _blocks.cover(block);
    return step<Outcome>(unit, type, block);
}

template <typename Out>
Out
DragonEngine::step(unsigned unit, trace::RefType type, mem::BlockId block)
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
DragonEngine::accessPrepared(const trace::PreparedSpan &span)
{
    forEachPreparedRef(
        span, [this](mem::BlockId block) { _blocks.cover(block); },
        [this](unsigned unit, trace::RefType type, mem::BlockId block) {
            step<NoOutcome>(unit, type, block);
        });
}

void
DragonEngine::recordInstrs(std::uint64_t n)
{
    _results.events.record(Event::Instr, n);
}

void
DragonEngine::recordRepeatReads(std::uint64_t n)
{
    _results.events.record(Event::RdHit, n);
}

template <typename Out>
Out
DragonEngine::handleRead(unsigned unit, BlockState &st)
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
        // Supplied cache-to-cache by the owner; memory stays stale.
        classify(_results, out, Event::RmBlkDrty);
    } else if (st.holders != 0) {
        classify(_results, out, Event::RmBlkCln);
    } else {
        classify(_results, out, Event::RmMemory);
    }
    st.holders |= unit_bit;
    return out;
}

template <typename Out>
Out
DragonEngine::handleWrite(unsigned unit, BlockState &st)
{
    const std::uint64_t unit_bit = 1ULL << unit;
    Out out;
    if (st.holders & unit_bit) {
        if (st.holders == unit_bit) {
            classify(_results, out, Event::WhLocal);
        } else {
            // The shared line is pulled: distribute the update.  The
            // fanout histogram records how many remote copies the
            // update must reach (used by the network cost model; on a
            // bus one broadcast reaches them all).
            classify(_results, out, Event::WhDistrib);
            sampleFanout(_results.whClnFanout, out,
                         util::popcount(st.holders & ~unit_bit));
        }
        st.owner = static_cast<std::int16_t>(unit);
        return out;
    }
    if (!st.referenced) {
        st.referenced = true;
        classify(_results, out, Event::WmFirstRef);
    } else if (st.owner >= 0) {
        classify(_results, out, Event::WmBlkDrty);
        sampleFanout(_results.wmClnFanout, out,
                     util::popcount(st.holders));
    } else if (st.holders != 0) {
        classify(_results, out, Event::WmBlkCln);
        sampleFanout(_results.wmClnFanout, out,
                     util::popcount(st.holders));
    } else {
        classify(_results, out, Event::WmMemory);
    }
    st.holders |= unit_bit;
    st.owner = static_cast<std::int16_t>(unit);
    return out;
}

} // namespace dirsim::coherence
