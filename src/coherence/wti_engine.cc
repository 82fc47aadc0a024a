#include "coherence/wti_engine.hh"

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

WtiEngine::WtiEngine(unsigned nUnits, bool allocateOnWriteMiss)
    : _nUnits(nUnits), _allocate(allocateOnWriteMiss)
{
    if (nUnits == 0 || nUnits > 64)
        throw std::invalid_argument(
            "WtiEngine: unit count must be in [1, 64]");
    _results.name = "wti";
}

void
WtiEngine::reset()
{
    _results = EngineResults{};
    _results.name = "wti";
    _blocks.clear();
}

Outcome
WtiEngine::access(unsigned unit, trace::RefType type,
                  mem::BlockId block)
{
    _blocks.cover(block);
    return step<Outcome>(unit, type, block);
}

template <typename Out>
Out
WtiEngine::step(unsigned unit, trace::RefType type, mem::BlockId block)
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
WtiEngine::accessPrepared(const trace::PreparedSpan &span)
{
    forEachPreparedRef(
        span, [this](mem::BlockId last) { _blocks.cover(last); },
        [this](unsigned unit, trace::RefType type, mem::BlockId block) {
            step<NoOutcome>(unit, type, block);
        });
}

void
WtiEngine::recordInstrs(std::uint64_t n)
{
    _results.events.record(Event::Instr, n);
}

template <typename Out>
Out
WtiEngine::handleRead(unsigned unit, BlockState &st)
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
    } else if (st.holders != 0) {
        // Copies are never dirty under write-through, so any cached
        // copy is clean and memory is current.
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
WtiEngine::handleWrite(unsigned unit, BlockState &st)
{
    const std::uint64_t unit_bit = 1ULL << unit;
    Out out;
    const bool has_copy = (st.holders & unit_bit) != 0;
    const std::uint64_t others = st.holders & ~unit_bit;

    if (has_copy) {
        // The write-through is snooped; other copies invalidate.
        const unsigned fanout = popcount(others);
        classify(_results, out,
                 fanout == 0 ? Event::WhBlkClnExcl
                             : Event::WhBlkClnShared);
        sampleFanout(_results.whClnFanout, out, fanout);
        st.holders = unit_bit;
        return out;
    }

    if (!st.referenced) {
        st.referenced = true;
        classify(_results, out, Event::WmFirstRef);
    } else if (st.holders != 0) {
        classify(_results, out, Event::WmBlkCln);
        sampleFanout(_results.wmClnFanout, out,
                     popcount(st.holders));
    } else {
        classify(_results, out, Event::WmMemory);
    }
    // Other copies are invalidated by the snooped write-through
    // whether or not the writer allocates the block.
    st.holders = _allocate ? unit_bit : 0;
    return out;
}

} // namespace dirsim::coherence
