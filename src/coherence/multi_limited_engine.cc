#include "coherence/multi_limited_engine.hh"

#include "coherence/prepared_loop.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace dirsim::coherence
{

MultiLimitedEngine::MultiLimitedEngine(
    unsigned nUnits, const std::vector<unsigned> &pointerCounts)
    : _nUnits(nUnits),
      _k(static_cast<unsigned>(pointerCounts.size())),
      _words(2 * pointerCounts.size()), _cold(pointerCounts.size())
{
    if (nUnits == 0 || nUnits > 64)
        throw std::invalid_argument(
            "MultiLimitedEngine: unit count must be in [1, 64]");
    if (pointerCounts.empty())
        throw std::invalid_argument(
            "MultiLimitedEngine: need at least one lane");
    _pointers.reserve(_k);
    _results.resize(_k);
    for (std::size_t l = 0; l < _k; ++l) {
        // Exactly LimitedEngine's validation and clamping, so lane l
        // names and behaves as LimitedEngine(nUnits, counts[l]).
        const unsigned requested = pointerCounts[l];
        if (requested == 0)
            throw std::invalid_argument(
                "MultiLimitedEngine: Dir0NB makes no sense (no way "
                "to obtain exclusive access)");
        const unsigned clamped = std::min(requested, nUnits);
        if (clamped > 8)
            throw std::invalid_argument(
                "MultiLimitedEngine: at most 8 pointers per lane "
                "(the paper's no-broadcast sweep tops out at Dir8NB; "
                "the bound keeps the per-lane fill queue inline)");
        _pointers.push_back(clamped);
        _results[l].name = "dir" + std::to_string(clamped) + "nb";
    }
}

void
MultiLimitedEngine::reset()
{
    for (EngineResults &r : _results) {
        const std::string name = r.name;
        r = EngineResults{};
        r.name = name;
    }
    _words.clear();
    _cold.clear();
}

void
MultiLimitedEngine::reserveBlocks(std::uint64_t blocks)
{
    _words.reserve(blocks);
    _cold.reserve(blocks);
}

template <typename Out>
Out
MultiLimitedEngine::handleRead(unsigned unit, mem::BlockId block)
{
    std::uint64_t *masks = _words.row(block);
    std::uint64_t *fillqs = masks + _k;
    LaneCold *cold = _cold.row(block);
    Out first;
    for (unsigned l = 0; l < _k; ++l) {
        Out out;
        // Gather the lane, run the shared transition, scatter back —
        // hits store nothing, so read-mostly lanes keep their cache
        // lines clean.
        if (laneHolds(masks[l], unit)) {
            classify(_results[l], out, Event::RdHit);
        } else {
            LimitedLane lane{masks[l], fillqs[l], cold[l].owner,
                             cold[l].referenced};
            laneReadMiss(lane, unit, _pointers[l], _results[l], out);
            masks[l] = lane.mask;
            fillqs[l] = lane.fillq;
            cold[l] = {lane.owner, lane.referenced};
        }
        if (l == 0)
            first = out;
    }
    return first;
}

template <typename Out>
Out
MultiLimitedEngine::handleWrite(unsigned unit, mem::BlockId block)
{
    std::uint64_t *masks = _words.row(block);
    std::uint64_t *fillqs = masks + _k;
    LaneCold *cold = _cold.row(block);
    Out first;
    for (unsigned l = 0; l < _k; ++l) {
        Out out;
        if (laneHolds(masks[l], unit) &&
            cold[l].owner == static_cast<int>(unit)) {
            classify(_results[l], out, Event::WhBlkDrty);
        } else {
            LimitedLane lane{masks[l], fillqs[l], cold[l].owner,
                             cold[l].referenced};
            laneWrite(lane, unit, _results[l], out);
            masks[l] = lane.mask;
            fillqs[l] = lane.fillq;
            cold[l] = {lane.owner, lane.referenced};
        }
        if (l == 0)
            first = out;
    }
    return first;
}

Outcome
MultiLimitedEngine::access(unsigned unit, trace::RefType type,
                           mem::BlockId block)
{
    cover(block);
    return step<Outcome>(unit, type, block);
}

template <typename Out>
Out
MultiLimitedEngine::step(unsigned unit, trace::RefType type,
                         mem::BlockId block)
{
    assert(unit < _nUnits);
    if (type == trace::RefType::Instr) {
        for (EngineResults &r : _results)
            r.events.record(Event::Instr);
        return Out{};
    }
    // The one lookup that replaces k per-engine lookups.
    if (type == trace::RefType::Read)
        return handleRead<Out>(unit, block);
    return handleWrite<Out>(unit, block);
}

void
MultiLimitedEngine::accessPrepared(const trace::PreparedSpan &span)
{
    forEachPreparedRef(
        span, [this](mem::BlockId last) { cover(last); },
        [this](unsigned unit, trace::RefType type, mem::BlockId block) {
            step<NoOutcome>(unit, type, block);
        });
}

void
MultiLimitedEngine::recordInstrs(std::uint64_t n)
{
    for (EngineResults &r : _results)
        r.events.record(Event::Instr, n);
}

} // namespace dirsim::coherence
