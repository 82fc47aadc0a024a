#include "coherence/multi_limited_engine.hh"

#include "coherence/prepared_loop.hh"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

namespace dirsim::coherence
{

MultiLimitedEngine::MultiLimitedEngine(
    unsigned nUnits, const std::vector<unsigned> &pointerCounts)
    : _nUnits(nUnits),
      _k(static_cast<unsigned>(pointerCounts.size())),
      _stride(2 * pointerCounts.size())
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
    _blocks.clear();
    _words.clear();
    _owners.clear();
    _referenced.clear();
    _entries = 0;
}

void
MultiLimitedEngine::reserveBlocks(std::uint64_t blocks)
{
    _blocks.reserve(blocks);
    _words.reserve(blocks * _stride);
    _owners.reserve(blocks * _k);
    _referenced.reserve(blocks * _k);
}

std::uint32_t
MultiLimitedEngine::entryFor(mem::BlockId block)
{
    const auto slot = _blocks.tryEmplace(block);
    if (!slot.inserted)
        return slot.value;
    assert(_entries < std::numeric_limits<std::uint32_t>::max());
    slot.value = _entries++;
    // Fresh entry: every lane starts empty, exactly like a fresh
    // LimitedEngine block.
    _words.resize(_words.size() + _stride, 0);
    _owners.resize(_owners.size() + _k, -1);
    _referenced.resize(_referenced.size() + _k, 0);
    return slot.value;
}

template <typename Out>
Out
MultiLimitedEngine::handleRead(unsigned unit, std::uint32_t entry)
{
    std::uint64_t *masks = _words.data() + std::size_t(entry) * _stride;
    std::uint64_t *fillqs = masks + _k;
    std::int16_t *owners = _owners.data() + std::size_t(entry) * _k;
    std::uint8_t *referenced =
        _referenced.data() + std::size_t(entry) * _k;
    Out first;
    for (unsigned l = 0; l < _k; ++l) {
        Out out;
        // Gather the lane, run the shared transition, scatter back —
        // hits store nothing, so read-mostly lanes keep their cache
        // lines clean.
        if (laneHolds(masks[l], unit)) {
            classify(_results[l], out, Event::RdHit);
        } else {
            LimitedLane lane{masks[l], fillqs[l], owners[l],
                             referenced[l] != 0};
            laneReadMiss(lane, unit, _pointers[l], _results[l], out);
            masks[l] = lane.mask;
            fillqs[l] = lane.fillq;
            owners[l] = lane.owner;
            referenced[l] = lane.referenced;
        }
        if (l == 0)
            first = out;
    }
    return first;
}

template <typename Out>
Out
MultiLimitedEngine::handleWrite(unsigned unit, std::uint32_t entry)
{
    std::uint64_t *masks = _words.data() + std::size_t(entry) * _stride;
    std::uint64_t *fillqs = masks + _k;
    std::int16_t *owners = _owners.data() + std::size_t(entry) * _k;
    std::uint8_t *referenced =
        _referenced.data() + std::size_t(entry) * _k;
    Out first;
    for (unsigned l = 0; l < _k; ++l) {
        Out out;
        if (laneHolds(masks[l], unit) &&
            owners[l] == static_cast<int>(unit)) {
            classify(_results[l], out, Event::WhBlkDrty);
        } else {
            LimitedLane lane{masks[l], fillqs[l], owners[l],
                             referenced[l] != 0};
            laneWrite(lane, unit, _results[l], out);
            masks[l] = lane.mask;
            fillqs[l] = lane.fillq;
            owners[l] = lane.owner;
            referenced[l] = lane.referenced;
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
    // The one probe that replaces k per-engine probes.
    const std::uint32_t entry = entryFor(block);
    if (type == trace::RefType::Read)
        return handleRead<Out>(unit, entry);
    return handleWrite<Out>(unit, entry);
}

void
MultiLimitedEngine::accessBatch(const BlockAccess *accs, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        step<NoOutcome>(accs[i].unit, accs[i].type, accs[i].block);
}

void
MultiLimitedEngine::accessPrepared(const PreparedSlice &slice)
{
    stripMinedAccessPrepared(
        _blocks, slice,
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
