#include "coherence/limited_engine.hh"

#include "coherence/prepared_loop.hh"
#include "util/bits.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dirsim::coherence
{

LimitedEngine::LimitedEngine(unsigned nUnits, unsigned nPointers,
                             const directory::DirCacheConfig &dirCache)
    : _nUnits(nUnits), _nPointers(nPointers)
{
    if (nUnits == 0 || nUnits > 64)
        throw std::invalid_argument(
            "LimitedEngine: unit count must be in [1, 64]");
    if (nPointers == 0)
        throw std::invalid_argument(
            "LimitedEngine: Dir0NB makes no sense (no way to obtain "
            "exclusive access)");
    _nPointers = std::min(nPointers, nUnits);
    if (_nPointers > 8)
        throw std::invalid_argument(
            "LimitedEngine: at most 8 pointers (the paper's no-"
            "broadcast sweep tops out at Dir8NB; the bound keeps the "
            "per-block fill queue inline)");
    _results.name = "dir" + std::to_string(_nPointers) + "nb";
    if (dirCache.enabled)
        _dirCache =
            std::make_unique<directory::DirectoryCache>(dirCache);
}

void
LimitedEngine::reset()
{
    const std::string name = _results.name;
    _results = EngineResults{};
    _results.name = name;
    _blocks.clear();
    if (_dirCache)
        _dirCache->clear();
}

Outcome
LimitedEngine::access(unsigned unit, trace::RefType type,
                      mem::BlockId block)
{
    _blocks.cover(block);
    return step<Outcome>(unit, type, block);
}

template <typename Out>
Out
LimitedEngine::step(unsigned unit, trace::RefType type,
                    mem::BlockId block)
{
    assert(unit < _nUnits);
    if (type == trace::RefType::Instr) {
        _results.events.record(Event::Instr);
        return Out{};
    }
    BlockState &st = _blocks[block];
    if (type == trace::RefType::Read)
        return handleRead<Out>(unit, block, st);
    return handleWrite<Out>(unit, block, st);
}

void
LimitedEngine::accessPrepared(const trace::PreparedSpan &span)
{
    forEachPreparedRef(
        span, [this](mem::BlockId block) { _blocks.cover(block); },
        [this](unsigned unit, trace::RefType type, mem::BlockId block) {
            step<NoOutcome>(unit, type, block);
        });
}

void
LimitedEngine::recordInstrs(std::uint64_t n)
{
    _results.events.record(Event::Instr, n);
}

void
LimitedEngine::recordRepeatReads(std::uint64_t n)
{
    _results.events.record(Event::RdHit, n);
}

template <typename Out>
Out
LimitedEngine::touchDirCache(mem::BlockId block)
{
    Out out;
    if (!_dirCache)
        return out;
    const mem::TouchResult touch = _dirCache->touch(block);
    if (touch.hit) {
        ++_results.dirCacheHits;
        return out;
    }
    ++_results.dirCacheMisses;
    if (!touch.evicted)
        return out;
    ++_results.dirCacheEvictions;
    // The victim's tag is its dense id, and any block that ever got a
    // directory entry has been referenced.
    BlockState *victim = &_blocks[touch.evictedBlock];
    assert(victim->referenced && "dir-cache victim must be tracked");
    const unsigned invals = util::popcount(victim->mask);
    const bool writeBack = victim->owner >= 0;
    _results.dirCacheEvictionInvals += invals;
    if (writeBack) {
        // The sole dirty copy is flushed to memory before it dies.
        victim->owner = -1;
        ++_results.dirCacheEvictionWriteBacks;
    }
    victim->mask = 0;
    victim->fillq = 0;
    out.setDirCacheEviction(invals, writeBack);
    return out;
}

template <typename Out>
Out
LimitedEngine::handleRead(unsigned unit, mem::BlockId block,
                          BlockState &st)
{
    // The transition core lives in limited_policy.hh, shared with
    // MultiLimitedEngine; only the directory-cache touch between the
    // hit test and the miss service is this engine's own.
    Out out;
    if (laneReadHit(st, unit, _results, out))
        return out;
    out = touchDirCache<Out>(block);
    laneReadMiss(st, unit, _nPointers, _results, out);
    return out;
}

template <typename Out>
Out
LimitedEngine::handleWrite(unsigned unit, mem::BlockId block,
                           BlockState &st)
{
    Out out;
    if (laneWriteDirtyHit(st, unit, _results, out))
        return out;
    // A miss, or a hit to a clean copy: the directory is consulted.
    out = touchDirCache<Out>(block);
    laneWrite(st, unit, _results, out);
    return out;
}

} // namespace dirsim::coherence
