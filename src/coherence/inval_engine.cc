#include "coherence/inval_engine.hh"

#include "coherence/prepared_loop.hh"
#include "util/bits.hh"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace dirsim::coherence
{

InvalEngine::InvalEngine(const InvalEngineConfig &cfg)
    : _cfg(cfg), _dirArena(cfg.dirFactory, cfg.nUnits)
{
    if (cfg.nUnits == 0 || cfg.nUnits > directory::maxUnits)
        throw std::invalid_argument(
            "InvalEngine: unit count must be in [1, 64]");
    _results.name = "inval";
    if (_cfg.finiteCaches)
        _caches.emplace(*_cfg.finiteCaches, _cfg.nUnits);
    if (_cfg.dirCache.enabled)
        _dirCache = std::make_unique<directory::DirectoryCache>(
            _cfg.dirCache);
}

void
InvalEngine::reset()
{
    _results = EngineResults{};
    _results.name = "inval";
    _blocks.clear();
    _dirArena.clear();
    if (_caches)
        _caches->clear();
    if (_dirCache)
        _dirCache->clear();
}

void
InvalEngine::reserveBlocks(std::uint64_t blocks)
{
    _blocks.reserve(blocks);
    _dirArena.reserve(blocks);
    if (_dirCache)
        _dirCache->reserveBlocks(blocks);
}

void
InvalEngine::bindBlockNames(mem::BlockNames names)
{
    _names = names;
    if (_caches)
        _caches->bindBlockNames(names);
    if (_dirCache)
        _dirCache->bindBlockNames(names);
}

InvalEngine::BlockState &
InvalEngine::lookup(mem::BlockId block)
{
    BlockState &st = _blocks[block];
    if (_dirArena.enabled() && st.dir == directory::DirEntryArena::npos)
        st.dir = _dirArena.allocate();
    return st;
}

void
InvalEngine::recordHomeUse(unsigned unit, BlockState &st,
                           mem::BlockId block)
{
    if (_cfg.homePolicy == HomePolicy::None)
        return;
    if (st.home < 0) {
        st.home = _cfg.homePolicy == HomePolicy::Modulo
                      ? static_cast<std::int16_t>(
                            mem::rawBlock(_names, block) % _cfg.nUnits)
                      : static_cast<std::int16_t>(unit);
    }
    if (st.home == static_cast<int>(unit))
        ++_results.homeLocalTransactions;
    else
        ++_results.homeRemoteTransactions;
}

std::uint64_t
InvalEngine::holders(mem::BlockId block) const
{
    const BlockState *st = _blocks.find(block);
    return st ? st->holders : 0;
}

int
InvalEngine::dirtyOwner(mem::BlockId block) const
{
    const BlockState *st = _blocks.find(block);
    return st ? st->owner : -1;
}

bool
InvalEngine::fillCache(unsigned unit, mem::BlockId block)
{
    if (!_caches)
        return false;
    const mem::TouchResult touch = _caches->touch(unit, block);
    if (!touch.evicted)
        return false;
    ++_results.replacementEvictions;
    // The victim came out of a tag store, whose tag is the dense id,
    // so it was filled by an earlier miss and is tracked already.
    BlockState *victim = &_blocks[touch.evictedBlock];
    assert(victim->referenced && "evicted block must be tracked");
    victim->holders &= ~(1ULL << unit);
    const bool writeBack = victim->owner == static_cast<int>(unit);
    if (writeBack) {
        victim->owner = -1;
        ++_results.replacementWriteBacks;
    }
    if (directory::DirEntry *dir = dirOf(*victim))
        dir->removeSharer(unit);
    return writeBack;
}

template <typename Out>
Out
InvalEngine::touchDirCache(mem::BlockId block)
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
    // Any block that ever got a directory entry is tracked, and the
    // entry's tag is its dense id.
    BlockState *victim = &_blocks[touch.evictedBlock];
    assert(victim->referenced && "dir-cache victim must be tracked");
    const unsigned invals = util::popcount(victim->holders);
    const bool writeBack = victim->owner >= 0;
    _results.dirCacheEvictionInvals += invals;
    out.setDirCacheEviction(invals, writeBack);
    if (writeBack) {
        // The sole dirty copy is flushed to memory before it dies.
        victim->owner = -1;
        ++_results.dirCacheEvictionWriteBacks;
        if (directory::DirEntry *dir = dirOf(*victim))
            dir->cleanse();
    }
    if (directory::DirEntry *dir = dirOf(*victim)) {
        // The shadowed organisation forgets the entry's state too.
        for (unsigned u = 0; u < _cfg.nUnits; ++u) {
            if (victim->holders & (1ULL << u))
                dir->removeSharer(u);
        }
    }
    invalidateMask(touch.evictedBlock, *victim, victim->holders);
    return out;
}

void
InvalEngine::invalidateMask(mem::BlockId block, BlockState &st,
                            std::uint64_t mask)
{
    st.holders &= ~mask;
    if (_caches) {
        for (std::uint64_t m = mask; m != 0; m &= m - 1)
            _caches->invalidate(static_cast<unsigned>(std::countr_zero(m)),
                                block);
    }
}

Outcome
InvalEngine::access(unsigned unit, trace::RefType type,
                    mem::BlockId block)
{
    _blocks.cover(block);
    return step<Outcome>(unit, type, block);
}

template <typename Out>
Out
InvalEngine::step(unsigned unit, trace::RefType type, mem::BlockId block)
{
    assert(unit < _cfg.nUnits);
    if (type == trace::RefType::Instr) {
        _results.events.record(Event::Instr);
        return Out{};
    }
    BlockState &st = lookup(block);
    if (type == trace::RefType::Read)
        return handleRead<Out>(unit, block, st);
    return handleWrite<Out>(unit, block, st);
}

void
InvalEngine::accessPrepared(const trace::PreparedSpan &span)
{
    forEachPreparedRef(
        span, [this](mem::BlockId block) { _blocks.cover(block); },
        [this](unsigned unit, trace::RefType type, mem::BlockId block) {
            step<NoOutcome>(unit, type, block);
        });
}

void
InvalEngine::recordInstrs(std::uint64_t n)
{
    _results.events.record(Event::Instr, n);
}

bool
InvalEngine::repeatReadsHit() const
{
    return !_cfg.finiteCaches && !_cfg.dirCache.enabled;
}

void
InvalEngine::recordRepeatReads(std::uint64_t n)
{
    _results.events.record(Event::RdHit, n);
}

template <typename Out>
Out
InvalEngine::handleRead(unsigned unit, mem::BlockId block,
                        BlockState &st)
{
    const std::uint64_t unit_bit = 1ULL << unit;
    Out out;

    if (st.holders & unit_bit) {
        classify(_results, out, Event::RdHit);
        if (_caches)
            _caches->touch(unit, block); // Refresh LRU.
        return out;
    }

    // Every miss involves the block's home node (memory + directory).
    recordHomeUse(unit, st, block);
    out = touchDirCache<Out>(block);

    if (!st.referenced) {
        st.referenced = true;
        classify(_results, out, Event::RmFirstRef);
    } else if (st.owner >= 0) {
        // Flush: the ex-owner writes back and keeps a clean copy; the
        // requester snarfs the data.
        classify(_results, out, Event::RmBlkDrty);
        st.owner = -1;
        if (directory::DirEntry *dir = dirOf(st))
            dir->cleanse();
    } else if (st.holders != 0) {
        classify(_results, out, Event::RmBlkCln);
    } else {
        classify(_results, out, Event::RmMemory);
    }

    if (util::hasSingleBit(st.holders)) {
        ++_results.holderGrowth12;
        out.setHolderGrowth12(1);
    }
    st.holders |= unit_bit;
    if (directory::DirEntry *dir = dirOf(st))
        dir->addSharer(unit);
    out.setReplacementWriteBacks(fillCache(unit, block));
    return out;
}

void
InvalEngine::recordDirActivity(unsigned unit, bool unitHasCopy,
                               const BlockState &st)
{
    const directory::DirEntry *dir = dirOf(st);
    if (!dir)
        return;
    const directory::InvalTargets targets =
        dir->invalTargets(unit, unitHasCopy);
    if (targets.broadcast) {
        ++_results.dirBroadcasts;
        return;
    }
    const std::uint64_t others = st.holders & ~(1ULL << unit);
    _results.dirDirectedInvals += targets.count();
    _results.dirOvershoot += util::popcount(targets.mask & ~others);
    // A directory must reach every real copy: directed targets may
    // overshoot but never miss a holder.
    assert((others & ~targets.mask) == 0);
}

template <typename Out>
Out
InvalEngine::handleWrite(unsigned unit, mem::BlockId block,
                         BlockState &st)
{
    const std::uint64_t unit_bit = 1ULL << unit;
    const bool has_copy = (st.holders & unit_bit) != 0;
    Out out;

    if (has_copy && st.owner == static_cast<int>(unit)) {
        classify(_results, out, Event::WhBlkDrty);
        if (_caches)
            _caches->touch(unit, block);
        return out;
    }

    // Reaching here means a directory transaction: a miss, or a hit
    // to a clean copy whose write permission the directory grants.
    out = touchDirCache<Out>(block);

    if (has_copy) {
        // Write hit to a clean copy.  A dirty copy elsewhere is
        // impossible: dirty implies sole holder.
        assert(st.owner < 0);
        recordHomeUse(unit, st, block);
        const std::uint64_t others = st.holders & ~unit_bit;
        const unsigned fanout = util::popcount(others);
        classify(_results, out,
                 fanout == 0 ? Event::WhBlkClnExcl
                             : Event::WhBlkClnShared);
        sampleFanout(_results.whClnFanout, out, fanout);
        recordDirActivity(unit, true, st);
        invalidateMask(block, st, others);
        if (_caches)
            _caches->touch(unit, block);
    } else if (!st.referenced) {
        st.referenced = true;
        recordHomeUse(unit, st, block);
        classify(_results, out, Event::WmFirstRef);
        out.setReplacementWriteBacks(fillCache(unit, block));
    } else if (st.owner >= 0) {
        // Flush the dirty copy and invalidate it; the requester
        // receives the data.
        recordHomeUse(unit, st, block);
        classify(_results, out, Event::WmBlkDrty);
        recordDirActivity(unit, false, st);
        invalidateMask(block, st, st.holders);
        out.setReplacementWriteBacks(fillCache(unit, block));
    } else if (st.holders != 0) {
        recordHomeUse(unit, st, block);
        classify(_results, out, Event::WmBlkCln);
        sampleFanout(_results.wmClnFanout, out, util::popcount(st.holders));
        recordDirActivity(unit, false, st);
        invalidateMask(block, st, st.holders);
        out.setReplacementWriteBacks(fillCache(unit, block));
    } else {
        recordHomeUse(unit, st, block);
        classify(_results, out, Event::WmMemory);
        out.setReplacementWriteBacks(fillCache(unit, block));
    }

    st.holders = unit_bit;
    st.owner = static_cast<std::int16_t>(unit);
    if (directory::DirEntry *dir = dirOf(st))
        dir->makeOwner(unit);
    return out;
}

} // namespace dirsim::coherence
