#include "directory/dir_cache.hh"

#include <stdexcept>

namespace dirsim::directory
{

DirectoryCache::DirectoryCache(const DirCacheConfig &cfg)
{
    if (cfg.entries == 0)
        return; // Unbounded: presence tracking only.
    if (cfg.associativity == 0 || cfg.entries % cfg.associativity != 0)
        throw std::invalid_argument(
            "DirectoryCache: entries must be a nonzero multiple of "
            "associativity");
    // One "byte" per entry, so the store's set count is
    // entries / associativity; it throws unless that is a power of 2.
    _store.emplace(mem::CacheGeometry{cfg.entries, 1, cfg.associativity,
                                      cfg.mixSetIndex});
    _setReplacements.assign(_store->geometry().numSets(), 0);
}

mem::TouchResult
DirectoryCache::touchPresence(mem::BlockId block)
{
    mem::TouchResult result;
    if (block >= _present.size())
        _present.resize(block + 1, 0);
    result.hit = _present[block] != 0;
    if (!result.hit) {
        _present[block] = 1;
        ++_presentCount;
    }
    return result;
}

bool
DirectoryCache::contains(mem::BlockId block) const
{
    if (_store)
        return _store->contains(0, block);
    return block < _present.size() && _present[block];
}

std::uint64_t
DirectoryCache::size() const
{
    return _store ? _store->size() : _presentCount;
}

void
DirectoryCache::clear()
{
    if (_store)
        _store->clear();
    _setReplacements.assign(_setReplacements.size(), 0);
    _present.assign(_present.size(), 0);
    _presentCount = 0;
}

void
DirectoryCache::reserveBlocks(std::uint64_t blocks)
{
    if (unbounded() && blocks > _present.size())
        _present.resize(blocks, 0);
}

} // namespace dirsim::directory
