#include "directory/dir_cache.hh"

#include <stdexcept>

#include "util/flat_map.hh"

namespace dirsim::directory
{

DirectoryCache::DirectoryCache(const DirCacheConfig &cfg) : _cfg(cfg)
{
    if (_cfg.entries == 0)
        return; // Unbounded: presence tracking only.
    if (_cfg.associativity == 0 ||
        _cfg.entries % _cfg.associativity != 0)
        throw std::invalid_argument(
            "DirectoryCache: entries must be a nonzero multiple of "
            "associativity");
    _numSets = _cfg.entries / _cfg.associativity;
    if (!mem::isPow2(_numSets))
        throw std::invalid_argument(
            "DirectoryCache: set count must be a power of two");
    _setMask = _numSets - 1;
    _ways.assign(_numSets * _cfg.associativity, Way{});
    _setReplacements.assign(_numSets, 0);
}

std::uint64_t
DirectoryCache::setIndexOf(mem::BlockId block) const
{
    const mem::BlockId raw = mem::rawBlock(_names, block);
    const std::uint64_t key = _cfg.mixSetIndex ? util::mix64(raw) : raw;
    return key & _setMask;
}

DirCacheTouch
DirectoryCache::touch(mem::BlockId block)
{
    DirCacheTouch result;
    if (unbounded()) {
        if (block >= _present.size())
            _present.resize(block + 1, 0);
        if (!_present[block]) {
            _present[block] = 1;
            ++_misses;
            ++_resident;
        } else {
            ++_hits;
            result.hit = true;
        }
        return result;
    }

    const std::uint64_t set = setIndexOf(block);
    Way *ways = &_ways[set * _cfg.associativity];
    const unsigned n = _cfg.associativity;

    // Search; on hit rotate the entry to the MRU (front) position.
    for (unsigned w = 0; w < n; ++w) {
        if (ways[w].valid && ways[w].block == block) {
            const Way hit_way = ways[w];
            for (unsigned v = w; v > 0; --v)
                ways[v] = ways[v - 1];
            ways[0] = hit_way;
            ++_hits;
            result.hit = true;
            return result;
        }
    }

    // Miss: replace the LRU (back) way if every way is valid.
    ++_misses;
    if (ways[n - 1].valid) {
        result.evicted = true;
        result.victim = ways[n - 1].block;
        ++_evictions;
        ++_setReplacements[set];
    } else {
        ++_resident;
    }
    for (unsigned v = n - 1; v > 0; --v)
        ways[v] = ways[v - 1];
    ways[0] = Way{block, true};
    return result;
}

bool
DirectoryCache::contains(mem::BlockId block) const
{
    if (unbounded())
        return block < _present.size() && _present[block];
    const Way *ways = &_ways[setIndexOf(block) * _cfg.associativity];
    for (unsigned w = 0; w < _cfg.associativity; ++w) {
        if (ways[w].valid && ways[w].block == block)
            return true;
    }
    return false;
}

std::uint64_t
DirectoryCache::size() const
{
    return _resident;
}

void
DirectoryCache::clear()
{
    _ways.assign(_ways.size(), Way{});
    _setReplacements.assign(_setReplacements.size(), 0);
    _present.assign(_present.size(), 0);
    _resident = 0;
    _hits = 0;
    _misses = 0;
    _evictions = 0;
}

void
DirectoryCache::reserveBlocks(std::uint64_t blocks)
{
    if (unbounded() && blocks > _present.size())
        _present.resize(blocks, 0);
}

} // namespace dirsim::directory
