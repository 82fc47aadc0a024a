#include "mem/set_assoc.hh"

#include <cassert>
#include <stdexcept>

#include "util/flat_map.hh"

namespace dirsim::mem
{

SetAssocTagStore::SetAssocTagStore(const CacheGeometry &geometry)
    : _geometry(geometry), _numSets(geometry.numSets())
{
    if (_numSets == 0 || !isPow2(_numSets))
        throw std::invalid_argument(
            "SetAssocTagStore: set count must be a nonzero power of 2");
    if (_geometry.ways == 0)
        throw std::invalid_argument(
            "SetAssocTagStore: at least one way required");
    _setMask = _numSets - 1;
    _ways.assign(_numSets * _geometry.ways, Way{});
}

std::uint64_t
SetAssocTagStore::setIndex(BlockId block) const
{
    const BlockId raw = rawBlock(_names, block);
    const std::uint64_t key =
        _geometry.mixSetIndex ? util::mix64(raw) : raw;
    return key & _setMask;
}

SetAssocTagStore::Way *
SetAssocTagStore::setBase(std::uint64_t set)
{
    return &_ways[set * _geometry.ways];
}

const SetAssocTagStore::Way *
SetAssocTagStore::setBase(std::uint64_t set) const
{
    return &_ways[set * _geometry.ways];
}

TouchResult
SetAssocTagStore::touch(BlockId block)
{
    TouchResult result;
    Way *ways = setBase(setIndex(block));
    const unsigned n = _geometry.ways;

    // Search; on hit rotate the block to the MRU (front) position.
    for (unsigned w = 0; w < n; ++w) {
        if (ways[w].valid && ways[w].block == block) {
            const Way hit_way = ways[w];
            for (unsigned v = w; v > 0; --v)
                ways[v] = ways[v - 1];
            ways[0] = hit_way;
            result.hit = true;
            return result;
        }
    }

    // Miss: evict the LRU (back) way if every way is valid.
    if (ways[n - 1].valid) {
        result.evicted = true;
        result.evictedBlock = ways[n - 1].block;
    } else {
        ++_resident;
    }
    for (unsigned v = n - 1; v > 0; --v)
        ways[v] = ways[v - 1];
    ways[0] = Way{block, true};
    return result;
}

void
SetAssocTagStore::invalidate(BlockId block)
{
    Way *ways = setBase(setIndex(block));
    const unsigned n = _geometry.ways;
    for (unsigned w = 0; w < n; ++w) {
        if (ways[w].valid && ways[w].block == block) {
            // Compact the remaining ways towards the front; the freed
            // way becomes the LRU slot.
            for (unsigned v = w; v + 1 < n; ++v)
                ways[v] = ways[v + 1];
            ways[n - 1] = Way{};
            --_resident;
            return;
        }
    }
}

bool
SetAssocTagStore::contains(BlockId block) const
{
    const Way *ways = setBase(setIndex(block));
    for (unsigned w = 0; w < _geometry.ways; ++w) {
        if (ways[w].valid && ways[w].block == block)
            return true;
    }
    return false;
}

std::uint64_t
SetAssocTagStore::size() const
{
    return _resident;
}

void
SetAssocTagStore::clear()
{
    _ways.assign(_ways.size(), Way{});
    _resident = 0;
}

} // namespace dirsim::mem
