#include "mem/set_assoc.hh"

#include <cassert>
#include <stdexcept>

namespace dirsim::mem
{

SetAssocTagStore::SetAssocTagStore(const CacheGeometry &geometry)
    : _geometry(geometry)
{
    const std::uint64_t sets = geometry.numSets();
    if (sets == 0 || !isPow2(sets))
        throw std::invalid_argument(
            "SetAssocTagStore: set count must be a nonzero power of 2");
    if (_geometry.ways == 0)
        throw std::invalid_argument(
            "SetAssocTagStore: at least one way required");
    _setMask = sets - 1;
    _tags.assign(sets * _geometry.ways, kEmpty);
}

void
SetAssocTagStore::invalidate(BlockId block)
{
    assert(block != kEmpty);
    BlockId *ways = setBase(setIndex(block));
    const unsigned n = _geometry.ways;
    for (unsigned w = 0; w < n; ++w) {
        if (ways[w] == block) {
            // Compact the remaining ways towards the front; the freed
            // way becomes the LRU slot.
            for (unsigned v = w; v + 1 < n; ++v)
                ways[v] = ways[v + 1];
            ways[n - 1] = kEmpty;
            --_resident;
            return;
        }
    }
}

bool
SetAssocTagStore::contains(BlockId block) const
{
    const BlockId *ways = setBase(setIndex(block));
    for (unsigned w = 0; w < _geometry.ways; ++w) {
        if (ways[w] == block)
            return true;
    }
    return false;
}

void
SetAssocTagStore::clear()
{
    _tags.assign(_tags.size(), kEmpty);
    _resident = 0;
}

} // namespace dirsim::mem
