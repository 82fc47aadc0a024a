#include "mem/set_assoc.hh"

#include <stdexcept>

namespace dirsim::mem
{

SetAssocTagStore::SetAssocTagStore(const CacheGeometry &geometry,
                                   unsigned copies)
    : _geometry(geometry), _ways(geometry.ways), _copies(copies)
{
    const std::uint64_t sets = geometry.numSets();
    if (sets == 0 || !isPow2(sets))
        throw std::invalid_argument(
            "SetAssocTagStore: set count must be a nonzero power of 2");
    if (_copies == 0)
        throw std::invalid_argument(
            "SetAssocTagStore: at least one copy required");
    _setWays = std::uint64_t{_copies} * _ways;
    _setMask = sets - 1;
    _tags.assign(sets * _setWays, kEmpty);
}

bool
SetAssocTagStore::contains(unsigned copy, BlockId block) const
{
    assert(copy < _copies && block < kEmpty);
    const std::uint32_t *ways = waysOf(copy, setIndex(block));
    for (unsigned w = 0; w < _ways; ++w) {
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
