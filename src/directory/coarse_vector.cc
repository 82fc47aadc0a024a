#include "directory/coarse_vector.hh"

#include <cassert>
#include <stdexcept>

#include "mem/block.hh"
#include "util/bits.hh"

namespace dirsim::directory
{

CoarseVectorEntry::CoarseVectorEntry(unsigned nUnits) : _nUnits(nUnits)
{
    if (nUnits == 0 || nUnits > maxUnits || !mem::isPow2(nUnits))
        throw std::invalid_argument(
            "CoarseVectorEntry: cache count must be a power of two "
            "<= 64");
    _nDigits = mem::log2Exact(nUnits);
}

void
CoarseVectorEntry::addSharer(unsigned unit)
{
    assert(unit < _nUnits);
    if (!_valid) {
        _valid = true;
        _value = unit;
        _both = 0;
        return;
    }
    // Merge: any digit where the new index differs from the coded
    // value becomes "both".
    const std::uint64_t diff = (_value ^ unit) & ~_both;
    _both |= diff;
    _value &= ~_both;
}

void
CoarseVectorEntry::makeOwner(unsigned unit)
{
    assert(unit < _nUnits);
    _valid = true;
    _dirty = true;
    _value = unit;
    _both = 0;
}

void
CoarseVectorEntry::removeSharer(unsigned unit)
{
    // The code cannot subtract a member in general; only an exact
    // single-cache code naming this unit can be cleared.
    if (_valid && _both == 0 && _value == unit) {
        _valid = false;
        _dirty = false;
        _value = 0;
    }
}

void
CoarseVectorEntry::cleanse()
{
    _dirty = false;
}

std::uint64_t
CoarseVectorEntry::denotedMask() const
{
    if (!_valid)
        return 0;
    // Expand the trinary code: iterate over all assignments of the
    // "both" digits.
    std::uint64_t mask = 0;
    const std::uint64_t both = _both &
                               ((_nDigits == 64)
                                    ? ~0ULL
                                    : ((1ULL << _nDigits) - 1));
    // Iterate subsets of the "both" digit positions.
    std::uint64_t subset = 0;
    do {
        mask |= 1ULL << (_value | subset);
        subset = (subset - both) & both;
    } while (subset != 0);
    return mask;
}

unsigned
CoarseVectorEntry::bothDigits() const
{
    return util::popcount(_both);
}

InvalTargets
CoarseVectorEntry::invalTargets(unsigned writer,
                                bool writerHasCopy) const
{
    (void)writerHasCopy;
    InvalTargets targets;
    targets.mask = denotedMask() & ~(1ULL << writer);
    return targets;
}

std::unique_ptr<DirEntry>
CoarseVectorFactory::make(unsigned nUnits) const
{
    return std::make_unique<CoarseVectorEntry>(nUnits);
}

} // namespace dirsim::directory
