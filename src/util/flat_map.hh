/**
 * @file
 * Open-addressing hash map for per-block lookups off the replay path.
 *
 * Engines index per-block state by dense block id
 * (coherence/block_table.hh), and the first-touch numbering that
 * assigns the ids keeps its own one-word-slot table
 * (trace/block_numbering.hh).  FlatMap's one user is
 * trace::characterize, which keeps a record per raw block; mix64
 * below also spreads the set indices of the finite tag stores and the
 * directory caches.
 *
 * std::unordered_map is node-based: one heap allocation per block and
 * two dependent pointer loads per lookup.  FlatMap stores keys in one
 * contiguous array probed linearly (values in a parallel array touched
 * only on a hit), with power-of-two capacity, tombstone deletion, and
 * clear()-without-free so a table can be reset without giving the
 * memory back.
 *
 * Contract differences from std::unordered_map:
 *  - K and V must be default-constructible and assignable.
 *  - References returned by find()/tryEmplace()/operator[] are
 *    invalidated by any later *new-key* insertion (which may rehash).
 *    Inserting an existing key, erase() and clear() never invalidate.
 *  - Iteration (forEach) visits elements in table order, which is not
 *    insertion order; callers must be order-independent.
 */

#ifndef DIRSIM_UTIL_FLAT_MAP_HH
#define DIRSIM_UTIL_FLAT_MAP_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dirsim::util
{

/**
 * splitmix64 finaliser.  Block identifiers arrive sequential or
 * strided; a multiplicative mix spreads them before the power-of-two
 * mask so linear probing sees no structured clustering.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/** Default hash: mix the key's integer value. */
template <typename K>
struct FlatHash
{
    std::uint64_t
    operator()(const K &key) const
    {
        return mix64(static_cast<std::uint64_t>(key));
    }
};

/** Linear-probing open-addressing map; see file comment for contract. */
template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatMap
{
  public:
    /** Result of tryEmplace: the (possibly fresh) value slot. */
    struct Emplaced
    {
        V &value;
        bool inserted;
    };

    FlatMap() = default;

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }
    /** Slot count (0 before the first insert/reserve). */
    std::size_t capacity() const { return _ctrl.size(); }

    /**
     * Value for @p key, default-constructing it on first use.
     *
     * @return The value slot; fresh slots hold V{}.
     */
    Emplaced
    tryEmplace(const K &key)
    {
        if (_ctrl.empty())
            rehash(minCapacity);
        std::size_t idx = _hash(key) & _mask;
        std::size_t tomb = npos;
        while (_ctrl[idx] != slotEmpty) {
            if (_ctrl[idx] == slotTomb) {
                if (tomb == npos)
                    tomb = idx;
            } else if (_keys[idx] == key) {
                return {_vals[idx], false};
            }
            idx = (idx + 1) & _mask;
        }
        if (tomb != npos) {
            // Reuse the first tombstone on the probe path; _used
            // already counts it.
            idx = tomb;
        } else {
            if (_used + 1 > (capacity() * 3) / 4) {
                // Past 3/4 occupancy linear probing degrades; double
                // when genuinely full, rehash in place when tombstones
                // are the bulk of the occupancy.
                rehash(_size + 1 > capacity() / 2 ? capacity() * 2
                                                  : capacity());
                idx = _hash(key) & _mask;
                while (_ctrl[idx] == slotFull)
                    idx = (idx + 1) & _mask;
            }
            ++_used;
        }
        _ctrl[idx] = slotFull;
        _keys[idx] = key;
        _vals[idx] = V{};
        ++_size;
        return {_vals[idx], true};
    }

    V &operator[](const K &key) { return tryEmplace(key).value; }

    V *
    find(const K &key)
    {
        const std::size_t idx = findIndex(key);
        return idx == npos ? nullptr : &_vals[idx];
    }

    const V *
    find(const K &key) const
    {
        const std::size_t idx = findIndex(key);
        return idx == npos ? nullptr : &_vals[idx];
    }

    bool contains(const K &key) const { return findIndex(key) != npos; }

    /** Remove @p key.  @return true when it was present. */
    bool
    erase(const K &key)
    {
        const std::size_t idx = findIndex(key);
        if (idx == npos)
            return false;
        _ctrl[idx] = slotTomb; // Stays counted in _used.
        _vals[idx] = V{};      // Release the value's resources now.
        --_size;
        return true;
    }

    /** Drop every element but keep the table memory. */
    void
    clear()
    {
        std::fill(_ctrl.begin(), _ctrl.end(), slotEmpty);
        _size = 0;
        _used = 0;
    }

    /** Grow so @p count elements fit without rehashing. */
    void
    reserve(std::size_t count)
    {
        const std::size_t cap = capacityFor(count);
        if (cap > capacity())
            rehash(cap);
    }

    /** Visit every (key, value); table order, not insertion order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t idx = 0; idx < _ctrl.size(); ++idx)
            if (_ctrl[idx] == slotFull)
                f(_keys[idx], _vals[idx]);
    }

  private:
    enum : std::uint8_t
    {
        slotEmpty = 0,
        slotFull = 1,
        slotTomb = 2,
    };

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    static constexpr std::size_t minCapacity = 16;

    static std::size_t
    capacityFor(std::size_t count)
    {
        std::size_t cap = minCapacity;
        while (count > (cap * 3) / 4)
            cap *= 2;
        return cap;
    }

    std::size_t
    findIndex(const K &key) const
    {
        if (_ctrl.empty())
            return npos;
        std::size_t idx = _hash(key) & _mask;
        while (_ctrl[idx] != slotEmpty) {
            if (_ctrl[idx] == slotFull && _keys[idx] == key)
                return idx;
            idx = (idx + 1) & _mask;
        }
        return npos;
    }

    void
    rehash(std::size_t newCapacity)
    {
        assert((newCapacity & (newCapacity - 1)) == 0);
        std::vector<std::uint8_t> ctrl(newCapacity, slotEmpty);
        std::vector<K> keys(newCapacity);
        std::vector<V> vals(newCapacity);
        const std::size_t mask = newCapacity - 1;
        for (std::size_t idx = 0; idx < _ctrl.size(); ++idx) {
            if (_ctrl[idx] != slotFull)
                continue;
            std::size_t at = _hash(_keys[idx]) & mask;
            while (ctrl[at] == slotFull)
                at = (at + 1) & mask;
            ctrl[at] = slotFull;
            keys[at] = _keys[idx];
            vals[at] = std::move(_vals[idx]);
        }
        _ctrl = std::move(ctrl);
        _keys = std::move(keys);
        _vals = std::move(vals);
        _mask = mask;
        _used = _size;
    }

    std::vector<std::uint8_t> _ctrl;
    std::vector<K> _keys;
    std::vector<V> _vals;
    std::size_t _mask = 0;
    std::size_t _size = 0; //!< Full slots.
    std::size_t _used = 0; //!< Full + tombstone slots.
    [[no_unique_address]] Hash _hash{};
};

} // namespace dirsim::util

#endif // DIRSIM_UTIL_FLAT_MAP_HH
