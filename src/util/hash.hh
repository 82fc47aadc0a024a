/**
 * @file
 * Two hashes: mix64 for set indices, and a streaming 64-bit content
 * hash for on-disk integrity checks.
 *
 * The stored-trace format (trace/store.hh) frames multi-megabyte
 * column segments and needs a digest that (a) streams — segments are
 * written incrementally and verified window by window, (b) mixes well
 * enough that any single flipped byte, swapped word or truncation
 * changes the value, and (c) is a pure function of the byte sequence,
 * identical across processes, platforms and compiler versions (bytes
 * are combined little-endian explicitly, never through type punning).
 *
 * The construction is xxhash-style: 64-bit lanes folded into one
 * accumulator with multiply-rotate rounds, the total length folded in
 * at the end, and an xorshift-multiply avalanche finish.  It makes no
 * compatibility claim with any external library — the only consumer
 * is our own format, which records the format version next to every
 * digest.
 */

#ifndef DIRSIM_UTIL_HASH_HH
#define DIRSIM_UTIL_HASH_HH

#include <cstddef>
#include <cstdint>

namespace dirsim::util
{

/**
 * splitmix64 finaliser.  Spreads raw block indices, which arrive
 * sequential or power-of-two strided, across the sets of the finite
 * tag stores and directory caches.
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

/** Incremental 64-bit hash over an arbitrary byte stream. */
class StreamHash64
{
  public:
    explicit StreamHash64(std::uint64_t seed = 0)
        : _acc(seed ^ kPrime5)
    {
    }

    /** Fold @p n bytes at @p data into the running state. */
    void
    update(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        _len += n;
        // Finish a previously buffered partial lane first.
        while (_pending != 0 && n != 0) {
            _lane |= static_cast<std::uint64_t>(*p++) << (8 * _pending);
            if (++_pending == 8) {
                round(_lane);
                _lane = 0;
                _pending = 0;
            }
            --n;
        }
        while (n >= 8) {
            round(readLE64(p));
            p += 8;
            n -= 8;
        }
        // Buffer the tail bytes until a full lane accumulates.
        while (n != 0) {
            _lane |= static_cast<std::uint64_t>(*p++) << (8 * _pending);
            ++_pending;
            --n;
        }
    }

    /** Digest of everything updated so far (the state stays usable:
     *  further update() calls continue the same stream). */
    std::uint64_t
    value() const
    {
        std::uint64_t h = _acc;
        if (_pending != 0) {
            // Fold the partial lane tagged with its width so "ab" +
            // "c\0" and "abc" + "\0" digest differently.
            h ^= mix(_lane + kPrime3 * (_pending + 1));
            h = rotl(h, 27) * kPrime1 + kPrime4;
        }
        h ^= _len;
        h ^= h >> 33;
        h *= kPrime2;
        h ^= h >> 29;
        h *= kPrime3;
        h ^= h >> 32;
        return h;
    }

    /** One-shot convenience. */
    static std::uint64_t
    of(const void *data, std::size_t n, std::uint64_t seed = 0)
    {
        StreamHash64 h(seed);
        h.update(data, n);
        return h.value();
    }

  private:
    static constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
    static constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
    static constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ULL;
    static constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;
    static constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ULL;

    static constexpr std::uint64_t
    rotl(std::uint64_t v, unsigned r)
    {
        return (v << r) | (v >> (64 - r));
    }

    static constexpr std::uint64_t
    mix(std::uint64_t v)
    {
        v *= kPrime2;
        v = rotl(v, 31);
        v *= kPrime1;
        return v;
    }

    void
    round(std::uint64_t lane)
    {
        _acc ^= mix(lane);
        _acc = rotl(_acc, 27) * kPrime1 + kPrime4;
    }

    static std::uint64_t
    readLE64(const unsigned char *p)
    {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
        return v;
    }

    std::uint64_t _acc;
    std::uint64_t _len = 0;
    std::uint64_t _lane = 0;
    unsigned _pending = 0;
};

} // namespace dirsim::util

#endif // DIRSIM_UTIL_HASH_HH
