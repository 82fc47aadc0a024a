/**
 * @file
 * Cache-line-aligned column storage.
 *
 * The prepared columns (trace/prepared.hh) and the stored trace's
 * read windows (trace/store.cc) start on a 64-byte line, matching the
 * DSPTRACE chunk payloads, which the file lays out 64-aligned.
 */

#ifndef DIRSIM_UTIL_ALIGNED_HH
#define DIRSIM_UTIL_ALIGNED_HH

#include <cstddef>
#include <new>
#include <vector>

namespace dirsim::util
{

/** Alignment unit for column storage. */
constexpr std::size_t kCacheLineBytes = 64;

/**
 * Minimal 64-byte-aligning allocator.  std::allocator only guarantees
 * alignof(std::max_align_t) (16 on x86-64).
 */
template <typename T>
struct AlignedAllocator
{
    using value_type = T;
    static constexpr std::align_val_t alignment{kCacheLineBytes};

    AlignedAllocator() = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(
            ::operator new(n * sizeof(T), alignment));
    }

    void
    deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, alignment);
    }

    template <typename U>
    bool
    operator==(const AlignedAllocator<U> &) const noexcept
    {
        return true;
    }
};

/** Cache-line-aligned vector: drop-in column storage. */
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

} // namespace dirsim::util

#endif // DIRSIM_UTIL_ALIGNED_HH
