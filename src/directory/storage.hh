/**
 * @file
 * Directory storage-overhead calculator.
 *
 * Section 2 and Section 6 of the paper discuss how much state each
 * directory organisation keeps per main-memory block; the sec6_storage
 * exhibit prints the overhead as a function of the number of caches.
 * Tang's organisation duplicates every cache's tag store instead of
 * annotating memory blocks; its per-memory-block equivalent depends on
 * the cache-to-memory ratio, which the calculator takes as a
 * parameter.
 */

#ifndef DIRSIM_DIRECTORY_STORAGE_HH
#define DIRSIM_DIRECTORY_STORAGE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace dirsim::directory
{

/** Directory organisations whose storage can be sized. */
enum class Organization
{
    Tang,           //!< Duplicate copies of all cache directories.
    FullMap,        //!< Censier-Feautrier presence bits (DirnNB).
    YenFu,          //!< Full map + per-cache-block single bits.
    TwoBit,         //!< Archibald-Baer (Dir0B).
    LimitedPointer, //!< i pointers + broadcast bit (DiriB).
    LimitedPointerNB, //!< i pointers, no broadcast (DiriNB).
    CoarseVector,   //!< 2*log2(n)-bit trinary code.
};

/** Machine parameters that determine storage overhead. */
struct StorageParams
{
    unsigned nCaches = 4;
    unsigned nPointers = 1;            //!< i for the pointer schemes.
    std::uint64_t memoryBlocks = 1 << 20;
    std::uint64_t cacheBlocksPerCache = 1 << 12;
    unsigned addressBits = 32;
    unsigned blockBytes = 16;
};

/** Name of an organisation, with i substituted for pointer schemes. */
std::string organizationName(Organization org, unsigned nPointers);

/**
 * Directory bits per main-memory block for @p org.
 *
 * For Tang the duplicate-tag storage is divided across memory blocks
 * to make the numbers comparable.
 */
double bitsPerMemoryBlock(Organization org, const StorageParams &params);

/** One row of the storage-overhead table. */
struct StorageRow
{
    std::string scheme;
    std::vector<double> bitsPerBlock; //!< One entry per cache count.
};

/**
 * Build the storage table for a sweep over cache counts.
 *
 * @param cacheCounts Cache counts (columns).
 * @param base Parameters shared by every column (nCaches overridden).
 */
std::vector<StorageRow> storageTable(
    const std::vector<unsigned> &cacheCounts, const StorageParams &base);

} // namespace dirsim::directory

#endif // DIRSIM_DIRECTORY_STORAGE_HH
