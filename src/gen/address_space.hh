/**
 * @file
 * Address-space layout for synthetic workloads.
 *
 * Carves a 64-bit virtual address space into the regions the paper's
 * applications exhibit: per-process code and private data, globally
 * shared read-mostly data (e.g.\ the routing grid of the PERO router),
 * write-first shared slots (producer/consumer style), migratory
 * objects handed between processes, lock words, per-lock protected
 * data, and operating-system regions.  Each lock word lives in its own
 * block by default; an optional false-sharing mode packs two lock
 * words per block to study pathological layouts.
 */

#ifndef DIRSIM_GEN_ADDRESS_SPACE_HH
#define DIRSIM_GEN_ADDRESS_SPACE_HH

#include <algorithm>
#include <cstdint>

#include "gen/rng.hh"

namespace dirsim::gen
{

/** Sizing parameters for the synthetic address space. */
struct AddressSpaceConfig
{
    unsigned nProcesses = 4;
    unsigned nCpus = 4;
    unsigned blockBytes = 16;       //!< 4 words of 4 bytes (paper).
    unsigned wordBytes = 4;

    std::uint32_t codeBlocksPerProc = 4096;
    std::uint32_t privateBlocksPerProc = 2048;
    /** Hot subset of the private region receiving most references. */
    std::uint32_t privateHotBlocks = 256;
    double privateHotFrac = 0.9;

    std::uint32_t sharedReadBlocks = 2048;
    std::uint32_t sharedWriteBlocks = 64;
    std::uint32_t migratoryObjects = 512;
    std::uint32_t blocksPerMigratoryObject = 2;
    std::uint32_t nLocks = 16;
    std::uint32_t protectedBlocksPerLock = 4;

    std::uint32_t osCodeBlocks = 2048;
    std::uint32_t osSharedBlocks = 256;
    std::uint32_t osPerCpuBlocks = 512;

    /** Pack two lock words per block (false-sharing study). */
    bool falseSharingLocks = false;
};

/**
 * Distinct coherence blocks a workload over @p cfg can touch: the sum
 * of every region's block count.  A loose upper bound — cold private
 * blocks may never be referenced, and at scaled machine sizes it
 * overstates the touched blocks ~10×.  Replay no longer uses it:
 * engines are sized exactly from a prepared trace's numBlocks().  It
 * stays because the benchmark runner (perfbench/runner.cc) still
 * fills sim::SimConfig::expectedBlocks from it; removing both belongs
 * to a benchmark change.
 */
std::uint64_t expectedUniqueBlocks(const AddressSpaceConfig &cfg);

/**
 * Computes concrete byte addresses for every region.
 *
 * The samplers are defined inline: generation calls one per emitted
 * data reference, and each is a couple of multiply-adds around an Rng
 * draw — exactly the shape that wants to fold into the process
 * engines' step functions.
 */
class AddressSpace
{
  public:
    explicit AddressSpace(const AddressSpaceConfig &cfg)
        : _cfg(cfg), _privateHot(cfg.privateHotFrac)
    {
    }

    const AddressSpaceConfig &config() const { return _cfg; }

    /** Instruction address for code offset @p block of @p pid. */
    std::uint64_t codeAddr(unsigned pid, std::uint64_t block) const
    {
        return codeBase + pid * perProcStride +
               (block % _cfg.codeBlocksPerProc) * _cfg.blockBytes;
    }
    /** Number of code blocks per process. */
    std::uint64_t codeBlocks() const { return _cfg.codeBlocksPerProc; }

    /** Random private-data address for @p pid (hot/cold biased). */
    std::uint64_t privateAddr(unsigned pid, Rng &rng) const
    {
        const std::uint64_t base = privateBase + pid * perProcStride;
        std::uint64_t block;
        if (_privateHot(rng))
            block = rng.nextBelow(_cfg.privateHotBlocks);
        else
            block = rng.nextBelow(_cfg.privateBlocksPerProc);
        // Random word within the block so word-level addresses vary.
        return base + block * _cfg.blockBytes +
               rng.nextBelow(_cfg.blockBytes / _cfg.wordBytes) *
                   _cfg.wordBytes;
    }
    /** Random shared read-mostly address. */
    std::uint64_t sharedReadAddr(Rng &rng) const
    {
        const std::uint64_t block =
            rng.nextBelow(_cfg.sharedReadBlocks);
        return sharedReadBase + block * _cfg.blockBytes;
    }
    /** Random write-first shared slot address (any producer's). */
    std::uint64_t sharedWriteAddr(Rng &rng) const
    {
        const std::uint64_t block =
            rng.nextBelow(_cfg.sharedWriteBlocks);
        return sharedWriteBase + block * _cfg.blockBytes;
    }
    /** Random slot owned (produced) by @p pid. */
    std::uint64_t sharedWriteOwnAddr(unsigned pid, Rng &rng) const
    {
        // Slots are partitioned round-robin across producers.
        const std::uint32_t per_proc = std::max(
            1u, _cfg.sharedWriteBlocks / _cfg.nProcesses);
        const std::uint64_t k = rng.nextBelow(per_proc);
        const std::uint64_t block =
            (k * _cfg.nProcesses + pid) % _cfg.sharedWriteBlocks;
        return sharedWriteBase + block * _cfg.blockBytes;
    }
    /** Address of block @p blockIdx within migratory object @p obj. */
    std::uint64_t migratoryAddr(std::uint32_t obj,
                                std::uint32_t blockIdx) const
    {
        return migratoryBase +
               (static_cast<std::uint64_t>(obj) *
                    _cfg.blocksPerMigratoryObject +
                blockIdx % _cfg.blocksPerMigratoryObject) *
                   _cfg.blockBytes;
    }
    /** Address of lock word @p lock. */
    std::uint64_t lockAddr(std::uint32_t lock) const
    {
        if (_cfg.falseSharingLocks) {
            // Two lock words share one block.
            return lockBase + (lock / 2) * _cfg.blockBytes +
                   (lock % 2) * _cfg.wordBytes;
        }
        return lockBase +
               static_cast<std::uint64_t>(lock) * _cfg.blockBytes;
    }
    /** Random address within the data protected by @p lock. */
    std::uint64_t protectedAddr(std::uint32_t lock, Rng &rng) const
    {
        const std::uint64_t block =
            static_cast<std::uint64_t>(lock) *
                _cfg.protectedBlocksPerLock +
            rng.nextBelow(_cfg.protectedBlocksPerLock);
        return protectedBase + block * _cfg.blockBytes;
    }

    /** OS instruction address. */
    std::uint64_t osCodeAddr(Rng &rng) const
    {
        return osCodeBase +
               rng.nextBelow(_cfg.osCodeBlocks) * _cfg.blockBytes;
    }
    /** Random OS data address shared between CPUs. */
    std::uint64_t osSharedAddr(Rng &rng) const
    {
        return osSharedBase +
               rng.nextBelow(_cfg.osSharedBlocks) * _cfg.blockBytes;
    }
    /** Random OS data address private to @p cpu. */
    std::uint64_t osPerCpuAddr(unsigned cpu, Rng &rng) const
    {
        return osPerCpuBase + cpu * perCpuStride +
               rng.nextBelow(_cfg.osPerCpuBlocks) * _cfg.blockBytes;
    }

  private:
    // Region bases; generously spaced so regions never collide for any
    // realistic configuration.
    static constexpr std::uint64_t codeBase = 0x0100'0000ULL;
    static constexpr std::uint64_t privateBase = 0x4000'0000ULL;
    static constexpr std::uint64_t sharedReadBase = 0x1'0000'0000ULL;
    static constexpr std::uint64_t sharedWriteBase = 0x1'1000'0000ULL;
    static constexpr std::uint64_t migratoryBase = 0x1'2000'0000ULL;
    static constexpr std::uint64_t lockBase = 0x1'3000'0000ULL;
    static constexpr std::uint64_t protectedBase = 0x1'4000'0000ULL;
    static constexpr std::uint64_t osCodeBase = 0x2'0000'0000ULL;
    static constexpr std::uint64_t osSharedBase = 0x2'1000'0000ULL;
    static constexpr std::uint64_t osPerCpuBase = 0x2'2000'0000ULL;
    static constexpr std::uint64_t perProcStride = 0x0100'0000ULL;
    static constexpr std::uint64_t perCpuStride = 0x0010'0000ULL;

    AddressSpaceConfig _cfg;
    /** Precomputed hot/cold threshold (same draw sequence as the
     *  chance(privateHotFrac) call it replaces; see rng.hh). */
    FixedChance _privateHot;
};

} // namespace dirsim::gen

#endif // DIRSIM_GEN_ADDRESS_SPACE_HH
