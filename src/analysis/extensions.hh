/**
 * @file
 * Extension studies beyond the paper's published exhibits.
 *
 * The paper explicitly flags two limitations of its data — only four
 * CPUs ("We are trying to obtain traces for a much larger number of
 * processes and hope to extend our results shortly") and infinite
 * caches — and checks a third (process- vs processor-based sharing)
 * without printing numbers.  These runners produce all three studies,
 * plus a directory-organisation message study that quantifies the
 * coarse-vector limited broadcast of Section 6, ablations of the
 * paper's fixed design choices, finite directory caches, and bus
 * contention on a timed bus.
 */

#ifndef DIRSIM_ANALYSIS_EXTENSIONS_HH
#define DIRSIM_ANALYSIS_EXTENSIONS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/evaluation.hh"
#include "stats/table.hh"
#include "timing/timed_bus.hh"

namespace dirsim::analysis
{

/** One processor-count point of the scaling study. */
struct ScalingPoint
{
    unsigned nCpus = 0;
    double dir0bCycles = 0.0;   //!< Pipelined cycles/ref.
    double dirnnbCycles = 0.0;  //!< Sequential invalidates.
    double dir1nbCycles = 0.0;
    double dragonCycles = 0.0;
    double fracAtMostOne = 0.0; //!< Figure 1 statistic at this scale.
    double broadcastEventFrac = 0.0; //!< Inval events with fanout > 1.
    double meanFanout = 0.0;    //!< Mean copies invalidated per event.
};

/**
 * Scaling study: run the evaluation at each processor count using the
 * generic scaled workload.
 *
 * @param cpuCounts Processor counts (powers of two, <= 64).
 * @param refsPerCpu References generated per processor.
 */
std::vector<ScalingPoint>
scalingStudy(const std::vector<unsigned> &cpuCounts,
             std::uint64_t refsPerCpu = 150'000);
stats::TextTable renderScaling(const std::vector<ScalingPoint> &points);

/** One cache-size point of the finite-cache study. */
struct FiniteCachePoint
{
    std::uint64_t capacityBytes = 0; //!< 0 encodes infinite.
    double readMissFrac = 0.0;
    double writeMissFrac = 0.0;
    double memoryMissFrac = 0.0;   //!< Misses to uncached blocks.
    double replacementWbFrac = 0.0;
    double dir0bCycles = 0.0;
};

/**
 * Finite-cache study: Dir0B with set-associative caches of each
 * capacity, against the infinite-cache baseline (capacity 0).
 */
std::vector<FiniteCachePoint>
finiteCacheStudy(const std::vector<std::uint64_t> &capacities,
                 bool fullSize = false);
stats::TextTable
renderFiniteCache(const std::vector<FiniteCachePoint> &points);

/** Process- vs processor-based sharing (the Section 4.4 check). */
struct SharingDomainComparison
{
    Evaluation byProcess;
    Evaluation byProcessor;
};
SharingDomainComparison sharingDomainStudy(double migrationRate = 0.02,
                                           bool fullSize = false);
stats::TextTable
renderSharingDomain(const SharingDomainComparison &cmp);

/** One machine-size point of the network study. */
struct NetworkPoint
{
    unsigned nCpus = 0;
    /** Two-bit directory: every invalidation is an emulated
     *  broadcast of n-1 directed messages. */
    double dir0bBroadcast = 0.0;
    /** Full-map directory: directed invalidations only. */
    double dirnnbDirected = 0.0;
    double dir1b = 0.0; //!< One pointer + broadcast fallback.
    double dir4b = 0.0; //!< Four pointers + broadcast fallback.
    /** Snoopy WTI: every write must be visible to all caches. */
    double wtiBroadcast = 0.0;
    /** Directory-assisted update protocol: directed updates to the
     *  actual sharers. */
    double dragonDirected = 0.0;
};

/**
 * Network study: the paper's scaling argument made quantitative.
 * Prices the protocols on a point-to-point network of n nodes
 * (bus/network.hh) where a broadcast costs n-1 directed messages,
 * using the scaled workload at each size.  Broadcast-reliant schemes
 * (two-bit directory, snoopy write-through) should degrade with n
 * while directed directory schemes stay nearly flat.
 */
std::vector<NetworkPoint>
networkStudy(const std::vector<unsigned> &cpuCounts,
             std::uint64_t refsPerCpu = 120'000);
stats::TextTable renderNetwork(const std::vector<NetworkPoint> &points);

/** One point of the distributed-directory locality study. */
struct HomeLocalityPoint
{
    unsigned nCpus = 0;
    /** Fraction of home-node transactions that are local under
     *  interleaved (block mod n) home assignment. */
    double moduloLocalFrac = 0.0;
    /** Same under first-touch (NUMA-style) home assignment. */
    double firstTouchLocalFrac = 0.0;
    /** Remote transactions per reference under each policy. */
    double moduloRemotePerRef = 0.0;
    double firstTouchRemotePerRef = 0.0;
};

/**
 * Distributed-directory locality study (Sections 2 and 7: "memory is
 * distributed together with individual processors ... the bandwidth
 * to both the memory and the directory [scales] with the number of
 * processors").  Measures what fraction of home-node traffic a
 * distributed directory keeps local under interleaved versus
 * first-touch block placement.
 */
std::vector<HomeLocalityPoint>
homeLocalityStudy(const std::vector<unsigned> &cpuCounts,
                  std::uint64_t refsPerCpu = 120'000);
stats::TextTable
renderHomeLocality(const std::vector<HomeLocalityPoint> &points);

/** Message statistics of one directory organisation. */
struct DirectoryMessageStats
{
    std::string organization;
    double directedPerInvalEvent = 0.0;
    double broadcastFrac = 0.0; //!< Fraction of events broadcast.
    double overshootPerEvent = 0.0; //!< Messages to non-holders.
};

/**
 * Shadow each directory organisation through the standard workloads
 * and report what it would have sent (Section 6's limited-broadcast
 * discussion made quantitative).
 */
std::vector<DirectoryMessageStats>
directoryMessageStudy(bool fullSize = false);
stats::TextTable
renderDirectoryMessages(const std::vector<DirectoryMessageStats> &rows);

/** One block-size point of ablation F1 (pops, pipelined bus). */
struct BlockSizePoint
{
    unsigned blockBytes = 0;
    double readMissFrac = 0.0;
    double writeHitCleanFrac = 0.0;
    double dir0bCycles = 0.0;
    double dragonCycles = 0.0;
};

/**
 * Ablation F1: the coherence block size, which the paper fixes at 16
 * bytes.  The workload's data layout stays fixed (16-byte objects),
 * so larger blocks group neighbouring objects (false sharing) and
 * prefetch them (fewer first misses); each miss transfers
 * blockBytes/4 words.  Each ablation (F1-F3) runs 300,000 pops
 * references.
 */
std::vector<BlockSizePoint>
blockSizeStudy(const std::vector<unsigned> &blockBytes);
stats::TextTable
renderBlockSize(const std::vector<BlockSizePoint> &points);

/** Pipelined cycles/ref at one lock layout (ablation F2). */
struct LockLayoutPoint
{
    bool falseSharing = false; //!< Two lock words per block.
    double dir1nbCycles = 0.0;
    double dir0bCycles = 0.0;
    double dragonCycles = 0.0;
};

/**
 * Ablation F2: each lock word in its own block, then two lock words
 * falsely sharing one block (pops with two equally hot locks, so the
 * pair is contended concurrently).
 */
std::vector<LockLayoutPoint> lockLayoutStudy();
stats::TextTable
renderLockLayout(const std::vector<LockLayoutPoint> &points);

/** Pipelined cycles/ref at one migration rate (ablation F3). */
struct MigrationPoint
{
    double rate = 0.0; //!< Migration probability per quantum.
    double dir0bCycles = 0.0;
    double dragonCycles = 0.0;
};

/**
 * Ablation F3: how fast sharing induced purely by process migration
 * pollutes processor-domain numbers (pops, 20,000-ref quanta).
 */
std::vector<MigrationPoint>
migrationStudy(const std::vector<double> &rates);
stats::TextTable
renderMigration(const std::vector<MigrationPoint> &points);

/** One (workload, directory-cache size) point. */
struct DirCachePoint
{
    std::string workload;
    std::uint64_t entries = 0; //!< 0 = unbounded.
    coherence::EngineResults inval;
    /** DiriNB for i = 1, 2, 4 behind the same cache size. */
    std::vector<coherence::EngineResults> limited;
    /** Replacements per set of the inval engine's cache (empty when
     *  unbounded); a skewed spread flags a set index that aliases the
     *  workload's footprint. */
    std::vector<std::uint64_t> setReplacements;
};

/**
 * Finite sparse directory caches.  The paper's directories keep an
 * entry per memory block; a real machine caches entries in a finite
 * set-associative store, and replacing one force-invalidates every
 * cached copy of the victim (a dirty owner writes back first).  Runs
 * every workload at every size in @p entries (0 = unbounded, the
 * paper's model; finite sizes are 4-way) through the inval engine
 * and DiriNB (i = 1, 2, 4).
 *
 * @return Points workload-major, sizes in the given order.
 */
std::vector<DirCachePoint>
dirCacheStudy(const std::vector<gen::WorkloadConfig> &workloads,
              const std::vector<std::uint64_t> &entries);
/**
 * Pipelined cycles/ref of DiriB (i = 1, 2, 4), DirnNB and DiriNB
 * (i = 1, 2, 4) per point.  Each workload's group closes with Dir0B,
 * priced from its last point: zero directory storage, the end point a
 * directoryless (DLS-style) design reaches by construction.
 */
stats::TextTable
renderDirCache(const std::vector<DirCachePoint> &points);
/** Hit rate, evictions and per-set replacement spread of the inval
 *  engine's directory cache. */
stats::TextTable
renderDirCacheLocality(const std::vector<DirCachePoint> &points);

/** What the static tables hide: the same streams on a timed bus. */
struct ContentionStudy
{
    std::vector<unsigned> cpuCounts;
    /** Dir0B, Dir1NB, Dragon and WTI under FCFS, scheme-major:
     *  scaling[s * cpuCounts.size() + c], each named after its
     *  scheme. */
    std::vector<timing::TimedRun> scaling;
    /** WTI under FCFS, round-robin and fixed priority. */
    std::vector<timing::TimedRun> arbitration;
};

/**
 * Replay the scaled workload (@p refsPerCpu per CPU) through the
 * timed pipelined bus at each CPU count, then compare the three
 * arbitration disciplines at a saturated bus of @p arbitrationCpus.
 */
ContentionStudy contentionStudy(const std::vector<unsigned> &cpuCounts,
                                unsigned arbitrationCpus,
                                std::uint64_t refsPerCpu);
stats::TextTable renderUtilization(const ContentionStudy &study);
stats::TextTable renderQueueDelay(const ContentionStudy &study);
stats::TextTable renderArbitration(const ContentionStudy &study);

} // namespace dirsim::analysis

#endif // DIRSIM_ANALYSIS_EXTENSIONS_HH
