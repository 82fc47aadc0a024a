/**
 * @file
 * Memoizing repository of prepared traces.
 *
 * Every sweep point over the same workload replays the same reference
 * stream (Section 4.1 of the paper: one trace feeds every protocol),
 * so the expensive part — synthesizing the workload and decoding it
 * into the SoA prepared format — should happen once per workload, not
 * once per sweep point.  The repository keys a cache on the complete
 * (WorkloadConfig, PrepareOptions) value: a 100-point fig2/fig3 sweep
 * then generates and decodes 3 workloads instead of 100.
 *
 * Thread safety: concurrent get() calls for the same key build the
 * trace exactly once — the first caller builds, the rest block on a
 * shared future.  Distinct keys build independently.  The returned
 * PreparedTrace is immutable and shared; it stays alive as long as
 * any caller holds the pointer, even if the repository evicts it.
 *
 * A build is one pass on the calling thread (gen::generatePrepared):
 * generation is inherently serial (one RNG stream and shared lock
 * state define the interleaving), and lowering each generated batch
 * into the columns costs less than generating it, so there is
 * nothing left worth a second thread.  Concurrent get()s of distinct
 * keys still build in parallel.
 *
 * Disk tier: setDiskCache() adds a persistent second tier under a
 * cache directory, so the build survives the *process*.  Cache files
 * are stored-trace files (trace/store.hh) named by a hash of the
 * positional cacheKey, with the full key's fingerprint recorded in
 * the header (a filename collision is detected, not served).  Writes
 * go to a temp file and rename into place — crash-safe and safe
 * against concurrent processes filling the same directory.  The tier
 * is LRU by atime under a byte budget (hits touch the file, so LRU
 * survives relatime/noatime mounts); getStored() serves the file as
 * a windowed out-of-core trace without ever materialising it, and on
 * a full miss spills straight from the workload generator in O(chunk)
 * memory.
 */

#ifndef DIRSIM_SIM_TRACE_REPO_HH
#define DIRSIM_SIM_TRACE_REPO_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "gen/workload.hh"
#include "trace/prepared.hh"
#include "trace/store.hh"

namespace dirsim::sim
{

/** Persistent disk tier configuration (off when dir is empty). */
struct DiskCacheConfig
{
    /** Cache directory; created on setDiskCache() if absent. */
    std::string dir;
    /** Byte budget for the directory; least-recently-*used* files
     *  (by atime, refreshed on every hit) are deleted past it.  The
     *  most recent file survives even when it alone exceeds the
     *  budget — deleting it would just respill it. */
    std::uint64_t budgetBytes = 4ull * 1024 * 1024 * 1024;
    /** References per chunk when spilling.  A replay-time parameter
     *  only (bounds streaming RSS); deliberately NOT part of the
     *  cache key — a warm file replays identically whatever its
     *  chunking. */
    std::uint64_t chunkRefs = trace::kDefaultChunkRefs;
};

/** Observable repository behaviour (--repo-stats). */
struct RepoStats
{
    std::uint64_t hits = 0;       //!< In-memory tier hits.
    std::uint64_t misses = 0;     //!< In-memory tier misses.
    std::uint64_t builds = 0;     //!< Full generate + prepare runs.
    std::uint64_t diskHits = 0;   //!< Misses served from a warm file.
    std::uint64_t diskWrites = 0; //!< Store files spilled.
    std::uint64_t evictions = 0;  //!< In-memory LRU evictions.
    std::uint64_t diskEvictions = 0; //!< Disk LRU file deletions.

    /** One-line human-readable rendering. */
    std::string summary() const;
};

/** Thread-safe build-once cache of prepared workload traces. */
class TraceRepository
{
  public:
    /**
     * @param jobs Ignored: builds run on the calling thread.  Kept so
     *        existing callers (the benchmark runner passes 1) compile.
     * @param maxBytes Soft budget for cached column bytes; least-
     *        recently-used entries are dropped past it (handed-out
     *        pointers keep their data alive regardless).
     */
    explicit TraceRepository(unsigned jobs = 0,
                             std::size_t maxBytes =
                                 512ull * 1024 * 1024);

    /**
     * The prepared trace for @p cfg decoded with @p opts, built on
     * first request and shared thereafter.  Build failures propagate
     * to every concurrent waiter and are not cached.
     */
    std::shared_ptr<const trace::PreparedTrace>
    get(const gen::WorkloadConfig &cfg,
        const trace::PrepareOptions &opts = {});

    /**
     * The same workload as an out-of-core StoredTrace: replayable
     * via spanCursor()/cpuCursor() with O(chunk) resident memory and
     * never fully materialised.  A warm cache file is served as-is;
     * a miss streams generate → decode → spill in one pass.  Requires
     * a configured disk tier (std::logic_error otherwise).  Like
     * get(), concurrent calls for one key do the work exactly once.
     */
    std::shared_ptr<const trace::StoredTrace>
    getStored(const gen::WorkloadConfig &cfg,
              const trace::PrepareOptions &opts = {});

    /**
     * Enable (or reconfigure) the persistent disk tier.  Creates
     * @p cfg.dir if needed; an empty dir turns the tier off.  A new
     * directory or chunk size forgets the stored traces getStored()
     * has handed out, so later calls serve the new tier.
     */
    void setDiskCache(const DiskCacheConfig &cfg);

    /** Disk tier currently configured. */
    bool diskCacheEnabled() const;

    /** Build attempts: times a get() missed the cache and actually
     *  generated + decoded, failed tries included (test hook). */
    std::uint64_t buildCount() const
    {
        return _buildCount.load(std::memory_order_relaxed);
    }

    /** Snapshot of the hit/miss/eviction counters. */
    RepoStats stats() const;

    /** Drop every cached entry (outstanding pointers stay valid;
     *  disk-tier files are NOT touched — they are the point). */
    void clear();

    /** Entries currently cached. */
    std::size_t size() const;

    /** The process-wide repository the sweep drivers share. */
    static TraceRepository &global();

    /**
     * Canonical cache key: every field of the workload and prepare
     * configurations, serialised positionally (doubles bit-cast).
     * Exposed for tests asserting key completeness.
     */
    static std::string cacheKey(const gen::WorkloadConfig &cfg,
                                const trace::PrepareOptions &opts);

  private:
    using Ptr = std::shared_ptr<const trace::PreparedTrace>;
    using StoredPtr = std::shared_ptr<const trace::StoredTrace>;

    struct Entry
    {
        std::shared_ptr<std::promise<Ptr>> promise;
        std::shared_future<Ptr> future;
        std::uint64_t lastUse = 0;
        std::size_t bytes = 0;
        bool ready = false;
    };

    struct StoredEntry
    {
        std::shared_ptr<std::promise<StoredPtr>> promise;
        std::shared_future<StoredPtr> future;
    };

    Ptr build(const gen::WorkloadConfig &cfg,
              const trace::PrepareOptions &opts) const;
    /** Drop LRU ready entries past the byte budget (mutex held). */
    void evictLocked();

    /** Cache-file path for @p key (disk tier must be on). */
    std::string diskPathFor(const std::string &key) const;
    /** Open @p key's cache file if present and valid; null on miss.
     *  Touches the file's timestamps (the disk tier's LRU clock). */
    StoredPtr openDiskEntry(const std::string &key,
                            const trace::PrepareOptions &opts);
    /** Spill @p trace as @p key's cache file (temp + rename). */
    void spillToDisk(const std::string &key,
                     const trace::PreparedTrace &trace);
    /** Delete LRU files past the disk budget; @p spare (the file the
        caller just wrote, if any) is never a victim. */
    void evictDisk(const std::string &spare = std::string());

    std::size_t _maxBytes;
    mutable std::mutex _mutex;
    std::map<std::string, Entry> _entries;
    std::map<std::string, StoredEntry> _stored;
    DiskCacheConfig _disk;
    std::uint64_t _tick = 0;
    std::atomic<std::uint64_t> _buildCount{0};
    std::atomic<std::uint64_t> _hits{0};
    std::atomic<std::uint64_t> _misses{0};
    std::atomic<std::uint64_t> _diskHits{0};
    std::atomic<std::uint64_t> _diskWrites{0};
    std::atomic<std::uint64_t> _evictions{0};
    std::atomic<std::uint64_t> _diskEvictions{0};
};

} // namespace dirsim::sim

#endif // DIRSIM_SIM_TRACE_REPO_HH
