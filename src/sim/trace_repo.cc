#include "sim/trace_repo.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "gen/direct_prepare.hh"
#include "util/hash.hh"

namespace dirsim::sim
{

namespace
{

/** Distinct hash seeds for the cache filename and the in-file
 *  fingerprint: a 64-bit filename collision between two keys is then
 *  caught by the fingerprint check (the pair collides with
 *  probability ~2^-128, not ~2^-64). */
constexpr std::uint64_t kNameSeed = 0x66696c656e616d65ULL;
constexpr std::uint64_t kPrintSeed = 0x66696e676572ULL;

std::uint64_t
hashKey(const std::string &key, std::uint64_t seed)
{
    return util::StreamHash64::of(key.data(), key.size(), seed);
}

/** Positional serialiser for cacheKey(): fixed-width fields, no
 *  separators needed except around the variable-length name. */
class KeyWriter
{
  public:
    void
    str(const std::string &s)
    {
        u64(s.size());
        _key += s;
    }

    void
    u64(std::uint64_t v)
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(v));
        _key += buf;
    }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    std::string take() { return std::move(_key); }

  private:
    std::string _key;
};

} // namespace

// Tripwire: cacheKey() serialises every field positionally.  If one
// of these structs grows a field, the key must learn it — otherwise
// two differing configs could silently share a cache entry.  Update
// cacheKey() first, then these sizes.
static_assert(sizeof(gen::AddressSpaceConfig) == 80,
              "AddressSpaceConfig changed: update cacheKey()");
static_assert(sizeof(gen::BehaviorConfig) == 160,
              "BehaviorConfig changed: update cacheKey()");
static_assert(sizeof(trace::PrepareOptions) == 12,
              "PrepareOptions changed: update cacheKey()");

std::string
TraceRepository::cacheKey(const gen::WorkloadConfig &cfg,
                          const trace::PrepareOptions &opts)
{
    KeyWriter key;
    key.str(cfg.name);
    key.u64(cfg.totalRefs);
    key.u64(cfg.seed);
    key.u64(cfg.quantumRefs);
    key.f64(cfg.migrationRate);

    const gen::AddressSpaceConfig &sp = cfg.space;
    key.u64(sp.nProcesses);
    key.u64(sp.nCpus);
    key.u64(sp.blockBytes);
    key.u64(sp.wordBytes);
    key.u64(sp.codeBlocksPerProc);
    key.u64(sp.privateBlocksPerProc);
    key.u64(sp.privateHotBlocks);
    key.f64(sp.privateHotFrac);
    key.u64(sp.sharedReadBlocks);
    key.u64(sp.sharedWriteBlocks);
    key.u64(sp.migratoryObjects);
    key.u64(sp.blocksPerMigratoryObject);
    key.u64(sp.nLocks);
    key.u64(sp.protectedBlocksPerLock);
    key.u64(sp.osCodeBlocks);
    key.u64(sp.osSharedBlocks);
    key.u64(sp.osPerCpuBlocks);
    key.u64(sp.falseSharingLocks);

    const gen::BehaviorConfig &bh = cfg.behavior;
    key.f64(bh.pInstr);
    key.f64(bh.pSystem);
    key.f64(bh.wPrivate);
    key.f64(bh.wSharedRead);
    key.f64(bh.wSharedWrite);
    key.f64(bh.wMigratory);
    key.f64(bh.wLockAttempt);
    key.f64(bh.pPrivateRead);
    key.f64(bh.pSharedReadWrite);
    key.f64(bh.pSharedSlotWrite);
    key.u64(bh.migratoryWriteBurst);
    key.f64(bh.pSpinInstr);
    key.u64(bh.critMin);
    key.u64(bh.critMax);
    key.f64(bh.pCritProtected);
    key.f64(bh.pCritWrite);
    key.f64(bh.hotLockFrac);
    key.u64(bh.nHotLocks);
    key.f64(bh.pOsInstr);
    key.f64(bh.pOsShared);
    key.f64(bh.pOsWrite);

    key.u64(opts.blockBytes);
    key.u64(static_cast<std::uint64_t>(opts.domain));
    key.u64(opts.dropLockTests);
    key.u64(opts.timedStreams);
    return key.take();
}

std::string
RepoStats::summary() const
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "repo: %llu hits, %llu misses, %llu builds, %llu disk hits, "
        "%llu disk writes, %llu evictions, %llu disk evictions",
        static_cast<unsigned long long>(hits),
        static_cast<unsigned long long>(misses),
        static_cast<unsigned long long>(builds),
        static_cast<unsigned long long>(diskHits),
        static_cast<unsigned long long>(diskWrites),
        static_cast<unsigned long long>(evictions),
        static_cast<unsigned long long>(diskEvictions));
    return buf;
}

TraceRepository::TraceRepository(unsigned, std::size_t maxBytes)
    : _maxBytes(maxBytes)
{
}

void
TraceRepository::setDiskCache(const DiskCacheConfig &cfg)
{
    if (!cfg.dir.empty())
        std::filesystem::create_directories(cfg.dir);
    std::lock_guard<std::mutex> lock(_mutex);
    // A stored trace belongs to its directory and chunking; handed-
    // out pointers stay valid, but the next getStored() opens or
    // spills under the new tier.
    if (cfg.dir != _disk.dir || cfg.chunkRefs != _disk.chunkRefs)
        _stored.clear();
    _disk = cfg;
}

bool
TraceRepository::diskCacheEnabled() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return !_disk.dir.empty();
}

RepoStats
TraceRepository::stats() const
{
    RepoStats s;
    s.hits = _hits.load(std::memory_order_relaxed);
    s.misses = _misses.load(std::memory_order_relaxed);
    s.builds = _buildCount.load(std::memory_order_relaxed);
    s.diskHits = _diskHits.load(std::memory_order_relaxed);
    s.diskWrites = _diskWrites.load(std::memory_order_relaxed);
    s.evictions = _evictions.load(std::memory_order_relaxed);
    s.diskEvictions = _diskEvictions.load(std::memory_order_relaxed);
    return s;
}

std::string
TraceRepository::diskPathFor(const std::string &key) const
{
    char name[64];
    std::snprintf(name, sizeof(name), "tr-%016llx-v%u.dspt",
                  static_cast<unsigned long long>(
                      hashKey(key, kNameSeed)),
                  trace::kStoreFormatVersion);
    std::string dir;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        dir = _disk.dir;
    }
    return (std::filesystem::path(dir) / name).string();
}

TraceRepository::StoredPtr
TraceRepository::openDiskEntry(const std::string &key,
                               const trace::PrepareOptions &opts)
{
    const std::string path = diskPathFor(key);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec))
        return nullptr;
    StoredPtr stored;
    try {
        stored = trace::StoredTrace::open(path);
    } catch (const std::exception &) {
        // Torn write from a crashed process, or an old format: drop
        // the file and rebuild.
        ::unlink(path.c_str());
        return nullptr;
    }
    // A filename collision between distinct keys, or a stale file
    // whose options drifted: a detected miss, not an error.  Leave
    // the file alone — the other key still owns it.
    if (stored->configFingerprint() != hashKey(key, kPrintSeed) ||
        !(stored->options() == opts))
        return nullptr;
    // Touch: the disk tier's LRU clock must advance on hits even on
    // relatime/noatime mounts.
    ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
    return stored;
}

void
TraceRepository::spillToDisk(const std::string &key,
                             const trace::PreparedTrace &prepared)
{
    const std::string path = diskPathFor(key);
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    trace::StoreWriteOptions store;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        store.chunkRefs = _disk.chunkRefs;
    }
    store.configFingerprint = hashKey(key, kPrintSeed);
    try {
        trace::writeStored(prepared, tmp, store);
        if (::rename(tmp.c_str(), path.c_str()) != 0) {
            ::unlink(tmp.c_str());
            return;
        }
    } catch (const std::exception &) {
        // A full or read-only cache directory degrades the disk tier
        // to a no-op; the in-memory result is unaffected.
        return;
    }
    _diskWrites.fetch_add(1, std::memory_order_relaxed);
    evictDisk(path);
}

void
TraceRepository::evictDisk(const std::string &spare)
{
    DiskCacheConfig disk;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        disk = _disk;
    }
    if (disk.dir.empty())
        return;

    struct File
    {
        std::string path;
        std::uint64_t bytes;
        // atime with nanoseconds: the LRU ordering key.
        std::pair<std::int64_t, std::int64_t> atime;
    };
    std::vector<File> files;
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &de :
         std::filesystem::directory_iterator(disk.dir, ec)) {
        const std::string name = de.path().filename().string();
        if (name.rfind("tr-", 0) != 0 ||
            name.find(".dspt") == std::string::npos ||
            name.find(".tmp.") != std::string::npos)
            continue;
        struct stat st{};
        if (::stat(de.path().c_str(), &st) != 0)
            continue;
        files.push_back(File{de.path().string(),
                             std::uint64_t(st.st_size),
                             {st.st_atim.tv_sec, st.st_atim.tv_nsec}});
        total += std::uint64_t(st.st_size);
    }
    if (total <= disk.budgetBytes || files.size() <= 1)
        return;
    std::sort(files.begin(), files.end(),
              [](const File &a, const File &b) {
                  return a.atime < b.atime;
              });
    // Keep at least one file: the one the caller just wrote
    // (@p spare) when there is one, the most recently used otherwise.
    // The spare is never a victim — freshly created timestamps can be
    // *coarser* than a recently refreshed atime on multigrain-
    // timestamp kernels, so the newest file is not guaranteed to sort
    // newest.
    const bool spareListed =
        std::any_of(files.begin(), files.end(), [&spare](const File &f) {
            return f.path == spare;
        });
    for (std::size_t i = 0;
         total > disk.budgetBytes && i < files.size(); ++i) {
        if (files[i].path == spare)
            continue;
        if (!spareListed && i + 1 == files.size())
            break;
        if (::unlink(files[i].path.c_str()) == 0) {
            total -= files[i].bytes;
            _diskEvictions.fetch_add(1, std::memory_order_relaxed);
        }
    }
}

TraceRepository::Ptr
TraceRepository::build(const gen::WorkloadConfig &cfg,
                       const trace::PrepareOptions &opts) const
{
    // One pass on the calling thread, timed streams or not.
    return std::make_shared<const trace::PreparedTrace>(
        gen::generatePrepared(cfg, opts));
}

std::shared_ptr<const trace::PreparedTrace>
TraceRepository::get(const gen::WorkloadConfig &cfg,
                     const trace::PrepareOptions &opts)
{
    const std::string key = cacheKey(cfg, opts);

    std::shared_future<Ptr> future;
    std::shared_ptr<std::promise<Ptr>> toBuild;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        auto it = _entries.find(key);
        if (it == _entries.end()) {
            Entry entry;
            entry.promise = std::make_shared<std::promise<Ptr>>();
            entry.future = entry.promise->get_future().share();
            toBuild = entry.promise;
            it = _entries.emplace(key, std::move(entry)).first;
            _misses.fetch_add(1, std::memory_order_relaxed);
        } else {
            _hits.fetch_add(1, std::memory_order_relaxed);
        }
        it->second.lastUse = ++_tick;
        future = it->second.future;
    }

    if (toBuild) {
        try {
            Ptr ptr;
            // Second tier first: a warm cache file is a sequential
            // digest-checked read-back, not a re-generate + re-decode.
            if (diskCacheEnabled()) {
                if (StoredPtr stored = openDiskEntry(key, opts)) {
                    try {
                        ptr = std::make_shared<
                            const trace::PreparedTrace>(
                            stored->loadAll());
                        _diskHits.fetch_add(1,
                                            std::memory_order_relaxed);
                    } catch (const std::exception &) {
                        // Chunk payload corruption surfaces here (the
                        // open only validated header + table): drop
                        // the file and rebuild from scratch.
                        ::unlink(stored->path().c_str());
                        ptr = nullptr;
                    }
                }
            }
            if (!ptr) {
                _buildCount.fetch_add(1, std::memory_order_relaxed);
                ptr = build(cfg, opts);
                if (diskCacheEnabled())
                    spillToDisk(key, *ptr);
            }
            {
                std::lock_guard<std::mutex> lock(_mutex);
                auto it = _entries.find(key);
                if (it != _entries.end()) {
                    it->second.bytes = ptr->byteSize();
                    it->second.ready = true;
                }
            }
            toBuild->set_value(std::move(ptr));
            std::lock_guard<std::mutex> lock(_mutex);
            evictLocked();
        } catch (...) {
            // Failures propagate to every waiter but are not cached:
            // a later get() may retry.
            toBuild->set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(_mutex);
            _entries.erase(key);
        }
    }
    return future.get();
}

std::shared_ptr<const trace::StoredTrace>
TraceRepository::getStored(const gen::WorkloadConfig &cfg,
                           const trace::PrepareOptions &opts)
{
    if (!diskCacheEnabled())
        throw std::logic_error(
            "TraceRepository: getStored() requires a configured disk "
            "cache (setDiskCache)");
    const std::string key = cacheKey(cfg, opts);

    std::shared_future<StoredPtr> future;
    std::shared_ptr<std::promise<StoredPtr>> toBuild;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        auto it = _stored.find(key);
        if (it == _stored.end()) {
            StoredEntry entry;
            entry.promise =
                std::make_shared<std::promise<StoredPtr>>();
            entry.future = entry.promise->get_future().share();
            toBuild = entry.promise;
            it = _stored.emplace(key, std::move(entry)).first;
            _misses.fetch_add(1, std::memory_order_relaxed);
        } else {
            _hits.fetch_add(1, std::memory_order_relaxed);
        }
        future = it->second.future;
    }

    if (toBuild) {
        try {
            StoredPtr stored = openDiskEntry(key, opts);
            if (stored) {
                _diskHits.fetch_add(1, std::memory_order_relaxed);
            } else {
                // Full miss: generate → decode → spill as ONE
                // streaming pass.  The workload is never materialised
                // in any form — this is how a trace larger than
                // memory gets built at all.
                _buildCount.fetch_add(1, std::memory_order_relaxed);
                const std::string path = diskPathFor(key);
                const std::string tmp =
                    path + ".tmp." + std::to_string(::getpid());
                trace::StoreWriteOptions store;
                {
                    std::lock_guard<std::mutex> lock(_mutex);
                    store.chunkRefs = _disk.chunkRefs;
                }
                store.configFingerprint = hashKey(key, kPrintSeed);
                gen::spillPrepared(cfg, opts, tmp, store);
                if (::rename(tmp.c_str(), path.c_str()) != 0) {
                    ::unlink(tmp.c_str());
                    throw std::runtime_error(
                        "TraceRepository: cannot rename " + tmp +
                        " into the cache");
                }
                _diskWrites.fetch_add(1, std::memory_order_relaxed);
                evictDisk(path);
                stored = trace::StoredTrace::open(path);
            }
            toBuild->set_value(std::move(stored));
        } catch (...) {
            toBuild->set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(_mutex);
            _stored.erase(key);
        }
    }
    return future.get();
}

void
TraceRepository::evictLocked()
{
    std::size_t readyBytes = 0;
    std::size_t readyCount = 0;
    for (const auto &[key, entry] : _entries) {
        if (entry.ready) {
            readyBytes += entry.bytes;
            ++readyCount;
        }
    }
    // Keep at least the most recently used entry even when a single
    // trace exceeds the budget — evicting it would just rebuild it.
    while (readyBytes > _maxBytes && readyCount > 1) {
        auto victim = _entries.end();
        for (auto it = _entries.begin(); it != _entries.end(); ++it) {
            if (!it->second.ready)
                continue;
            if (victim == _entries.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        readyBytes -= victim->second.bytes;
        --readyCount;
        _entries.erase(victim);
        _evictions.fetch_add(1, std::memory_order_relaxed);
    }
}

void
TraceRepository::clear()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _entries.clear();
    _stored.clear();
}

std::size_t
TraceRepository::size() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _entries.size();
}

TraceRepository &
TraceRepository::global()
{
    static TraceRepository repo;
    return repo;
}

} // namespace dirsim::sim
