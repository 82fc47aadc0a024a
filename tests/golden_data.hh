/**
 * @file
 * Shared golden-digest fixture: the scheme axis, the canonical
 * EngineResults digest, and the seed-recorded digest table.
 *
 * golden_test.cc (raw/prepared/streamed equivalence) and
 * fused_test.cc (fused multi-scheme replay) both pin their results to
 * the same 14 schemes × 3 workloads table, so the fixture lives here
 * once, with the check that runs the whole table through
 * analysis::runMatrix.  Regenerate the table after an intentional
 * model change with:
 *
 *     DIRSIM_GOLDEN_PRINT=1 ./tests/golden_test
 *
 * and paste the printed rows over kGolden below.
 */

#ifndef DIRSIM_TESTS_GOLDEN_DATA_HH
#define DIRSIM_TESTS_GOLDEN_DATA_HH

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/evaluation.hh"
#include "coherence/berkeley_engine.hh"
#include "coherence/dragon_engine.hh"
#include "coherence/engine.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "coherence/wti_engine.hh"
#include "directory/coarse_vector.hh"
#include "directory/dir_cache.hh"
#include "directory/full_map.hh"
#include "directory/limited_pointer.hh"
#include "directory/two_bit.hh"
#include "gen/workloads.hh"
#include "mem/set_assoc.hh"

namespace dirsim::golden
{

/** FNV-1a over the canonical serialisation below. */
class Digest
{
  public:
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            _h ^= (v >> (8 * i)) & 0xff;
            _h *= 0x100000001b3ULL;
        }
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        for (char c : s)
            u64(static_cast<unsigned char>(c));
    }

    void
    histogram(const stats::Histogram &h)
    {
        u64(h.totalSamples());
        u64(h.totalWeight());
        u64(h.maxValue());
        for (std::size_t v = 0; v <= h.maxValue(); ++v)
            u64(h.count(v));
    }

    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ULL;
};

/** Canonical digest of everything EngineResults holds. */
inline std::uint64_t
digest(const coherence::EngineResults &r)
{
    Digest d;
    d.str(r.name);
    d.u64(r.events.totalRefs());
    for (std::size_t e = 0; e < coherence::numEvents; ++e)
        d.u64(r.events.count(static_cast<coherence::Event>(e)));
    d.histogram(r.whClnFanout);
    d.histogram(r.wmClnFanout);
    d.u64(r.holderGrowth12);
    d.u64(r.displacementInvals);
    d.u64(r.dirDirectedInvals);
    d.u64(r.dirBroadcasts);
    d.u64(r.dirOvershoot);
    d.u64(r.homeLocalTransactions);
    d.u64(r.homeRemoteTransactions);
    d.u64(r.replacementEvictions);
    d.u64(r.replacementWriteBacks);
    return d.value();
}

/**
 * The scheme axis: every engine variant the repo can run.  Makers
 * take an optional directory-cache configuration (null = the paper's
 * entry-per-block directory); engines without a directory to cache —
 * the snoopy WTI/Dragon/Berkeley models — ignore it.
 */
struct Scheme
{
    const char *label;
    std::unique_ptr<coherence::CoherenceEngine> (*make)(
        unsigned units, const directory::DirCacheConfig *dc);
    /** Does the engine model a directory this cache sits in front of? */
    bool dirCacheCapable;
    /** DiriNB pointer count (analysis::EngineSpec::limitedPointers). */
    unsigned limitedPointers = 0;
};

inline directory::DirCacheConfig
dirCacheOrNone(const directory::DirCacheConfig *dc)
{
    return dc ? *dc : directory::DirCacheConfig{};
}

inline std::unique_ptr<coherence::CoherenceEngine>
makeInval(unsigned units, const directory::DirCacheConfig *dc)
{
    coherence::InvalEngineConfig cfg;
    cfg.nUnits = units;
    cfg.dirCache = dirCacheOrNone(dc);
    return std::make_unique<coherence::InvalEngine>(cfg);
}

template <typename Factory>
std::unique_ptr<coherence::CoherenceEngine>
makeInvalWithDir(unsigned units, const directory::DirCacheConfig *dc)
{
    static const Factory factory;
    coherence::InvalEngineConfig cfg;
    cfg.nUnits = units;
    cfg.dirFactory = &factory;
    cfg.dirCache = dirCacheOrNone(dc);
    return std::make_unique<coherence::InvalEngine>(cfg);
}

inline std::unique_ptr<coherence::CoherenceEngine>
makeInvalDir2B(unsigned units, const directory::DirCacheConfig *dc)
{
    static const directory::LimitedPointerFactory factory(2, true);
    coherence::InvalEngineConfig cfg;
    cfg.nUnits = units;
    cfg.dirFactory = &factory;
    cfg.dirCache = dirCacheOrNone(dc);
    return std::make_unique<coherence::InvalEngine>(cfg);
}

inline std::unique_ptr<coherence::CoherenceEngine>
makeInvalHome(unsigned units, coherence::HomePolicy policy,
              const directory::DirCacheConfig *dc)
{
    coherence::InvalEngineConfig cfg;
    cfg.nUnits = units;
    cfg.homePolicy = policy;
    cfg.dirCache = dirCacheOrNone(dc);
    return std::make_unique<coherence::InvalEngine>(cfg);
}

inline std::unique_ptr<coherence::CoherenceEngine>
makeInvalFinite(unsigned units, const directory::DirCacheConfig *dc)
{
    coherence::InvalEngineConfig cfg;
    cfg.nUnits = units;
    mem::CacheGeometry geometry;
    geometry.capacityBytes = 16 * 1024; // Small: forces evictions.
    geometry.blockBytes = 16;
    geometry.ways = 2;
    cfg.finiteCaches = geometry;
    cfg.dirCache = dirCacheOrNone(dc);
    return std::make_unique<coherence::InvalEngine>(cfg);
}

inline const Scheme kSchemes[] = {
    {"inval", makeInval, true},
    {"dir1nb",
     [](unsigned u, const directory::DirCacheConfig *dc)
         -> std::unique_ptr<coherence::CoherenceEngine> {
         return std::make_unique<coherence::LimitedEngine>(
             u, 1, dirCacheOrNone(dc));
     },
     true, 1},
    {"dir2nb",
     [](unsigned u, const directory::DirCacheConfig *dc)
         -> std::unique_ptr<coherence::CoherenceEngine> {
         return std::make_unique<coherence::LimitedEngine>(
             u, 2, dirCacheOrNone(dc));
     },
     true, 2},
    {"wti",
     [](unsigned u, const directory::DirCacheConfig *)
         -> std::unique_ptr<coherence::CoherenceEngine> {
         return std::make_unique<coherence::WtiEngine>(u, true);
     },
     false},
    {"wti-noalloc",
     [](unsigned u, const directory::DirCacheConfig *)
         -> std::unique_ptr<coherence::CoherenceEngine> {
         return std::make_unique<coherence::WtiEngine>(u, false);
     },
     false},
    {"dragon",
     [](unsigned u, const directory::DirCacheConfig *)
         -> std::unique_ptr<coherence::CoherenceEngine> {
         return std::make_unique<coherence::DragonEngine>(u);
     },
     false},
    {"berkeley",
     [](unsigned u, const directory::DirCacheConfig *)
         -> std::unique_ptr<coherence::CoherenceEngine> {
         return std::make_unique<coherence::BerkeleyEngine>(u);
     },
     false},
    {"inval+fullmap", makeInvalWithDir<directory::FullMapFactory>,
     true},
    {"inval+twobit", makeInvalWithDir<directory::TwoBitFactory>, true},
    {"inval+coarse", makeInvalWithDir<directory::CoarseVectorFactory>,
     true},
    {"inval+dir2b", makeInvalDir2B, true},
    {"inval+home-mod",
     [](unsigned u, const directory::DirCacheConfig *dc) {
         return makeInvalHome(u, coherence::HomePolicy::Modulo, dc);
     },
     true},
    {"inval+home-ft",
     [](unsigned u, const directory::DirCacheConfig *dc) {
         return makeInvalHome(u, coherence::HomePolicy::FirstTouch, dc);
     },
     true},
    {"inval+finite", makeInvalFinite, true},
};

inline constexpr std::size_t kNumSchemes =
    sizeof(kSchemes) / sizeof(kSchemes[0]);

/**
 * Digests recorded from the seed implementation (node-based
 * std::unordered_map/set block tables, unique_ptr DirEntry) over the
 * quarter-size standard workloads.  kGolden[workload][scheme] in
 * standardWorkloads() × kSchemes order.
 */
inline const std::uint64_t kGolden[3][kNumSchemes] = {
    // pops
    {0xae0e843ecb260cb7ULL, 0x97edd7f4fd3b4863ULL, 0x6830083eb9d5e8cfULL, 0xb6442018df56820bULL, 0xac977d2f58481d6aULL, 0xf4c98169ab5e0ff8ULL, 0xb9f8543ae7e56205ULL, 0xa799fa74acd9f4d0ULL, 0xf47a85d4ce438e3ULL, 0xfceeeac846465fbdULL, 0x736e5681a0f861aaULL, 0x57013e6088943e95ULL, 0xeb2b34b1a3e4ef8dULL, 0xb37298eeb6417cd7ULL},
    // thor
    {0xb3bc4643f878782eULL, 0x2df7a9e3adc2a4bbULL, 0x62547051064a3c43ULL, 0x919faf64ac1ea99bULL, 0x2dd626f20917e2eeULL, 0x6b5793fd62ca325fULL, 0xaf06c1a08f419a42ULL, 0x777a0fabcd011e3bULL, 0x87dcf92d15181961ULL, 0xccc5c766b82f1fd2ULL, 0x1e51d3dbe9671c6eULL, 0x31195e0407cfe55ULL, 0xcbe7aba5fec94d3bULL, 0xeac1e4f54c7e9ac0ULL},
    // pero
    {0x8490315cc2c28de0ULL, 0x3a6576db60fb5c83ULL, 0x240d242b0726cc6fULL, 0x4ae94e4ec043eb4ULL, 0xf4560a28d0566508ULL, 0x4dba17cd7107b8f3ULL, 0x9dff3aa5bc5681e2ULL, 0x6ed35fdbc3d80342ULL, 0x5b2f697773492301ULL, 0x8ae18d9750f8ba02ULL, 0xb15d31fd9f5e7330ULL, 0x81004f7e170f8819ULL, 0x70b87af67e234bd9ULL, 0x3dc95d507ab7bd8dULL},
};

/**
 * Run every scheme over the standard workloads as one
 * analysis::runMatrix at 4 jobs, under @p opts: one fused pass per
 * workload, with dir1nb and dir2nb as the lanes of one shared
 * MultiLimitedEngine unless @p dc puts a directory cache in front of
 * them.  Every cell must land on its golden digest.
 */
inline void
expectMatrixMatchesGolden(analysis::EvalOptions opts,
                          const directory::DirCacheConfig *dc)
{
    std::vector<analysis::EngineSpec> specs;
    for (const Scheme &scheme : kSchemes) {
        specs.push_back(
            {[&scheme, dc](unsigned units) {
                 return scheme.make(units, dc);
             },
             dc ? 0u : scheme.limitedPointers});
    }
    opts.jobs = 4;
    const std::vector<gen::WorkloadConfig> workloads =
        gen::standardWorkloads();
    const auto matrix = analysis::runMatrix(workloads, opts, specs);
    ASSERT_EQ(matrix.size(), 3u);
    for (std::size_t w = 0; w < matrix.size(); ++w) {
        ASSERT_EQ(matrix[w].size(), kNumSchemes);
        for (std::size_t s = 0; s < kNumSchemes; ++s) {
            EXPECT_EQ(digest(matrix[w][s]), kGolden[w][s])
                << "scheme '" << kSchemes[s].label << "' on workload '"
                << workloads[w].name << "' diverged through runMatrix";
        }
    }
}

/** A scratch disk-cache directory, removed on destruction. */
struct CacheDirGuard
{
    explicit CacheDirGuard(const std::string &stem)
        : path(testing::TempDir() + "dirsim-golden-" + stem + "-" +
               std::to_string(::getpid()))
    {
        std::filesystem::remove_all(path);
    }
    ~CacheDirGuard() { std::filesystem::remove_all(path); }
    std::string path;
};

} // namespace dirsim::golden

#endif // DIRSIM_TESTS_GOLDEN_DATA_HH
