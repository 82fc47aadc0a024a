/**
 * @file
 * Output digests the benchmark pins its results to.
 *
 * digest() is the canonical EngineResults digest the golden tests
 * use (FNV-1a over a fixed field order), kept here so the benchmark
 * builds without the test tree.  dirCacheDigest() adds the finite
 * directory-cache counters the canonical digest leaves out, and
 * textDigest() hashes a rendered exhibit.
 */

#ifndef DIRSIM_PERFBENCH_DIGEST_HH
#define DIRSIM_PERFBENCH_DIGEST_HH

#include <cstdint>
#include <string>

#include "coherence/results.hh"
#include "stats/histogram.hh"

namespace perfbench
{

/** FNV-1a over 64-bit little-endian words. */
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
    histogram(const dirsim::stats::Histogram &h)
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

/** Canonical digest of an EngineResults (the golden-table digest). */
inline std::uint64_t
digest(const dirsim::coherence::EngineResults &r)
{
    using dirsim::coherence::Event;
    Digest d;
    d.str(r.name);
    d.u64(r.events.totalRefs());
    for (std::size_t e = 0; e < dirsim::coherence::numEvents; ++e)
        d.u64(r.events.count(static_cast<Event>(e)));
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

/** The canonical digest extended by the directory-cache counters. */
inline std::uint64_t
dirCacheDigest(const dirsim::coherence::EngineResults &r)
{
    Digest d;
    d.u64(digest(r));
    d.u64(r.dirCacheHits);
    d.u64(r.dirCacheMisses);
    d.u64(r.dirCacheEvictions);
    d.u64(r.dirCacheEvictionInvals);
    d.u64(r.dirCacheEvictionWriteBacks);
    return d.value();
}

/** Digest of a rendered exhibit's text. */
inline std::uint64_t
textDigest(const std::string &text)
{
    Digest d;
    d.str(text);
    return d.value();
}

} // namespace perfbench

#endif // DIRSIM_PERFBENCH_DIGEST_HH
