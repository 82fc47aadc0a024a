/**
 * @file
 * Fused multi-scheme replay of prepared columns.
 *
 * The paper replays one interleaved reference stream through every
 * protocol (Section 4.1); the sweep matrix is therefore N engines ×
 * one stream per workload.  Replaying the engines one after another
 * re-reads the same SoA columns N times from memory.  FusedReplay
 * inverts the loop nest: it walks the columns once, in cache-sized
 * strips, and hands each strip to every engine in turn — the strip's
 * block/unit/typeFlags bytes stay L1/L2-resident across all N
 * engines, so the column bandwidth is paid once per workload instead
 * of once per scheme.
 *
 * Correctness rests on the PreparedSpanSource contract: engines are
 * stateful across spans and span boundaries are invisible to the
 * coherence model, so slicing a span into strips and interleaving the
 * engines per strip is bit-identical to N sequential full passes —
 * each engine still sees exactly the stream, in order.  The golden
 * digest suite pins this for every scheme × workload.
 *
 * Strip size trade-off: smaller strips keep the columns hotter but
 * pay the engine-switch overhead (virtual accessPrepared call,
 * block-table re-warm) more often; larger strips amortise the switch
 * but give up column locality once traces outgrow the LLC.  See
 * kDefaultReplayStripRefs for the measured default.
 */

#ifndef DIRSIM_SIM_FUSED_REPLAY_HH
#define DIRSIM_SIM_FUSED_REPLAY_HH

#include <cstdint>
#include <vector>

#include "coherence/engine.hh"
#include "trace/prepared.hh"

namespace dirsim::sim
{

/**
 * Default references per strip (SimConfig::replayStripRefs).
 *
 * 64K references is ~384 KiB of column data — LLC-resident, well
 * clear of L2.  Measured on the standard campaign, smaller
 * (L2-sized) strips lose: every engine switch refaults that engine's
 * hot block-table subset, and with quarter-size workloads whose
 * columns already fit in LLC the fusion win is the amortised walk,
 * not DRAM bandwidth.  64K strips sit within ~5% of whole-span
 * replay while keeping the strip path — the shape that matters once
 * traces outgrow the LLC — exercised by default everywhere.
 */
constexpr std::size_t kDefaultReplayStripRefs = 65536;

/** FusedReplay knobs. */
struct FusedReplayOptions
{
    /**
     * References per strip; every strip visits all engines before
     * the walk advances.  0 disables strip-mining: each span goes to
     * each engine whole (the pre-fusion replay shape, kept as the
     * A/B escape hatch).
     */
    std::size_t stripRefs = kDefaultReplayStripRefs;

    /**
     * Accumulate per-engine wall-clock seconds across the run (the
     * bench's per-scheme attribution).  Costs two clock reads per
     * engine per strip, so leave it off outside benchmarks.
     */
    bool timeEngines = false;
};

/** Outcome of one fused replay pass. */
struct FusedReplayRun
{
    std::uint64_t instrRefs = 0;
    std::uint64_t dataRefs = 0;
    std::uint64_t totalRefs() const { return instrRefs + dataRefs; }

    /** Seconds each engine spent consuming strips, in engine order;
     *  empty unless FusedReplayOptions::timeEngines. */
    std::vector<double> engineSeconds;
};

/**
 * Drives one prepared stream through a set of engines in a single
 * fused pass.  Performs no geometry validation — callers (Simulator,
 * the bench) check block size / domain / unit capacity before
 * replaying, exactly as before.
 */
class FusedReplay
{
  public:
    explicit FusedReplay(const FusedReplayOptions &opts = {})
        : _opts(opts)
    {
    }

    /**
     * Rewind @p spans and replay the whole stream through every
     * engine of @p engines: each engine is sized from the stream's
     * numBlocks() and bound to its blockNames() for the replay, bulk
     * instruction counts go up front (order-independent — they change
     * no coherence state), then the span walk, strip-mined per
     * FusedReplayOptions::stripRefs.
     *
     * @throws std::runtime_error if the source yields a different
     *         number of data references than its summary declares.
     */
    FusedReplayRun
    run(trace::PreparedSpanSource &spans,
        const std::vector<coherence::CoherenceEngine *> &engines) const;

    const FusedReplayOptions &options() const { return _opts; }

  private:
    FusedReplayOptions _opts;
};

} // namespace dirsim::sim

#endif // DIRSIM_SIM_FUSED_REPLAY_HH
