/**
 * @file
 * Fused multi-scheme replay of prepared columns.
 *
 * The paper replays one interleaved reference stream through every
 * protocol (Section 4.1); the sweep matrix is therefore N engines ×
 * one stream per workload.  FusedReplay drives one stream through a
 * set of engines: it pulls each span of the stream once and hands the
 * whole span to every engine in turn.  An in-memory trace is one
 * span; a stored trace's spans are its chunk windows, so each window
 * is read, and its digest checked, once for all N engines.
 *
 * Whole spans keep each engine's block table resident for its whole
 * pass.  The tables are what outgrows the caches: at 64 CPUs each
 * engine's table is several MB, larger than L2, while the columns are
 * a sequential 6 bytes per reference that the prefetcher streams.
 * Interleaving the engines over 64K-reference strips instead, the
 * earlier design, evicted every engine's table at each switch: on the
 * 8–64 CPU machine sweep that fused pass took 1.3× as long as the
 * same engines run one after another.
 *
 * Correctness rests on the PreparedSpanSource contract: engines are
 * stateful across spans and span boundaries are invisible to the
 * coherence model, so the fused pass is bit-identical to N sequential
 * full passes — each engine still sees exactly the stream, in order.
 * The golden digest suite pins this for every scheme × workload.
 */

#ifndef DIRSIM_SIM_FUSED_REPLAY_HH
#define DIRSIM_SIM_FUSED_REPLAY_HH

#include <cstdint>
#include <vector>

#include "coherence/engine.hh"
#include "trace/prepared.hh"

namespace dirsim::sim
{

/** FusedReplay knobs. */
struct FusedReplayOptions
{
    /**
     * Accumulate per-engine wall-clock seconds across the run (the
     * bench's per-scheme attribution).  Costs two clock reads per
     * engine per span, so leave it off outside benchmarks.
     */
    bool timeEngines = false;
};

/** Outcome of one fused replay pass. */
struct FusedReplayRun
{
    std::uint64_t instrRefs = 0;
    std::uint64_t dataRefs = 0;
    std::uint64_t totalRefs() const { return instrRefs + dataRefs; }

    /** Seconds each engine spent consuming spans, in engine order;
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
     * no coherence state), then each span goes to every engine in
     * turn.
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
