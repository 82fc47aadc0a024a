/**
 * @file
 * Trace-driven multiprocessor simulation driver.
 *
 * Streams a reference source through any number of coherence engines
 * in one pass (the engines are independent state models, so a single
 * traversal serves every protocol — Section 4.1 of the paper makes the
 * same observation to get one simulation run per protocol).
 *
 * The sharing domain implements Section 4.4's choice: the paper
 * considers "sharing between processes (as opposed to sharing between
 * processors)" to exclude migration-induced sharing, and checked that
 * processor-based numbers were not significantly different.  Both
 * domains are supported here; the extension bench reproduces the
 * check.
 */

#ifndef DIRSIM_SIM_SIMULATOR_HH
#define DIRSIM_SIM_SIMULATOR_HH

#include <memory>
#include <optional>
#include <vector>

#include "coherence/engine.hh"
#include "sim/fused_replay.hh"
#include "sim/unit_map.hh"
#include "trace/lowering.hh"
#include "trace/prepared.hh"
#include "trace/ref_source.hh"

namespace dirsim::sim
{

/** Driver configuration. */
struct SimConfig
{
    unsigned blockBytes = 16; //!< The paper's 4-word block.
    SharingDomain domain = SharingDomain::Process;
    /**
     * No longer sizes replay, and no Simulator path reads it: engines
     * are sized exactly from the trace's numBlocks() (prepared
     * replay) or grow with the block numbering (raw replay).  Kept
     * only because the benchmark runner (perfbench/runner.cc) still
     * sets it from gen::expectedUniqueBlocks(); removing it belongs to
     * a benchmark change.
     */
    std::uint64_t expectedBlocks = 0;

    bool operator==(const SimConfig &) const = default;
};

/** Runs traces through a set of coherence engines. */
class Simulator
{
  public:
    explicit Simulator(const SimConfig &cfg = SimConfig{});

    /**
     * Register an engine.  Ownership transfers; the engine's unit
     * count bounds the number of distinct processes/CPUs the trace may
     * contain.
     */
    coherence::CoherenceEngine &
    addEngine(std::unique_ptr<coherence::CoherenceEngine> engine);

    /**
     * Stream @p source to exhaustion through every engine.
     *
     * Records are pulled in batches through the lowering every
     * prepared trace comes out of (trace::StreamLowering), and each
     * batch's SoA columns (dense block id, dense unit, packed
     * type+flags byte) go to every engine's accessPrepared() — the
     * entry point prepared replay drives — so the per-record virtual
     * dispatch of RefSource::next() is amortised and engine state
     * stays hot in cache.  The lowering's unit and first-touch block
     * numbering is kept across calls, and the engines are bound to
     * the growing names table afresh for every batch.
     *
     * @return Number of references processed.
     * @throws std::runtime_error if the trace contains more sharing
     *         units than an engine supports (or than the prepared
     *         8-bit unit column holds), or an address whose block
     *         index exceeds 32 bits (the width of the names table, as
     *         in the prepared formats).  Both are checked before a
     *         batch reaches any engine, and on failure every engine is
     *         reset() and the numbering cleared, so a failed run
     *         leaves no partially-accumulated state behind.
     */
    std::uint64_t run(trace::RefSource &source);

    /**
     * Replay an already-decoded trace through every engine: one bulk
     * instruction count plus one fused pass that hands each span of
     * the SoA columns to every engine (sim/fused_replay.hh), with no
     * per-record decode at all.  Bit-identical to streaming the raw
     * trace through run(RefSource&) — the prepared decode froze the
     * same unit numbering and block numbering this simulator would
     * compute.  Block ids are dense per trace, so engine state
     * carries over only between replays of the same trace; reset()
     * the engines before replaying a different one.
     *
     * @return Number of references processed (instr + data).
     * @throws std::invalid_argument if @p prepared was decoded for a
     *         different block size or sharing domain than this
     *         simulator's config.
     * @throws std::runtime_error if the trace contains more sharing
     *         units than an engine supports; thrown before any engine
     *         sees a reference, so a failed run mutates nothing.
     */
    std::uint64_t run(const trace::PreparedTrace &prepared);

    /**
     * Replay a prepared stream span by span: same decode-free hot
     * loop as run(const PreparedTrace&), but the columns arrive as a
     * PreparedSpan sequence, so the backing storage never needs to be
     * contiguous — or even resident.  This is the out-of-core replay
     * path (trace::StoredTrace::spanCursor()); engines are stateful
     * across spans, so the result is bit-identical to replaying one
     * contiguous trace.  The source is rewound before use.
     *
     * @return Number of references processed (instr + data).
     * @throws std::invalid_argument / std::runtime_error exactly as
     *         run(const PreparedTrace&); the geometry checks use the
     *         source's stream summary, so a failed run mutates
     *         nothing.
     */
    std::uint64_t run(trace::PreparedSpanSource &spans);

    const SimConfig &config() const { return _cfg; }
    std::size_t numEngines() const { return _engines.size(); }
    coherence::CoherenceEngine &engine(std::size_t i)
    {
        return *_engines[i];
    }
    const coherence::CoherenceEngine &engine(std::size_t i) const
    {
        return *_engines[i];
    }

    /** Distinct sharing units seen so far. */
    unsigned
    unitsSeen() const
    {
        const unsigned streamed = _lowering ? _lowering->numUnits() : 0;
        return streamed > _preparedUnits ? streamed : _preparedUnits;
    }

  private:
    /** Non-owning engine list in registration order (FusedReplay). */
    std::vector<coherence::CoherenceEngine *> enginePointers() const;
    /** The engine with the fewest units (null without engines): its
     *  unit count bounds the units a trace may use. */
    const coherence::CoherenceEngine *smallestEngine() const;

    SimConfig _cfg;
    std::vector<std::unique_ptr<coherence::CoherenceEngine>> _engines;
    /** The RefSource path's unit and block numbering; made on the
     *  first such run, dropped when one fails. */
    std::optional<trace::StreamLowering> _lowering;
    /** Units covered by prepared replays (they bypass _lowering). */
    unsigned _preparedUnits = 0;
};

} // namespace dirsim::sim

#endif // DIRSIM_SIM_SIMULATOR_HH
