/**
 * @file
 * Trace-driven multiprocessor simulation driver.
 *
 * Streams a reference source through any number of coherence engines
 * in one pass (the engines are independent state models, so a single
 * traversal serves every protocol — Section 4.1 of the paper makes the
 * same observation to get one simulation run per protocol).  Every
 * static replay goes through Simulator: it pulls each span of the
 * stream once and hands it to every engine in turn, through the
 * repeat-read filter (sim/repeat_filter.hh).  Engines are stateful
 * across spans and span boundaries are invisible to the coherence
 * model, so this is bit-identical to replaying each engine alone over
 * the whole stream; the golden digest suite pins that for every
 * scheme × workload.
 *
 * The sharing domain implements Section 4.4's choice: the paper
 * considers "sharing between processes (as opposed to sharing between
 * processors)" to exclude migration-induced sharing, and checked that
 * processor-based numbers were not significantly different.  Both
 * domains are supported here; reproduce_paper's ext_sharing_domain
 * exhibit reproduces the check.
 */

#ifndef DIRSIM_SIM_SIMULATOR_HH
#define DIRSIM_SIM_SIMULATOR_HH

#include <memory>
#include <optional>
#include <vector>

#include "coherence/engine.hh"
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
     * type+flags byte) go through the repeat-read filter
     * (sim/repeat_filter.hh) to every engine's accessPrepared() — the
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
     * Replay an already-decoded trace through every engine: its SoA
     * columns as one span through run(PreparedSpanSource&), with no
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
     * Replay a prepared stream span by span: the static replay loop.
     * Each engine is sized from the stream's numBlocks() and bound to
     * its blockNames() for the replay, the instruction fetches go in
     * up front as one bulk count (they change no coherence state),
     * then each span goes through the repeat-read filter to every
     * engine in turn.  The columns arrive as a PreparedSpan sequence,
     * so the backing storage never needs to be contiguous — or even
     * resident: a stored trace's spans are its chunk windows
     * (trace::StoredTrace::spanCursor()), each read, and its digest
     * checked, once for all engines.  The source is rewound before
     * use.
     *
     * @return Number of references processed (instr + data).
     * @throws std::invalid_argument / std::runtime_error for the
     *         geometry and unit-capacity errors of
     *         run(const PreparedTrace&), checked from the stream's
     *         summary before any engine sees a reference.
     * @throws std::runtime_error if the source yields a different
     *         number of data references than its summary declares.
     *         On this error, and on any the source throws while
     *         yielding spans (a stored trace's corrupted chunk),
     *         every engine is reset(), so a failed run leaves no
     *         partially-accumulated state behind.
     */
    std::uint64_t run(trace::PreparedSpanSource &spans);

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
    /** Non-owning engine list in registration order. */
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
