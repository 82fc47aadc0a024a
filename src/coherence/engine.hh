/**
 * @file
 * Coherence engine interface.
 *
 * An engine implements one *state-change specification* (the paper's
 * term): how the set of cached copies evolves as references stream by.
 * It classifies every reference into an Event and maintains the
 * statistics of EngineResults.  Costing is entirely separate (see
 * sim/cost_model.hh): several protocols that share a state model —
 * Dir0B, WTI, Berkeley, Yen-Fu, DirnNB, DiriB — are costed from a
 * single engine run, exactly as the paper does.
 */

#ifndef DIRSIM_COHERENCE_ENGINE_HH
#define DIRSIM_COHERENCE_ENGINE_HH

#include <span>

#include "coherence/outcome.hh"
#include "coherence/results.hh"
#include "mem/block.hh"
#include "trace/record.hh"
#include "trace/span.hh"

namespace dirsim::coherence
{

/**
 * Abstract trace-driven coherence state engine.  Two entry points:
 * access() prices one reference through its Outcome (the timed bus,
 * the model checkers), accessPrepared() replays prepared spans of data
 * references in bulk (every static replay path).  Two bulk counts
 * stand in for references that change no state: recordInstrs() for
 * instruction fetches, recordRepeatReads() for repeat reads where
 * repeatReadsHit() says they are always hits.
 */
class CoherenceEngine
{
  public:
    virtual ~CoherenceEngine() = default;

    /**
     * Process one reference.
     *
     * @param unit Sharing-domain index (process or processor) in
     *             [0, nUnits).
     * @param type Reference type; instruction fetches are counted but
     *             cause no coherence action (Section 4 of the paper).
     * @param block Dense block id: the engine indexes its per-block
     *             state by it (coherence/block_table.hh), growing the
     *             table for an id past its end.
     * @return What this reference added to the costed counters of
     *         results() (see coherence/outcome.hh); callers that only
     *         want the aggregate ignore it.
     */
    virtual Outcome access(unsigned unit, trace::RefType type,
                           mem::BlockId block) = 0;

    /**
     * Process a span of prepared data references (trace/span.hh) in
     * order: the bulk-replay entry point sim::Simulator drives.
     * Semantically exactly span.n access() calls with the unpacked
     * columns; engines implement it with an internal loop
     * (coherence/prepared_loop.hh), so the per-reference virtual
     * dispatch disappears (the engine classes are final, letting the
     * compiler devirtualise and inline the body).  When
     * repeatReadsHit(), static replay hands it spans with the repeat
     * reads taken out (sim/repeat_filter.hh).
     */
    virtual void accessPrepared(const trace::PreparedSpan &span) = 0;

    /**
     * Count @p n instruction fetches.  Equivalent to n access() calls
     * with RefType::Instr: no engine changes coherence state on an
     * instruction fetch, so the replay loops strip them from the spans
     * and report them in bulk.
     */
    virtual void recordInstrs(std::uint64_t n) = 0;

    /**
     * Whether a repeat read is always a RdHit that changes no state
     * here.  A repeat read is a data read of a block whose previous
     * data reference, in stream order, was made by the same unit.
     * That unit gained a copy then, and with infinite caches only
     * another unit's reference to the block takes it away, so the
     * read hits.  An engine that can lose a copy otherwise (a finite
     * cache's replacement, a finite directory cache's eviction), or
     * whose writer gains none (write-around), must say false, and
     * then gets every reference.
     */
    virtual bool repeatReadsHit() const = 0;

    /**
     * Count @p n repeat reads: equivalent to n access() calls that
     * each record a RdHit and change nothing else.  Static replay
     * calls it only where repeatReadsHit() holds.
     */
    virtual void recordRepeatReads(std::uint64_t n) = 0;

    /** Accumulated statistics. */
    virtual const EngineResults &results() const = 0;

    /** Number of caches in the sharing domain. */
    virtual unsigned numUnits() const = 0;

    /** Drop all state and statistics. */
    virtual void reset() = 0;

    /**
     * Size per-block state exactly for dense ids [0, @p blocks) — a
     * trace's numBlocks() — so replay never grows a table.  Never
     * shrinks; ids past the end still grow it.
     */
    virtual void reserveBlocks(std::uint64_t /*blocks*/) {}

    /**
     * Bind the raw block index of every dense id the engine will see
     * (the trace's blockNames()), once per replay; the span must stay
     * valid while the engine replays.  Engines read the raw index
     * only where the model depends on the address itself: the
     * finite-cache and directory-cache set indices and
     * HomePolicy::Modulo.  An unbound engine treats each id as its
     * own raw index.
     */
    virtual void bindBlockNames(mem::BlockNames /*names*/) {}

    /** Distinct blocks this engine has seen, each counted from its
     *  first reference (0 if not applicable). */
    virtual std::uint64_t blocksTracked() const { return 0; }
};

/**
 * Binds engines to a stream's block names for one replay and unbinds
 * them when it ends, normally or by exception, so no engine keeps a
 * view of a names table it does not own.
 */
class BlockNamesBinding
{
  public:
    BlockNamesBinding(std::span<CoherenceEngine *const> engines,
                      mem::BlockNames names)
        : _engines(engines)
    {
        for (CoherenceEngine *engine : _engines)
            engine->bindBlockNames(names);
    }

    ~BlockNamesBinding()
    {
        for (CoherenceEngine *engine : _engines)
            engine->bindBlockNames({});
    }

    BlockNamesBinding(const BlockNamesBinding &) = delete;
    BlockNamesBinding &operator=(const BlockNamesBinding &) = delete;

  private:
    std::span<CoherenceEngine *const> _engines;
};

} // namespace dirsim::coherence

#endif // DIRSIM_COHERENCE_ENGINE_HH
