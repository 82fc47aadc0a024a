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

#include "coherence/outcome.hh"
#include "coherence/results.hh"
#include "mem/block.hh"
#include "trace/record.hh"

namespace dirsim::coherence
{

/** One decoded reference, ready for engine consumption. */
struct BlockAccess
{
    unsigned unit;
    trace::RefType type;
    mem::BlockId block;
};

static_assert(std::is_trivially_copyable_v<BlockAccess>,
              "BlockAccess must be memcpy-safe for batched replay");

/**
 * A view over prepared-trace SoA columns (see trace/prepared.hh):
 * @p n data references as parallel arrays of 32-bit block index,
 * 8-bit dense unit index, and packed type+flags byte (decode with
 * trace::packedRefType / trace::packedFlags).  Instruction fetches
 * never appear in a slice — they are reported via recordInstrs().
 */
struct PreparedSlice
{
    const std::uint32_t *block;
    const std::uint8_t *unit;
    const std::uint8_t *typeFlags;
    std::size_t n;
};

/** Abstract trace-driven coherence state engine. */
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
     * @param block Coherence block identifier.
     * @return What this reference added to the costed counters of
     *         results() (see coherence/outcome.hh); callers that only
     *         want the aggregate ignore it.
     */
    virtual Outcome access(unsigned unit, trace::RefType type,
                           mem::BlockId block) = 0;

    /**
     * Process @p n decoded references in order.  Semantically exactly
     * n access() calls; concrete engines override it with an internal
     * loop so the per-reference virtual dispatch disappears (the
     * engine classes are final, letting the compiler devirtualise and
     * inline the body).
     */
    virtual void
    accessBatch(const BlockAccess *accs, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            access(accs[i].unit, accs[i].type, accs[i].block);
    }

    /**
     * Process a prepared SoA slice in order.  Semantically exactly
     * slice.n access() calls with the unpacked columns; concrete
     * engines override it with an internal loop, exactly like
     * accessBatch(), so the whole scan devirtualises.
     */
    virtual void
    accessPrepared(const PreparedSlice &slice)
    {
        for (std::size_t i = 0; i < slice.n; ++i)
            access(slice.unit[i],
                   trace::packedRefType(slice.typeFlags[i]),
                   slice.block[i]);
    }

    /**
     * Count @p n instruction fetches.  Equivalent to n access() calls
     * with RefType::Instr: no engine changes coherence state on an
     * instruction fetch, so the driver may strip them from batches
     * and report them in bulk.
     */
    virtual void
    recordInstrs(std::uint64_t n)
    {
        for (std::uint64_t i = 0; i < n; ++i)
            access(0, trace::RefType::Instr, 0);
    }

    /** Accumulated statistics. */
    virtual const EngineResults &results() const = 0;

    /** Number of caches in the sharing domain. */
    virtual unsigned numUnits() const = 0;

    /** Drop all state and statistics. */
    virtual void reset() = 0;

    /**
     * Pre-size per-block state for an expected working set.  A hint:
     * engines that track per-block state reserve their tables so the
     * hot loop never rehashes; others ignore it.
     */
    virtual void reserveBlocks(std::uint64_t /*blocks*/) {}

    /** Number of blocks with tracked state (0 if not applicable). */
    virtual std::uint64_t blocksTracked() const { return 0; }
};

} // namespace dirsim::coherence

#endif // DIRSIM_COHERENCE_ENGINE_HH
