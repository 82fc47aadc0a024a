/**
 * @file
 * Multi-configuration DiriNB engine: every pointer count of a sweep
 * in one pass over one shared block table.
 *
 * The paper's central axis re-runs the same protocol at pointer
 * counts i = 1..8.  The per-block *key set* is identical across those
 * runs — only the per-configuration state differs — so replaying them
 * as k independent LimitedEngines costs k block-table lookups per
 * reference on identical ids.  In the spirit of single-pass
 * multi-configuration cache simulation (Sugumar/Abraham), this engine
 * keeps ONE lane arena indexed by the dense block id whose entries
 * hold each configuration's state side by side: per entry, k holder
 * masks then k fill-order queues, packed contiguously (at the default
 * four-lane sweep the whole entry is exactly one cache line), with
 * the cold owner/referenced fields in a parallel side table.  Each
 * reference is one lookup + k lane transitions, demultiplexing into k
 * independent EngineResults.
 *
 * The lane transitions are the *same inline functions* LimitedEngine
 * executes (coherence/limited_policy.hh), so lane l is bit-identical
 * to LimitedEngine(nUnits, pointerCounts[l]) — the differential and
 * golden suites hold it to that, per lane, including the engine name.
 *
 * Finite directory caches are out of scope by design: eviction state
 * (LRU order, victim choice) is per-configuration, which would undo
 * the sharing — callers fall back to independent engines when a
 * DirCacheConfig is set (analysis/evaluation.cc does this
 * automatically).
 */

#ifndef DIRSIM_COHERENCE_MULTI_LIMITED_ENGINE_HH
#define DIRSIM_COHERENCE_MULTI_LIMITED_ENGINE_HH

#include <cstdint>
#include <vector>

#include "coherence/block_table.hh"
#include "coherence/engine.hh"
#include "coherence/limited_policy.hh"
#include "util/simd.hh"

namespace dirsim::coherence
{

/** k DiriNB configurations over one shared block table. */
class MultiLimitedEngine final : public CoherenceEngine
{
  public:
    /**
     * @param nUnits Number of caches, in [1, 64].
     * @param pointerCounts One DiriNB pointer count per lane, each
     *        validated and clamped exactly as LimitedEngine does
     *        (>= 1, clamped to nUnits, at most 8 after clamping).
     *        Duplicates are allowed (clamping can create them) and
     *        simply run as independent identical lanes.
     */
    MultiLimitedEngine(unsigned nUnits,
                       const std::vector<unsigned> &pointerCounts);

    /** Returns lane 0's outcome, as results() reports lane 0. */
    Outcome access(unsigned unit, trace::RefType type,
                   mem::BlockId block) override;
    void accessPrepared(const trace::PreparedSpan &span) override;
    void recordInstrs(std::uint64_t n) override;
    /** Lane 0's results — harvest per lane via laneResults(). */
    const EngineResults &results() const override
    {
        return _results.front();
    }
    unsigned numUnits() const override { return _nUnits; }
    void reset() override;
    void reserveBlocks(std::uint64_t blocks) override;
    /** Lane 0's referenced field counts each block once. */
    std::uint64_t blocksTracked() const override
    {
        return _cold.count(
            [](const LaneCold &lane) { return lane.referenced; });
    }

    std::size_t numLanes() const { return _results.size(); }
    /** Lane @p lane's pointer count, after clamping. */
    unsigned lanePointers(std::size_t lane) const
    {
        return _pointers[lane];
    }
    /**
     * Lane @p lane's results — bit-identical to a
     * LimitedEngine(nUnits, pointerCounts[lane]) run over the same
     * stream, name included.
     */
    const EngineResults &laneResults(std::size_t lane) const
    {
        return _results[lane];
    }

  private:
    /** One lane's cold fields (a fresh block: no owner, never
     *  referenced). */
    struct LaneCold
    {
        std::int16_t owner = -1;
        bool referenced = false;
    };

    /** Make @p block's lane entry addressable (all lanes of a fresh
     *  entry are empty, exactly like a fresh LimitedEngine block). */
    void
    cover(mem::BlockId block)
    {
        _words.cover(block);
        _cold.cover(block);
    }
    /** One reference, its lane-0 outcome as @p Out: Outcome for
     *  access(), NoOutcome for the static replay loops. */
    template <typename Out>
    Out step(unsigned unit, trace::RefType type, mem::BlockId block);
    template <typename Out>
    Out handleRead(unsigned unit, mem::BlockId block);
    template <typename Out>
    Out handleWrite(unsigned unit, mem::BlockId block);

    unsigned _nUnits;
    unsigned _k; //!< Lane count.
    std::vector<unsigned> _pointers; //!< Clamped, one per lane.
    std::vector<EngineResults> _results;
    /**
     * Hot lane words, 2k per block: k masks then k fill queues.  The
     * base is 64-byte aligned, so the paper's four-lane {1,2,4,8}
     * sweep packs each block's hot state into exactly one cache line.
     */
    BlockTable<std::uint64_t, util::AlignedAllocator<std::uint64_t>>
        _words;
    /** Cold lane fields, k per block. */
    BlockTable<LaneCold> _cold;
};

} // namespace dirsim::coherence

#endif // DIRSIM_COHERENCE_MULTI_LIMITED_ENGINE_HH
