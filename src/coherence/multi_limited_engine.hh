/**
 * @file
 * Multi-configuration DiriNB engine: every pointer count of a sweep
 * in one pass over one shared block table.
 *
 * The paper's central axis re-runs the same protocol at pointer
 * counts i = 1..8.  The per-block *key set* is identical across those
 * runs — only the per-configuration state differs — so replaying them
 * as k independent LimitedEngines costs k FlatMap probes per
 * reference on identical keys.  In the spirit of single-pass
 * multi-configuration cache simulation (Sugumar/Abraham), this engine
 * keeps ONE FlatMap from block to an arena entry whose lanes hold
 * each configuration's state side by side: per entry, k holder masks
 * then k fill-order queues, packed contiguously (at the default
 * four-lane sweep the whole entry is exactly one cache line), with
 * the cold owner/referenced words in parallel side arenas.  Each
 * reference is one probe + k lane transitions, demultiplexing into k
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

#include "coherence/engine.hh"
#include "coherence/limited_policy.hh"
#include "util/flat_map.hh"
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
    void accessBatch(const BlockAccess *accs, std::size_t n) override;
    void accessPrepared(const PreparedSlice &slice) override;
    void recordInstrs(std::uint64_t n) override;
    /** Lane 0's results — harvest per lane via laneResults(). */
    const EngineResults &results() const override
    {
        return _results.front();
    }
    unsigned numUnits() const override { return _nUnits; }
    void reset() override;
    void reserveBlocks(std::uint64_t blocks) override;
    std::uint64_t blocksTracked() const override
    {
        return _blocks.size();
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
    /** The arena entry for @p block, appending a fresh one (all
     *  lanes empty) on first touch. */
    std::uint32_t entryFor(mem::BlockId block);
    /** One reference, its lane-0 outcome as @p Out: Outcome for
     *  access(), NoOutcome for the static replay loops. */
    template <typename Out>
    Out step(unsigned unit, trace::RefType type, mem::BlockId block);
    template <typename Out>
    Out handleRead(unsigned unit, std::uint32_t entry);
    template <typename Out>
    Out handleWrite(unsigned unit, std::uint32_t entry);

    unsigned _nUnits;
    unsigned _k; //!< Lane count.
    /**
     * u64 words per arena entry: k masks then k fill queues.  The
     * base is 64-byte aligned (AlignedVector), so the paper's
     * four-lane {1,2,4,8} sweep packs each block's hot state into
     * exactly one cache line.
     */
    std::size_t _stride;
    std::vector<unsigned> _pointers; //!< Clamped, one per lane.
    std::vector<EngineResults> _results;
    util::FlatMap<mem::BlockId, std::uint32_t> _blocks;
    /** Hot lane words: [entry * _stride): masks[k], fillqs[k]. */
    util::AlignedVector<std::uint64_t> _words;
    /** Cold lane fields, k per entry. */
    std::vector<std::int16_t> _owners;
    std::vector<std::uint8_t> _referenced;
    std::uint32_t _entries = 0;
};

} // namespace dirsim::coherence

#endif // DIRSIM_COHERENCE_MULTI_LIMITED_ENGINE_HH
