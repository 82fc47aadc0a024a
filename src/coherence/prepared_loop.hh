/**
 * @file
 * Shared strip-mined dispatch loop for accessPrepared overrides.
 *
 * Every engine's accessPrepared is the same loop with a different
 * body: decode the packed type+flags byte, then run the protocol's
 * access logic against the per-block table.  This helper hoists the
 * decode out of the loop — util::decodeTypes() strips the whole
 * strip's type lane in one branchless SIMD/SWAR pass — and issues a
 * software prefetch for the block-table probe a few references ahead
 * of the dispatch point, so the probe's cache line is in flight while
 * earlier references are still being processed.
 *
 * The strip (util::kClassifyStripRefs) is sized so the decoded type
 * lane plus the column bytes it shadows stay L1-resident.  Dispatch
 * order is exactly slice order — the strip structure is invisible to
 * the coherence model, like span boundaries (trace/prepared.hh).
 *
 * Usage, from inside an engine member function (the lambdas capture
 * `this`, so private members stay private):
 *
 *   forEachPreparedRef(
 *       slice,
 *       [this](mem::BlockId b) { _blocks.prefetch(b); },
 *       [this](unsigned u, trace::RefType t, mem::BlockId b) {
 *           step<NoOutcome>(u, t, b);
 *       });
 *
 * The dispatch calls the engine's own non-virtual handlers, which
 * inline into the strip loop; NoOutcome (coherence/outcome.hh) keeps
 * the per-reference outcome out of it.
 */

#ifndef DIRSIM_COHERENCE_PREPARED_LOOP_HH
#define DIRSIM_COHERENCE_PREPARED_LOOP_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "coherence/engine.hh"
#include "trace/record.hh"
#include "util/simd.hh"

namespace dirsim::coherence
{

/**
 * Dispatch every reference of @p slice, in order, to @p access
 * (unit, type, block), with the packed byte pre-decoded per strip and
 * @p prefetchProbe (block) invoked util::kPrefetchDistance references
 * ahead of the dispatch point.
 */
template <typename PrefetchFn, typename AccessFn>
inline void
forEachPreparedRef(const PreparedSlice &slice, PrefetchFn &&prefetchProbe,
                   AccessFn &&access)
{
    alignas(util::kCacheLineBytes)
        std::uint8_t types[util::kClassifyStripRefs];
    for (std::size_t base = 0; base < slice.n;
         base += util::kClassifyStripRefs) {
        const std::size_t n =
            std::min(util::kClassifyStripRefs, slice.n - base);
        util::decodeTypes(slice.typeFlags + base, types, n);
        const std::uint32_t *block = slice.block + base;
        const std::uint8_t *unit = slice.unit + base;
        const std::size_t fetchable =
            n > util::kPrefetchDistance ? n - util::kPrefetchDistance
                                        : 0;
        for (std::size_t i = 0; i < fetchable; ++i) {
            prefetchProbe(block[i + util::kPrefetchDistance]);
            access(unit[i], static_cast<trace::RefType>(types[i]),
                   block[i]);
        }
        for (std::size_t i = fetchable; i < n; ++i)
            access(unit[i], static_cast<trace::RefType>(types[i]),
                   block[i]);
    }
}

/**
 * Prefetch-free variant: the same strip-mined dispatch with no probe
 * hints.  Engines pick this when their block table is small enough
 * to be cache-resident (util::FlatMap::prefetchProfitable()) — the
 * hint's extra hash per reference would be pure overhead there, and
 * hoisting that decision out of the loop keeps the hot path free of
 * a per-reference capacity check.
 */
template <typename AccessFn>
inline void
forEachPreparedRef(const PreparedSlice &slice, AccessFn &&access)
{
    alignas(util::kCacheLineBytes)
        std::uint8_t types[util::kClassifyStripRefs];
    for (std::size_t base = 0; base < slice.n;
         base += util::kClassifyStripRefs) {
        const std::size_t n =
            std::min(util::kClassifyStripRefs, slice.n - base);
        util::decodeTypes(slice.typeFlags + base, types, n);
        const std::uint32_t *block = slice.block + base;
        const std::uint8_t *unit = slice.unit + base;
        for (std::size_t i = 0; i < n; ++i)
            access(unit[i], static_cast<trace::RefType>(types[i]),
                   block[i]);
    }
}

/**
 * The whole accessPrepared body every block-table engine shares:
 * strip-mined dispatch into @p dispatch (unit, type, block), with the
 * probe prefetch enabled iff @p blocks (the engine's per-block
 * FlatMap) has outgrown the cache (util::FlatMap::prefetchProfitable()).
 * The prefetch-or-not branch is hoisted out of the loop here, once, so
 * every engine's override is a single call that dispatches into its
 * outcome-discarding handlers:
 *
 *   void Engine::accessPrepared(const PreparedSlice &slice)
 *   {
 *       stripMinedAccessPrepared(
 *           _blocks, slice,
 *           [this](unsigned u, trace::RefType t, mem::BlockId b) {
 *               step<NoOutcome>(u, t, b);
 *           });
 *   }
 */
template <typename BlockTable, typename DispatchFn>
inline void
stripMinedAccessPrepared(BlockTable &blocks, const PreparedSlice &slice,
                         DispatchFn &&dispatch)
{
    if (blocks.prefetchProfitable()) {
        forEachPreparedRef(
            slice,
            [&blocks](mem::BlockId block) { blocks.prefetch(block); },
            dispatch);
    } else {
        forEachPreparedRef(slice, dispatch);
    }
}

} // namespace dirsim::coherence

#endif // DIRSIM_COHERENCE_PREPARED_LOOP_HH
