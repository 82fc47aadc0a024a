/**
 * @file
 * Shared strip-mined dispatch loop for accessPrepared overrides.
 *
 * Every engine's accessPrepared is the same loop with a different
 * body: decode the packed type+flags byte, then run the protocol's
 * access logic against the per-block table.  This helper hoists the
 * decode out of the loop — util::decodeTypes() strips the whole
 * strip's type lane in one branchless SIMD/SWAR pass — and hoists the
 * block table's growth check too: one max over the strip's block ids
 * lets the engine cover() them all before dispatch, so each
 * reference indexes its state (coherence/block_table.hh) with no
 * bounds check.
 *
 * The strip (util::kClassifyStripRefs) is sized so the decoded type
 * lane plus the column bytes it shadows stay L1-resident.  Dispatch
 * order is exactly span order — the strip structure is invisible to
 * the coherence model, like span boundaries (trace/prepared.hh).
 *
 * Usage, from inside an engine member function (the lambdas capture
 * `this`, so private members stay private):
 *
 *   forEachPreparedRef(
 *       span, [this](mem::BlockId last) { _blocks.cover(last); },
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
#include "trace/span.hh"
#include "util/simd.hh"

namespace dirsim::coherence
{

/**
 * Dispatch every reference of @p span, in order, to @p access
 * (unit, type, block), with the packed byte pre-decoded per strip and
 * @p cover (largest block id of the strip) called before each strip
 * is dispatched.
 */
template <typename CoverFn, typename AccessFn>
inline void
forEachPreparedRef(const trace::PreparedSpan &span, CoverFn &&cover,
                   AccessFn &&access)
{
    alignas(util::kCacheLineBytes)
        std::uint8_t types[util::kClassifyStripRefs];
    for (std::size_t base = 0; base < span.n;
         base += util::kClassifyStripRefs) {
        const std::size_t n =
            std::min(util::kClassifyStripRefs, span.n - base);
        util::decodeTypes(span.typeFlags + base, types, n);
        const std::uint32_t *block = span.block + base;
        const std::uint8_t *unit = span.unit + base;
        std::uint32_t last = 0;
        for (std::size_t i = 0; i < n; ++i)
            last = std::max(last, block[i]);
        cover(last);
        for (std::size_t i = 0; i < n; ++i)
            access(unit[i], static_cast<trace::RefType>(types[i]),
                   block[i]);
    }
}

} // namespace dirsim::coherence

#endif // DIRSIM_COHERENCE_PREPARED_LOOP_HH
