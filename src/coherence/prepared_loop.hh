/**
 * @file
 * Shared dispatch loop for accessPrepared overrides.
 *
 * Every engine's accessPrepared is the same loop with a different
 * body: per reference, make the block addressable (cover()), read the
 * type out of the packed type+flags byte, and run the protocol's
 * access logic against the per-block table — the shape access() has.
 * Dispatch order is exactly span order.
 *
 * Usage, from inside an engine member function (the lambdas capture
 * `this`, so private members stay private):
 *
 *   forEachPreparedRef(
 *       span, [this](mem::BlockId block) { _blocks.cover(block); },
 *       [this](unsigned u, trace::RefType t, mem::BlockId b) {
 *           step<NoOutcome>(u, t, b);
 *       });
 *
 * The dispatch calls the engine's own non-virtual handlers, which
 * inline into the loop; NoOutcome (coherence/outcome.hh) keeps the
 * per-reference outcome out of it.
 */

#ifndef DIRSIM_COHERENCE_PREPARED_LOOP_HH
#define DIRSIM_COHERENCE_PREPARED_LOOP_HH

#include <cstddef>
#include <cstdint>

#include "trace/record.hh"
#include "trace/span.hh"

namespace dirsim::coherence
{

/**
 * Dispatch every reference of @p span, in order: @p cover (block),
 * then @p access (unit, type, block).
 */
template <typename CoverFn, typename AccessFn>
inline void
forEachPreparedRef(const trace::PreparedSpan &span, CoverFn &&cover,
                   AccessFn &&access)
{
    // Locals, not span's fields: the handlers' stores may alias the
    // span, which would reload every field per reference.
    const std::uint32_t *const block = span.block;
    const std::uint8_t *const unit = span.unit;
    const std::uint8_t *const typeFlags = span.typeFlags;
    const std::size_t n = span.n;
    for (std::size_t i = 0; i < n; ++i) {
        cover(block[i]);
        access(unit[i], trace::packedRefType(typeFlags[i]), block[i]);
    }
}

} // namespace dirsim::coherence

#endif // DIRSIM_COHERENCE_PREPARED_LOOP_HH
