/**
 * @file
 * One window of prepared reference columns.
 *
 * Every static replay path hands engines these windows
 * (coherence::CoherenceEngine::accessPrepared), and every prepared
 * stream is read as a sequence of them (trace/prepared.hh,
 * trace/store.hh).  The struct lives in a header of its own so the
 * coherence layer takes spans without pulling in the trace
 * containers.
 */

#ifndef DIRSIM_TRACE_SPAN_HH
#define DIRSIM_TRACE_SPAN_HH

#include <cstddef>
#include <cstdint>

namespace dirsim::trace
{

/**
 * @p n references as parallel arrays of 32-bit dense block id, 8-bit
 * dense unit index and packed type+flags byte (decode with
 * trace::packedRefType / trace::packedFlags).  An interleaved data
 * span holds no instruction fetches: they are counted in bulk
 * (CoherenceEngine::recordInstrs).  A CpuRefCursor hands out windows
 * of one CPU's timed stream in the same shape, instruction fetches
 * included.
 */
struct PreparedSpan
{
    const std::uint32_t *block = nullptr;
    const std::uint8_t *unit = nullptr;
    const std::uint8_t *typeFlags = nullptr;
    std::size_t n = 0;
};

} // namespace dirsim::trace

#endif // DIRSIM_TRACE_SPAN_HH
