/**
 * @file
 * Single-pass pipelined cold path: generate a synthetic workload
 * straight into PreparedTrace SoA columns.
 *
 * The legacy cold path materialises every reference twice — a 16-byte
 * TraceRecord into a MemoryTrace, then a second two-phase scan
 * (planning + chunk decode) into the ~6-byte prepared columns.  This
 * pipeline does neither: the generator thread streams records out of
 * a WorkloadSource and appends them directly to per-chunk column
 * buffers, and a pool worker packs each finished chunk into its final
 * destination while the next chunk is being generated.
 *
 * Division of labour (the determinism invariant, DESIGN.md §16):
 *
 *  - Generator thread (inherently serial — one RNG stream and the
 *    shared lock state define the interleaving): runs the process
 *    engines, applies the dropLockTests filter, assigns first-seen
 *    dense unit/CPU numbers (the same discipline as sim::UnitMapper
 *    and PreparedTraceBuilder's planning scan), packs the type+flags
 *    byte, counts instruction fetches, and accumulates each chunk's
 *    global column offset.  Everything order-dependent but the block
 *    numbering happens here.
 *
 *  - Pack worker (one, double-buffered): first-touch block numbering
 *    (trace/block_numbering.hh) and per-chunk column packing into the
 *    chunk's precomputed disjoint output range, or the store writer's
 *    chunk append.  Chunks retire in FIFO stream order on the single
 *    worker, so the numbering is deterministic and stays off the
 *    generator thread.  No shared mutable state with the generator
 *    except the two chunk buffers, handed off through the pool's
 *    queue mutex; the numbering is read back only after the last
 *    chunk has retired.
 *
 * The output is bit-identical to generateTrace + PreparedTraceBuilder
 * (and spillFromSource for the store path) by construction; the
 * differential suite in tests/direct_gen_test.cc and the golden
 * digests enforce it.
 */

#ifndef DIRSIM_GEN_DIRECT_PREPARE_HH
#define DIRSIM_GEN_DIRECT_PREPARE_HH

#include <cstdint>
#include <string>

#include "gen/workload.hh"
#include "trace/prepared.hh"
#include "trace/store.hh"

namespace dirsim::gen
{

/** Tuning knobs for the direct generate→prepare pipeline. */
struct DirectGenConfig
{
    /**
     * Kept data references per pack chunk.  Large enough that the
     * handoff cost vanishes, small enough that two in-flight buffers
     * stay cache-resident; matches the prepared builder's decode
     * granularity.
     */
    std::uint64_t chunkRefs = 64 * 1024;
    /**
     * Overlap column packing with generation on one pool worker.
     * Off = pack inline on the generator thread (the
     * deterministic-by-inspection reference the tests compare
     * against; columns are bit-identical either way).
     */
    bool pipeline = true;
};

/**
 * Generate @p cfg directly into a PreparedTrace.
 *
 * Column-for-column identical to
 * PreparedTrace built from generateTrace(cfg) with @p opts.  With
 * opts.timedStreams the per-CPU streams interleave instruction
 * fetches back in — that diagnostic path falls back to the two-phase
 * builder internally.
 *
 * @throws std::invalid_argument when the stream does not fit the
 *         prepared widths (same limits as PreparedTraceBuilder).
 */
trace::PreparedTrace
generatePrepared(const WorkloadConfig &cfg,
                 const trace::PrepareOptions &opts = {},
                 const DirectGenConfig &dg = {});

/**
 * Generate @p cfg straight into a stored-trace file at @p path —
 * byte-identical to spillFromSource over a fresh WorkloadSource, with
 * chunk packing and the writer's digest+flush work overlapped with
 * generation.  Peak memory stays O(chunk).  Falls back to
 * spillFromSource when opts.timedStreams is set.
 *
 * @throws std::invalid_argument / std::runtime_error as
 *         spillFromSource; either way the partial file is removed.
 */
trace::StoredTraceInfo
spillPrepared(const WorkloadConfig &cfg,
              const trace::PrepareOptions &opts, const std::string &path,
              const trace::StoreWriteOptions &store = {},
              const DirectGenConfig &dg = {});

} // namespace dirsim::gen

#endif // DIRSIM_GEN_DIRECT_PREPARE_HH
