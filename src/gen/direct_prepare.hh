/**
 * @file
 * Generate a synthetic workload straight into prepared form, in
 * memory or into a store file, without materialising a MemoryTrace.
 *
 * Both entry points stream a WorkloadSource through the one lowering
 * every prepared trace comes out of (trace/lowering.hh): batches of
 * generated records, lowered in one pass on the calling thread.  So
 * the result is bit-identical to PreparedTrace::build over
 * generateTrace(cfg), and the spilled file to spillFromSource over a
 * fresh WorkloadSource, by construction (DESIGN.md §16).
 */

#ifndef DIRSIM_GEN_DIRECT_PREPARE_HH
#define DIRSIM_GEN_DIRECT_PREPARE_HH

#include <string>

#include "gen/workload.hh"
#include "trace/prepared.hh"
#include "trace/store.hh"

namespace dirsim::gen
{

/**
 * Generate @p cfg directly into a PreparedTrace decoded with @p opts
 * (timed per-CPU streams included when opts.timedStreams).
 *
 * @throws std::invalid_argument when @p cfg cannot be generated or
 *         the stream does not fit the prepared widths.
 */
trace::PreparedTrace
generatePrepared(const WorkloadConfig &cfg,
                 const trace::PrepareOptions &opts = {});

/**
 * Generate @p cfg straight into a stored-trace file at @p path, in
 * O(chunk) memory.
 *
 * @throws std::invalid_argument / std::runtime_error as
 *         spillFromSource; either way the partial file is removed.
 */
trace::StoredTraceInfo
spillPrepared(const WorkloadConfig &cfg,
              const trace::PrepareOptions &opts, const std::string &path,
              const trace::StoreWriteOptions &store = {});

} // namespace dirsim::gen

#endif // DIRSIM_GEN_DIRECT_PREPARE_HH
