/**
 * @file
 * Evaluation runner: executes the paper's simulation campaign.
 *
 * One Evaluation holds, per trace and averaged, the results of the
 * three state-change engines the paper's protocols reduce to:
 *
 *  - inval:  multiple-clean / single-dirty write-invalidate (costs
 *            Dir0B, WTI, DirnNB, DiriB, Berkeley and Yen-Fu);
 *  - dir1nb: the single-copy engine;
 *  - dragon: the update engine.
 *
 * Helper runners cover the variants that need their own state
 * dynamics: the DiriNB pointer sweep, directory-organisation shadows,
 * lock-test filtering (Section 5.2), finite caches, and processor-
 * rather than process-based sharing.
 */

#ifndef DIRSIM_ANALYSIS_EVALUATION_HH
#define DIRSIM_ANALYSIS_EVALUATION_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coherence/engine.hh"
#include "coherence/results.hh"
#include "directory/dir_cache.hh"
#include "directory/entry.hh"
#include "gen/workloads.hh"
#include "mem/set_assoc.hh"
#include "sim/simulator.hh"
#include "trace/characterize.hh"

namespace dirsim::analysis
{

/** Engine results for one trace. */
struct TraceEvaluation
{
    std::string trace;
    coherence::EngineResults inval;
    coherence::EngineResults dir1nb;
    coherence::EngineResults dragon;
};

/** Results for a set of traces plus their merge. */
struct Evaluation
{
    std::vector<TraceEvaluation> traces;
    /** All traces merged (the paper reports averages across traces). */
    TraceEvaluation average;
};

/**
 * @name Process-wide default for EvalOptions::jobs.
 *
 * The extension studies build their EvalOptions internally; setting
 * the default once (e.g.\ from a --jobs flag) fans every defaulted
 * evaluation in the process out over sim::runOrdered without
 * threading a parameter through each study's signature.  Explicitly
 * constructed options can still override the field.  Not thread-safe:
 * set it during start-up, before evaluations run.
 * @{
 */
void setDefaultEvalJobs(unsigned jobs);
unsigned defaultEvalJobs();
/** @} */

/**
 * @name Process-wide default for EvalOptions::streamReplay.
 *
 * Same pattern as setDefaultEvalJobs(): a driver that enables the
 * out-of-core trace cache (e.g.\ from --trace-cache-dir) flips this
 * once and every defaulted evaluation streams from disk.  Requires
 * sim::TraceRepository::global() to have a configured disk tier.
 * @{
 */
void setDefaultStreamReplay(bool stream);
bool defaultStreamReplay();
/** @} */

/** Options for evaluation runs. */
struct EvalOptions
{
    sim::SimConfig sim;
    /** Drop spin-lock test reads first (the Section 5.2 experiment). */
    bool dropLockTests = false;
    /** Units for the engines; 0 = use each workload's process count. */
    unsigned nUnits = 0;
    /**
     * Jobs for the run.  Every evaluation replays each workload's
     * prepared trace from the process-wide sim::TraceRepository once,
     * through one sim::Simulator holding all of the run's engines,
     * with its DiriNB cells collapsed into one
     * coherence::MultiLimitedEngine unless a finite directory cache
     * makes their state per-configuration.  1 (the default) runs that
     * as one job on the calling thread; more fan the workloads out
     * over sim::runOrdered, one task per workload (runMatrix); 0
     * means one thread per hardware thread.  Results are
     * bit-identical at every job count (the test suite enforces
     * this).
     *
     * Initialised from defaultEvalJobs() (1 unless a driver raised
     * it).
     */
    unsigned jobs = defaultEvalJobs();
    /**
     * Replay each workload as an out-of-core StoredTrace via the
     * repository's disk tier (sim::TraceRepository::getStored)
     * instead of holding the prepared columns in memory: peak RSS per
     * replay is one chunk window, and warm cache files carry the
     * generate+decode work across processes.  Results are
     * bit-identical to the in-memory prepared path (golden suite).
     * Requires the global repository's disk cache to be configured.
     * Initialised from defaultStreamReplay().
     */
    bool streamReplay = defaultStreamReplay();
    /**
     * Finite directory-entry cache applied to the directory-based
     * engines (inval and DiriNB; the snoopy engines have no directory
     * to cache).  Disabled by default — the paper's entry-per-block
     * model.
     */
    directory::DirCacheConfig dirCache;
};

/** Builds one engine for a given unit count. */
using EngineFactory =
    std::function<std::unique_ptr<coherence::CoherenceEngine>(unsigned)>;

/**
 * One column of the workload×engine matrix: the factory that builds
 * its engine, plus the multi-configuration collapse hint.  A nonzero
 * limitedPointers marks the column as a plain DiriNB run (no
 * directory cache) with that pointer count; when a matrix has two or
 * more such columns, runMatrix runs them as the lanes of one shared
 * coherence::MultiLimitedEngine instead of invoking their factories,
 * one lookup per reference for the whole pointer-count row.
 */
struct EngineSpec
{
    EngineFactory make;
    unsigned limitedPointers = 0;
};

/**
 * Run every engine of @p specs over every workload of @p cfgs and
 * harvest their results: the one runner every evaluation below goes
 * through.
 *
 * Phase one fetches each workload's trace from
 * sim::TraceRepository::global() — in-memory columns, or a stored
 * file under opts.streamReplay — one job per workload.  Phase two
 * runs one job per workload: a single Simulator carries the
 * workload's engines in spec order (the collapsed DiriNB lanes sit
 * where the first limitedPointers column is) and replays the trace
 * once, fused.  Both phases collect through sim::runOrdered, which at
 * opts.jobs == 1 runs them in order on the calling thread; more jobs
 * change only the order in which workloads complete, so results are
 * bit-identical at every job count.
 *
 * @return results[workload][spec].
 * @throws whatever a failing job threw (the earliest workload's
 *         failure, after every job has completed).
 */
std::vector<std::vector<coherence::EngineResults>>
runMatrix(const std::vector<gen::WorkloadConfig> &cfgs,
          const EvalOptions &opts, const std::vector<EngineSpec> &specs);

/** Run the three standard engines over each workload. */
Evaluation evaluateWorkloads(const std::vector<gen::WorkloadConfig> &cfgs,
                             const EvalOptions &opts = EvalOptions{});

/** The paper's campaign: pops, thor and pero. */
Evaluation evaluateStandard(bool fullSize = false);

/** Characterise each workload (Table 3). */
std::vector<trace::TraceCharacteristics>
characterizeWorkloads(const std::vector<gen::WorkloadConfig> &cfgs);

/**
 * Run the DiriNB engine for each pointer count in @p pointerCounts,
 * merged across the workloads.
 *
 * @return One merged EngineResults per pointer count, in order.
 */
std::vector<coherence::EngineResults>
limitedSweep(const std::vector<gen::WorkloadConfig> &cfgs,
             const std::vector<unsigned> &pointerCounts,
             const EvalOptions &opts = EvalOptions{});

/**
 * Run the invalidation engine shadowing a real directory organisation,
 * merged across workloads; the result's dir* counters report what that
 * organisation would have sent.
 */
coherence::EngineResults
invalWithDirectory(const std::vector<gen::WorkloadConfig> &cfgs,
                   const directory::DirEntryFactory &factory,
                   const EvalOptions &opts = EvalOptions{});

/**
 * Run the real Berkeley Ownership engine, merged across workloads
 * (the clean/dirty miss split differs from the invalidation model
 * because ownership persists across read misses).
 */
coherence::EngineResults
berkeleyResults(const std::vector<gen::WorkloadConfig> &cfgs,
                const EvalOptions &opts = EvalOptions{});

/**
 * Run the invalidation engine with finite caches of the given
 * geometry, merged across workloads.
 */
coherence::EngineResults
invalWithFiniteCaches(const std::vector<gen::WorkloadConfig> &cfgs,
                      const mem::CacheGeometry &geometry,
                      const EvalOptions &opts = EvalOptions{});

/**
 * Run the invalidation engine behind a finite directory cache,
 * merged across workloads.  Equivalent to setting opts.dirCache but
 * keeps call sites that sweep cache sizes compact.
 */
coherence::EngineResults
invalWithDirCache(const std::vector<gen::WorkloadConfig> &cfgs,
                  const directory::DirCacheConfig &dirCache,
                  const EvalOptions &opts = EvalOptions{});

/**
 * Run the DiriNB engine behind a finite directory cache, merged
 * across workloads.
 */
coherence::EngineResults
limitedWithDirCache(const std::vector<gen::WorkloadConfig> &cfgs,
                    unsigned nPointers,
                    const directory::DirCacheConfig &dirCache,
                    const EvalOptions &opts = EvalOptions{});

} // namespace dirsim::analysis

#endif // DIRSIM_ANALYSIS_EVALUATION_HH
