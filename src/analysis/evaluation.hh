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
 * evaluation in the process out over the sweep engine without
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

/**
 * @name Process-wide default for EvalOptions::fusedReplay.
 *
 * Same pattern again: the A/B escape hatch (--no-fused on the
 * drivers) flips this once to make every defaulted evaluation replay
 * engines sequentially, pre-fusion style, for comparison runs.
 * @{
 */
void setDefaultFusedReplay(bool fused);
bool defaultFusedReplay();
/** @} */

/**
 * @name Process-wide default for EvalOptions::multiConfig.
 *
 * Same pattern again: the multi-configuration A/B hatch (--no-multi
 * on the drivers) flips this once to make every defaulted evaluation
 * run its DiriNB cells as independent LimitedEngines, pre-collapse
 * style, for comparison runs.
 * @{
 */
void setDefaultMultiConfig(bool multi);
bool defaultMultiConfig();
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
     * Worker threads for the run.  1 (the default) streams every
     * workload serially through one Simulator, exactly as the paper's
     * single simulation pass does.  >1 fans the workload×engine
     * matrix out over a sim::SweepRunner: each workload is
     * materialised once into an immutable MemoryTrace, shared
     * zero-copy across per-engine jobs.  0 means one thread per
     * hardware thread.  Parallel runs are bit-identical to serial
     * ones (the test suite enforces this).
     *
     * Initialised from defaultEvalJobs() (1 unless a driver raised
     * it).
     */
    unsigned jobs = defaultEvalJobs();
    /**
     * Replay decode-once prepared traces from the process-wide
     * sim::TraceRepository instead of re-generating and re-decoding
     * each workload per run.  Results are bit-identical either way
     * (the golden suite enforces it); the flag exists so benches can
     * A/B the raw path.
     */
    bool usePreparedTraces = true;
    /**
     * Replay each workload as an out-of-core StoredTrace via the
     * repository's disk tier (sim::TraceRepository::getStored)
     * instead of holding the prepared columns in memory: peak RSS per
     * replay is one chunk window, and warm cache files carry the
     * generate+decode work across processes.  Results are
     * bit-identical to the in-memory prepared path (golden suite).
     * Only meaningful with usePreparedTraces; requires the global
     * repository's disk cache to be configured.  Initialised from
     * defaultStreamReplay().
     */
    bool streamReplay = defaultStreamReplay();
    /**
     * Fused multi-scheme replay (sim/fused_replay.hh): one strip-
     * mined pass over each workload's prepared columns drives every
     * engine of the run, and parallel runs group the scheme axis by
     * workload so each SweepRunner job fuses all of a workload's
     * engines.  Bit-identical to sequential replay (golden suite);
     * the flag exists as the A/B escape hatch.  Initialised from
     * defaultFusedReplay() (true unless a driver lowered it).
     */
    bool fusedReplay = defaultFusedReplay();
    /**
     * Collapse a run's DiriNB cells into one
     * coherence::MultiLimitedEngine: one shared block table whose
     * entries hold every pointer count's state side by side, so the
     * Dir1NB…Dir8NB axis costs one lookup + k lane updates per
     * reference instead of k lookups.  Applies wherever a run (serial)
     * or a fused sweep group (parallel) carries at least two DiriNB
     * cells; results are bit-identical to independent engines (golden
     * + differential suites).  Automatically falls back to
     * independent LimitedEngines when a finite directory cache is
     * configured — eviction state is per-configuration, which would
     * undo the sharing.  Initialised from defaultMultiConfig() (true
     * unless a driver lowered it via --no-multi).
     */
    bool multiConfig = defaultMultiConfig();
    /**
     * Finite directory-entry cache applied to the directory-based
     * engines (inval and DiriNB; the snoopy engines have no directory
     * to cache).  Disabled by default — the paper's entry-per-block
     * model.
     */
    directory::DirCacheConfig dirCache;
};

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
