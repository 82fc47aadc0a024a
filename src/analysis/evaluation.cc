#include "analysis/evaluation.hh"

#include "coherence/berkeley_engine.hh"
#include "coherence/dragon_engine.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "coherence/multi_limited_engine.hh"
#include "gen/workload.hh"
#include "sim/sweep.hh"
#include "sim/thread_pool.hh"
#include "sim/trace_repo.hh"
#include "trace/filter.hh"
#include "trace/prepared.hh"
#include "trace/trace.hh"

#include <algorithm>
#include <exception>
#include <mutex>

namespace dirsim::analysis
{

namespace
{

unsigned defaultJobs = 1;
bool defaultStream = false;
bool defaultFused = true;
bool defaultMulti = true;

} // namespace

void
setDefaultEvalJobs(unsigned jobs)
{
    defaultJobs = jobs;
}

unsigned
defaultEvalJobs()
{
    return defaultJobs;
}

void
setDefaultStreamReplay(bool stream)
{
    defaultStream = stream;
}

bool
defaultStreamReplay()
{
    return defaultStream;
}

void
setDefaultFusedReplay(bool fused)
{
    defaultFused = fused;
}

bool
defaultFusedReplay()
{
    return defaultFused;
}

void
setDefaultMultiConfig(bool multi)
{
    defaultMulti = multi;
}

bool
defaultMultiConfig()
{
    return defaultMulti;
}

namespace
{

unsigned
unitsFor(const gen::WorkloadConfig &cfg, const EvalOptions &opts)
{
    if (opts.nUnits != 0)
        return opts.nUnits;
    return opts.sim.domain == sim::SharingDomain::Process
               ? cfg.space.nProcesses
               : cfg.space.nCpus;
}

/** Per-run SimConfig: the caller's options (engines are sized from
 *  each trace's numBlocks(), so nothing is derived per workload). */
sim::SimConfig
simConfigFor(const EvalOptions &opts)
{
    sim::SimConfig sc = opts.sim;
    // The A/B hatch: sequential whole-stream passes per engine.
    if (!opts.fusedReplay)
        sc.replayStripRefs = 0;
    return sc;
}

/**
 * Run @p build-provided engines over one workload, optionally with the
 * lock-test filter, and return the simulator for result harvesting.
 */
void
runWorkload(const gen::WorkloadConfig &cfg, const EvalOptions &opts,
            sim::Simulator &simulator)
{
    gen::WorkloadSource source(cfg);
    if (opts.dropLockTests) {
        trace::FilteredSource filtered = trace::dropLockTests(source);
        simulator.run(filtered);
    } else {
        simulator.run(source);
    }
}

/** Builds one engine for a given unit count. */
using EngineFactory =
    std::function<std::unique_ptr<coherence::CoherenceEngine>(unsigned)>;

/**
 * One cell of the workload×engine matrix: the factory that builds
 * its engine, plus the multi-configuration collapse hint.  A nonzero
 * limitedPointers marks the cell as a plain DiriNB run (no directory
 * cache) with that pointer count — runMatrix may then run it as one
 * lane of a shared coherence::MultiLimitedEngine instead of invoking
 * the factory, one lookup per reference for the whole pointer-count
 * row.  The factory stays the fallback (and the only path when
 * opts.multiConfig is off or the run has fewer than two such cells).
 */
struct EngineSpec
{
    EngineFactory make;
    unsigned limitedPointers = 0;
};

/** Replays a shared trace, re-applying the lock-test filter. */
class ReplaySource : public trace::RefSource
{
  public:
    explicit ReplaySource(const trace::MemoryTrace &trace)
        : _base(trace), _filtered(trace::dropLockTests(_base))
    {
    }

    bool next(trace::TraceRecord &rec) override
    {
        return _filtered.next(rec);
    }
    void rewind() override { _filtered.rewind(); }

  private:
    trace::MemoryTraceSource _base;
    trace::FilteredSource _filtered;
};

std::unique_ptr<trace::RefSource>
replaySource(const trace::MemoryTrace &trace, bool dropLockTests)
{
    if (!dropLockTests)
        return std::make_unique<trace::MemoryTraceSource>(trace);
    return std::make_unique<ReplaySource>(trace);
}

/** Decode parameters matching this run's options: the lock-test
 *  filter folds into the decode, so the prepared stream replays with
 *  no per-record filtering at all. */
trace::PrepareOptions
prepareOptionsFor(const EvalOptions &opts)
{
    trace::PrepareOptions prep;
    prep.blockBytes = opts.sim.blockBytes;
    prep.domain = opts.sim.domain;
    prep.dropLockTests = opts.dropLockTests;
    return prep;
}

/**
 * Run a workload×engine matrix and harvest every engine's results.
 *
 * This is the one place serial and parallel evaluation meet.  With
 * opts.jobs == 1 each workload streams once through a Simulator
 * carrying all the engines (the paper's one-pass-per-trace shape).
 * With more jobs the matrix fans out over a SweepRunner: phase one
 * materialises each workload into an immutable MemoryTrace (in
 * parallel, one job per workload), phase two runs one job per
 * (workload, engine) cell, each replaying the shared trace zero-copy.
 * Both paths visit identical reference streams in identical order per
 * engine, so their results are bit-identical.
 *
 * With opts.multiConfig (the default), the DiriNB cells of a run
 * (EngineSpec::limitedPointers) collapse into one shared
 * coherence::MultiLimitedEngine — serially within each workload's
 * Simulator, in parallel within each workload's fused sweep group —
 * and each cell harvests its own lane.  Bit-identical either way.
 *
 * @return results[workload][spec].
 */
std::vector<std::vector<coherence::EngineResults>>
runMatrix(const std::vector<gen::WorkloadConfig> &cfgs,
          const EvalOptions &opts,
          const std::vector<EngineSpec> &specs)
{
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    // The pointer counts that collapse into shared lanes (needs at
    // least two to be worth one extra engine); identical for every
    // workload, so planned once.
    std::vector<unsigned> lanePointers;
    if (opts.multiConfig) {
        for (const EngineSpec &spec : specs)
            if (spec.limitedPointers != 0)
                lanePointers.push_back(spec.limitedPointers);
    }
    const bool collapse = lanePointers.size() >= 2;

    std::vector<std::vector<coherence::EngineResults>> results(
        cfgs.size());
    const unsigned jobs = sim::ThreadPool::resolveThreads(opts.jobs);
    if (jobs <= 1 || cfgs.empty() || specs.empty()) {
        for (std::size_t c = 0; c < cfgs.size(); ++c) {
            const unsigned units = unitsFor(cfgs[c], opts);
            sim::Simulator simulator(simConfigFor(opts));
            coherence::MultiLimitedEngine *multi = nullptr;
            std::vector<std::size_t> lane(specs.size(), kNone);
            std::vector<std::size_t> slot(specs.size(), kNone);
            std::size_t nextSlot = 0;
            std::size_t nextLane = 0;
            for (std::size_t f = 0; f < specs.size(); ++f) {
                if (collapse && specs[f].limitedPointers != 0) {
                    if (!multi) {
                        auto engine = std::make_unique<
                            coherence::MultiLimitedEngine>(
                            units, lanePointers);
                        multi = engine.get();
                        simulator.addEngine(std::move(engine));
                        ++nextSlot;
                    }
                    lane[f] = nextLane++;
                    continue;
                }
                simulator.addEngine(specs[f].make(units));
                slot[f] = nextSlot++;
            }
            if (opts.usePreparedTraces && opts.streamReplay) {
                // Out-of-core: one chunk window resident per replay.
                const auto stored =
                    sim::TraceRepository::global().getStored(
                        cfgs[c], prepareOptionsFor(opts));
                const auto spans = stored->spanCursor();
                simulator.run(*spans);
            } else if (opts.usePreparedTraces) {
                simulator.run(*sim::TraceRepository::global().get(
                    cfgs[c], prepareOptionsFor(opts)));
            } else {
                runWorkload(cfgs[c], opts, simulator);
            }
            for (std::size_t f = 0; f < specs.size(); ++f)
                results[c].push_back(
                    lane[f] != kNone
                        ? multi->laneResults(lane[f])
                        : simulator.engine(slot[f]).results());
        }
        return results;
    }

    // Phase 1: materialise each workload once.  The traces are
    // immutable from here on and shared read-only by every engine
    // job.  On the prepared path the repository supplies decode-once
    // SoA traces (already cached across runs); the raw path
    // materialises throwaway MemoryTraces as before.
    const bool stream = opts.usePreparedTraces && opts.streamReplay;
    std::vector<std::shared_ptr<const trace::PreparedTrace>> prepared(
        cfgs.size());
    std::vector<std::shared_ptr<const trace::StoredTrace>> stored(
        cfgs.size());
    std::vector<trace::MemoryTrace> traces(
        opts.usePreparedTraces ? 0 : cfgs.size());
    {
        std::mutex collect;
        std::exception_ptr firstError;
        sim::ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(jobs, cfgs.size())));
        for (std::size_t c = 0; c < cfgs.size(); ++c) {
            pool.submit([&, c] {
                try {
                    if (stream) {
                        auto ptr =
                            sim::TraceRepository::global().getStored(
                                cfgs[c], prepareOptionsFor(opts));
                        std::lock_guard<std::mutex> lock(collect);
                        stored[c] = std::move(ptr);
                    } else if (opts.usePreparedTraces) {
                        auto ptr = sim::TraceRepository::global().get(
                            cfgs[c], prepareOptionsFor(opts));
                        std::lock_guard<std::mutex> lock(collect);
                        prepared[c] = std::move(ptr);
                    } else {
                        trace::MemoryTrace trace =
                            gen::generateTrace(cfgs[c]);
                        std::lock_guard<std::mutex> lock(collect);
                        traces[c] = std::move(trace);
                    }
                } catch (...) {
                    std::lock_guard<std::mutex> lock(collect);
                    if (!firstError)
                        firstError = std::current_exception();
                }
            });
        }
        pool.wait();
        if (firstError)
            std::rethrow_exception(firstError);
    }

    // Phase 2: one sweep point per (workload, engine) cell.
    sim::SweepRunner runner(jobs);
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        const unsigned units = unitsFor(cfgs[c], opts);
        for (const EngineSpec &spec : specs) {
            sim::SweepPoint point;
            point.name = cfgs[c].name;
            point.sim = simConfigFor(opts);
            // Fuse the scheme axis: all of a workload's cells carry
            // one key (unique per index — names can repeat), so the
            // runner collapses them into a single fused column pass.
            if (opts.fusedReplay)
                point.fuseKey = "workload#" + std::to_string(c);
            // Multi-configuration hint: the runner collapses the
            // fused group's DiriNB cells into one shared-table
            // engine (sim/sweep.hh).  Without fusion the cells stay
            // standalone jobs, where the hint has nothing to pair
            // with — the factory below is always the fallback.
            if (opts.multiConfig) {
                point.multiPointers = spec.limitedPointers;
                point.multiUnits = units;
            }
            point.engines = [&factory = spec.make, units] {
                std::vector<
                    std::unique_ptr<coherence::CoherenceEngine>>
                    engines;
                engines.push_back(factory(units));
                return engines;
            };
            if (stream) {
                // Each job builds its own windowed cursor over the
                // shared store; concurrent cells replay the same file
                // with one chunk resident per job.
                point.spans = [st = stored[c]] {
                    return st->spanCursor();
                };
            } else if (opts.usePreparedTraces) {
                point.prepared = prepared[c];
            } else {
                point.source = [trace = &traces[c],
                                drop = opts.dropLockTests] {
                    return replaySource(*trace, drop);
                };
            }
            runner.add(std::move(point));
        }
    }
    std::vector<sim::SweepPointResult> points = runner.run();
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        for (std::size_t f = 0; f < specs.size(); ++f) {
            results[c].push_back(std::move(
                points[c * specs.size() + f].engines.front()));
        }
    }
    return results;
}

EngineFactory
invalFactory(const directory::DirEntryFactory *dirFactory = nullptr,
             const directory::DirCacheConfig &dirCache = {})
{
    return [dirFactory, dirCache](unsigned units) {
        coherence::InvalEngineConfig cfg;
        cfg.nUnits = units;
        cfg.dirFactory = dirFactory;
        cfg.dirCache = dirCache;
        return std::make_unique<coherence::InvalEngine>(cfg);
    };
}

EngineFactory
limitedFactory(unsigned nPointers,
               const directory::DirCacheConfig &dirCache = {})
{
    return [nPointers, dirCache](unsigned units) {
        return std::make_unique<coherence::LimitedEngine>(
            units, nPointers, dirCache);
    };
}

/**
 * A DiriNB cell.  Collapsible into a multi-config lane only without
 * a directory cache: eviction state is per-configuration, so finite-
 * cache runs always use the independent engine.
 */
EngineSpec
limitedSpec(unsigned nPointers,
            const directory::DirCacheConfig &dirCache = {})
{
    return {limitedFactory(nPointers, dirCache),
            dirCache.enabled ? 0u : nPointers};
}

} // namespace

Evaluation
evaluateWorkloads(const std::vector<gen::WorkloadConfig> &cfgs,
                  const EvalOptions &opts)
{
    const std::vector<EngineSpec> specs = {
        {invalFactory(nullptr, opts.dirCache)},
        limitedSpec(1, opts.dirCache),
        {[](unsigned units) {
            return std::make_unique<coherence::DragonEngine>(units);
        }},
    };
    const auto matrix = runMatrix(cfgs, opts, specs);

    Evaluation eval;
    eval.average.trace = "average";
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        TraceEvaluation te;
        te.trace = cfgs[c].name;
        te.inval = matrix[c][0];
        te.dir1nb = matrix[c][1];
        te.dragon = matrix[c][2];

        eval.average.inval.merge(te.inval);
        eval.average.dir1nb.merge(te.dir1nb);
        eval.average.dragon.merge(te.dragon);
        eval.traces.push_back(std::move(te));
    }
    return eval;
}

Evaluation
evaluateStandard(bool fullSize)
{
    return evaluateWorkloads(gen::standardWorkloads(fullSize));
}

std::vector<trace::TraceCharacteristics>
characterizeWorkloads(const std::vector<gen::WorkloadConfig> &cfgs)
{
    std::vector<trace::TraceCharacteristics> out;
    for (const gen::WorkloadConfig &cfg : cfgs) {
        gen::WorkloadSource source(cfg);
        out.push_back(trace::characterize(source, cfg.name,
                                          cfg.space.blockBytes));
    }
    return out;
}

std::vector<coherence::EngineResults>
limitedSweep(const std::vector<gen::WorkloadConfig> &cfgs,
             const std::vector<unsigned> &pointerCounts,
             const EvalOptions &opts)
{
    std::vector<EngineSpec> specs;
    for (unsigned i : pointerCounts)
        specs.push_back(limitedSpec(i, opts.dirCache));
    const auto matrix = runMatrix(cfgs, opts, specs);

    std::vector<coherence::EngineResults> merged(pointerCounts.size());
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        for (std::size_t e = 0; e < pointerCounts.size(); ++e) {
            merged[e].name = matrix[c][e].name;
            merged[e].merge(matrix[c][e]);
        }
    }
    return merged;
}

coherence::EngineResults
invalWithDirectory(const std::vector<gen::WorkloadConfig> &cfgs,
                   const directory::DirEntryFactory &factory,
                   const EvalOptions &opts)
{
    const auto matrix = runMatrix(
        cfgs, opts, {{invalFactory(&factory, opts.dirCache)}});

    coherence::EngineResults merged;
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        merged.name = matrix[c][0].name;
        merged.merge(matrix[c][0]);
    }
    return merged;
}

coherence::EngineResults
berkeleyResults(const std::vector<gen::WorkloadConfig> &cfgs,
                const EvalOptions &opts)
{
    const auto matrix = runMatrix(
        cfgs, opts, {{[](unsigned units) {
            return std::make_unique<coherence::BerkeleyEngine>(units);
        }}});

    coherence::EngineResults merged;
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        merged.name = matrix[c][0].name;
        merged.merge(matrix[c][0]);
    }
    return merged;
}

coherence::EngineResults
invalWithFiniteCaches(const std::vector<gen::WorkloadConfig> &cfgs,
                      const mem::CacheGeometry &geometry,
                      const EvalOptions &opts)
{
    const auto matrix = runMatrix(
        cfgs, opts, {{[&geometry](unsigned units) {
            coherence::InvalEngineConfig cfg;
            cfg.nUnits = units;
            cfg.cacheFactory = [&geometry]() {
                return std::make_unique<mem::SetAssocTagStore>(
                    geometry);
            };
            return std::make_unique<coherence::InvalEngine>(cfg);
        }}});

    coherence::EngineResults merged;
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        merged.name = matrix[c][0].name;
        merged.merge(matrix[c][0]);
    }
    return merged;
}

coherence::EngineResults
invalWithDirCache(const std::vector<gen::WorkloadConfig> &cfgs,
                  const directory::DirCacheConfig &dirCache,
                  const EvalOptions &opts)
{
    const auto matrix =
        runMatrix(cfgs, opts, {{invalFactory(nullptr, dirCache)}});

    coherence::EngineResults merged;
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        merged.name = matrix[c][0].name;
        merged.merge(matrix[c][0]);
    }
    return merged;
}

coherence::EngineResults
limitedWithDirCache(const std::vector<gen::WorkloadConfig> &cfgs,
                    unsigned nPointers,
                    const directory::DirCacheConfig &dirCache,
                    const EvalOptions &opts)
{
    const auto matrix =
        runMatrix(cfgs, opts, {limitedSpec(nPointers, dirCache)});

    coherence::EngineResults merged;
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        merged.name = matrix[c][0].name;
        merged.merge(matrix[c][0]);
    }
    return merged;
}

} // namespace dirsim::analysis
