#include "analysis/evaluation.hh"

#include "coherence/berkeley_engine.hh"
#include "coherence/dragon_engine.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "coherence/multi_limited_engine.hh"
#include "gen/workload.hh"
#include "sim/sweep.hh"
#include "sim/trace_repo.hh"
#include "trace/prepared.hh"
#include "trace/store.hh"

namespace dirsim::analysis
{

namespace
{

unsigned defaultJobs = 1;
bool defaultStream = false;

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

/** One workload's shared trace: in-memory columns, or a stored file
 *  replayed through windowed cursors (opts.streamReplay). */
struct WorkloadTrace
{
    std::shared_ptr<const trace::PreparedTrace> prepared;
    std::shared_ptr<const trace::StoredTrace> stored;
};

} // namespace

std::vector<std::vector<coherence::EngineResults>>
runMatrix(const std::vector<gen::WorkloadConfig> &cfgs,
          const EvalOptions &opts,
          const std::vector<EngineSpec> &specs)
{
    // Phase 1: fetch each workload once.  The traces are immutable
    // from here on and shared read-only by every cell.
    const trace::PrepareOptions prep = prepareOptionsFor(opts);
    std::vector<std::function<WorkloadTrace()>> fetches;
    fetches.reserve(cfgs.size());
    for (const gen::WorkloadConfig &cfg : cfgs) {
        fetches.push_back([&cfg, &prep, stream = opts.streamReplay] {
            sim::TraceRepository &repo = sim::TraceRepository::global();
            if (stream)
                return WorkloadTrace{nullptr, repo.getStored(cfg, prep)};
            return WorkloadTrace{repo.get(cfg, prep), nullptr};
        });
    }
    const std::vector<WorkloadTrace> traces =
        sim::runOrdered<WorkloadTrace>(opts.jobs, fetches);

    // Phase 2: one job per workload.  Two or more DiriNB columns
    // collapse into the lanes of one MultiLimitedEngine.
    std::vector<unsigned> lanePointers;
    for (const EngineSpec &spec : specs) {
        if (spec.limitedPointers != 0)
            lanePointers.push_back(spec.limitedPointers);
    }
    const bool collapse = lanePointers.size() >= 2;
    using Row = std::vector<coherence::EngineResults>;
    std::vector<std::function<Row()>> tasks;
    tasks.reserve(cfgs.size());
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        tasks.push_back([&, c] {
            const unsigned units = unitsFor(cfgs[c], opts);
            sim::Simulator simulator(opts.sim);
            coherence::MultiLimitedEngine *multi = nullptr;
            // Per spec: its engine's index in the simulator, or its
            // lane in the shared engine.
            std::vector<std::size_t> slot(specs.size());
            std::size_t lane = 0;
            for (std::size_t s = 0; s < specs.size(); ++s) {
                if (collapse && specs[s].limitedPointers != 0) {
                    if (!multi) {
                        auto engine = std::make_unique<
                            coherence::MultiLimitedEngine>(units,
                                                           lanePointers);
                        multi = engine.get();
                        simulator.addEngine(std::move(engine));
                    }
                    slot[s] = lane++;
                    continue;
                }
                slot[s] = simulator.numEngines();
                simulator.addEngine(specs[s].make(units));
            }
            // Each streamed job gets its own windowed cursor over the
            // shared store: one chunk resident per job.
            if (traces[c].stored)
                simulator.run(*traces[c].stored->spanCursor());
            else
                simulator.run(*traces[c].prepared);

            Row row;
            row.reserve(specs.size());
            for (std::size_t s = 0; s < specs.size(); ++s) {
                row.push_back(collapse && specs[s].limitedPointers != 0
                                  ? multi->laneResults(slot[s])
                                  : simulator.engine(slot[s]).results());
            }
            return row;
        });
    }
    return sim::runOrdered<Row>(opts.jobs, tasks);
}

namespace
{

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

/** Run one engine over every workload and merge its results. */
coherence::EngineResults
runMerged(const std::vector<gen::WorkloadConfig> &cfgs,
          const EvalOptions &opts, EngineSpec spec)
{
    const auto matrix = runMatrix(cfgs, opts, {std::move(spec)});
    coherence::EngineResults merged;
    for (const auto &row : matrix) {
        merged.name = row[0].name;
        merged.merge(row[0]);
    }
    return merged;
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
    return runMerged(cfgs, opts, {invalFactory(&factory, opts.dirCache)});
}

coherence::EngineResults
berkeleyResults(const std::vector<gen::WorkloadConfig> &cfgs,
                const EvalOptions &opts)
{
    return runMerged(cfgs, opts, {[](unsigned units) {
        return std::make_unique<coherence::BerkeleyEngine>(units);
    }});
}

coherence::EngineResults
invalWithFiniteCaches(const std::vector<gen::WorkloadConfig> &cfgs,
                      const mem::CacheGeometry &geometry,
                      const EvalOptions &opts)
{
    return runMerged(cfgs, opts, {[&geometry](unsigned units) {
        coherence::InvalEngineConfig cfg;
        cfg.nUnits = units;
        cfg.finiteCaches = geometry;
        return std::make_unique<coherence::InvalEngine>(cfg);
    }});
}

coherence::EngineResults
invalWithDirCache(const std::vector<gen::WorkloadConfig> &cfgs,
                  const directory::DirCacheConfig &dirCache,
                  const EvalOptions &opts)
{
    return runMerged(cfgs, opts, {invalFactory(nullptr, dirCache)});
}

coherence::EngineResults
limitedWithDirCache(const std::vector<gen::WorkloadConfig> &cfgs,
                    unsigned nPointers,
                    const directory::DirCacheConfig &dirCache,
                    const EvalOptions &opts)
{
    return runMerged(cfgs, opts, limitedSpec(nPointers, dirCache));
}

} // namespace dirsim::analysis
