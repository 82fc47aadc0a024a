/**
 * @file
 * Hot-path throughput harness: raw engine replay speed in refs/sec.
 *
 * The exhibit benches measure whole evaluations (workload generation
 * plus simulation); this harness isolates the per-reference hot path
 * that PR 3's flat-storage refactor targets.  It materialises one
 * workload trace up front, then replays it through each engine
 * variant and through one timed-bus point, timing only the replay.
 * Results (refs/sec, resident-block count per engine, peak RSS) land
 * in a machine-readable JSON file so CI and the PR description can
 * compare before/after numbers.
 *
 * Unlike the exhibit benches this is a plain main(): google-benchmark
 * adds nothing to a best-of-N wall-clock measurement of a
 * deterministic replay loop.
 *
 * Each engine runs twice: once from the raw MemoryTrace (per-record
 * unit/block mapping on the replay path) and once from a
 * trace::PreparedTrace (decode-once SoA columns), so the decode-once
 * speedup is visible per engine.  The one-time decode cost is timed
 * and reported separately.
 *
 * `--sweep` switches to an end-to-end campaign measurement instead:
 * the fig2/fig3-style evaluation (standard engines, DiriNB pointer
 * sweep, Berkeley) runs once with prepared traces disabled and once
 * through the sim::TraceRepository, and BENCH_sweep.json records the
 * wall clocks, the decode-vs-replay split and the speedup.
 *
 * Flags:
 *   --refs N       trace length (default 2,000,000; ignored by --sweep,
 *                  which uses the standard quarter-size workloads)
 *   --reps N       repetitions per point, best-of (default 3)
 *   --out PATH     JSON output path (default BENCH_hotpath.json, or
 *                  BENCH_sweep.json in --sweep mode)
 *   --floor R      fail (exit 1) if any reported replay point runs
 *                  below R refs/sec — or, in --sweep mode, if the
 *                  prepared-over-raw speedup falls below R
 *                  (default 0 = disabled)
 *   --sweep        measure the end-to-end campaign instead of
 *                  single-engine replay
 *   --no-fused     sequential whole-stream replay per engine instead
 *                  of the fused multi-scheme column walk (A/B hatch;
 *                  results are bit-identical either way)
 *   --no-multi     independent LimitedEngines for the DiriNB row
 *                  instead of the shared-table multi-configuration
 *                  engine (A/B hatch; bit-identical either way)
 *   --multi-floor R  fail (exit 1) if the multi-configuration row's
 *                  speedup over the independent DiriNB engines falls
 *                  below R (sweep mode; default 0 = disabled)
 *   --schemes CSV  restrict the sweep's per-scheme attribution (and
 *                  the multi-config lanes) to the named schemes;
 *                  unknown names are a hard error (sweep mode)
 *   --no-direct-gen  route repository builds through the legacy
 *                  generateTrace + two-phase decode instead of the
 *                  single-pass direct pipeline, and skip the sweep's
 *                  cold attribution pass (A/B hatch; the prepared
 *                  columns are bit-identical either way)
 *   --gen-chunk-refs N  data references per direct-pipeline pack
 *                  chunk (default 65536)
 *   --cold-floor R  fail (exit 1) if the cold generate+prepare
 *                  speedup of the direct pipeline over the legacy
 *                  two-pass path falls below R (sweep mode; default
 *                  0 = disabled; fails if --no-direct-gen disabled
 *                  the cold pass)
 *   --trace-cache-dir PATH    persistent trace cache directory; the
 *                  prepared pass streams from warm store files and
 *                  spills on cold misses (sweep mode)
 *   --trace-cache-budget MiB  disk-tier byte budget (default 4096)
 *   --stream-chunk-refs N     refs per streamed chunk (bounds replay
 *                  RSS; default 1048576)
 *   --repo-stats   print the trace-repository counters after the run
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/evaluation.hh"
#include "cli/parse.hh"
#include "coherence/berkeley_engine.hh"
#include "coherence/dragon_engine.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "coherence/multi_limited_engine.hh"
#include "coherence/wti_engine.hh"
#include "directory/full_map.hh"
#include "gen/workload.hh"
#include "gen/workloads.hh"
#include "gen/direct_prepare.hh"
#include "sim/fused_replay.hh"
#include "sim/simulator.hh"
#include "sim/trace_repo.hh"
#include "timing/timed_bus.hh"
#include "trace/prepared.hh"
#include "trace/trace.hh"
#include "util/thread_pool.hh"

#include "bench_common.hh"

namespace
{

using namespace dirsim;

struct Options
{
    std::uint64_t refs = 2'000'000;
    unsigned reps = 3;
    std::string out;
    double floor = 0.0;
    bool sweep = false;
    std::string traceCacheDir;
    std::uint64_t traceCacheBudgetMiB = 4096;
    std::uint64_t streamChunkRefs = trace::kDefaultChunkRefs;
    bool repoStats = false;
    bool fused = true;
    bool multi = true;
    double multiFloor = 0.0;
    bool directGen = true;
    std::uint64_t genChunkRefs = 0; //!< 0 = pipeline default.
    double coldFloor = 0.0;
    std::vector<std::string> schemes; //!< Empty = all.
};

/** The sweep campaign's scheme vocabulary (attribution row order). */
const std::vector<std::string> kSweepSchemes = {
    "inval", "dir1nb", "dir2nb", "dir4nb",
    "dir8nb", "dragon", "berkeley"};

struct PointResult
{
    std::string name;
    double seconds = 0.0;    //!< Best-of-reps replay wall clock.
    double refsPerSec = 0.0;
    std::uint64_t refs = 0;
    std::uint64_t blocksTracked = 0;
};

Options
parseOptions(int argc, char **argv)
{
    Options opts;
    for (int a = 1; a < argc; ++a) {
        const auto want = [&](const char *flag) -> const char * {
            if (a + 1 >= argc) {
                std::cerr << "error: " << flag
                          << " requires a value\n";
                std::exit(2);
            }
            return argv[++a];
        };
        if (std::strcmp(argv[a], "--refs") == 0) {
            opts.refs = cli::parseUnsigned(want("--refs"), "--refs");
        } else if (std::strcmp(argv[a], "--reps") == 0) {
            opts.reps = cli::parseUnsignedInRange(
                want("--reps"), "--reps", 1, 100);
        } else if (std::strcmp(argv[a], "--out") == 0) {
            opts.out = want("--out");
        } else if (std::strcmp(argv[a], "--floor") == 0) {
            opts.floor = cli::parseDoubleInRange(
                want("--floor"), "--floor", 0.0,
                std::numeric_limits<double>::max());
        } else if (std::strcmp(argv[a], "--sweep") == 0) {
            opts.sweep = true;
        } else if (std::strcmp(argv[a], "--trace-cache-dir") == 0) {
            opts.traceCacheDir = want("--trace-cache-dir");
        } else if (std::strcmp(argv[a], "--trace-cache-budget") ==
                   0) {
            opts.traceCacheBudgetMiB = cli::parseUnsignedInRange(
                want("--trace-cache-budget"), "--trace-cache-budget",
                1, 16u * 1024 * 1024);
        } else if (std::strcmp(argv[a], "--stream-chunk-refs") == 0) {
            opts.streamChunkRefs = cli::parseUnsignedInRange(
                want("--stream-chunk-refs"), "--stream-chunk-refs",
                1, 1u << 31);
        } else if (std::strcmp(argv[a], "--repo-stats") == 0) {
            opts.repoStats = true;
        } else if (std::strcmp(argv[a], "--no-fused") == 0) {
            opts.fused = false;
        } else if (std::strcmp(argv[a], "--no-multi") == 0) {
            opts.multi = false;
        } else if (std::strcmp(argv[a], "--multi-floor") == 0) {
            opts.multiFloor = cli::parseDoubleInRange(
                want("--multi-floor"), "--multi-floor", 0.0,
                std::numeric_limits<double>::max());
        } else if (std::strcmp(argv[a], "--no-direct-gen") == 0) {
            opts.directGen = false;
        } else if (std::strcmp(argv[a], "--gen-chunk-refs") == 0) {
            opts.genChunkRefs = cli::parseUnsignedInRange(
                want("--gen-chunk-refs"), "--gen-chunk-refs", 1,
                1u << 31);
        } else if (std::strcmp(argv[a], "--cold-floor") == 0) {
            opts.coldFloor = cli::parseDoubleInRange(
                want("--cold-floor"), "--cold-floor", 0.0,
                std::numeric_limits<double>::max());
        } else if (std::strcmp(argv[a], "--schemes") == 0) {
            opts.schemes = cli::parseNameList(
                want("--schemes"), "--schemes", kSweepSchemes);
        } else {
            std::cerr << "error: unknown flag '" << argv[a] << "'\n"
                      << "usage: bench_hotpath [--refs N] [--reps N] "
                         "[--out PATH] [--floor R] [--sweep] "
                         "[--schemes CSV] "
                         "[--no-fused] [--no-multi] "
                         "[--multi-floor R] [--no-direct-gen] "
                         "[--gen-chunk-refs N] [--cold-floor R] "
                         "[--trace-cache-dir PATH] "
                         "[--trace-cache-budget MiB] "
                         "[--stream-chunk-refs N] [--repo-stats]\n";
            std::exit(2);
        }
    }
    if (!opts.schemes.empty() && !opts.sweep) {
        std::cerr << "error: --schemes only applies to --sweep\n";
        std::exit(2);
    }
    if (opts.multiFloor > 0.0 && !opts.sweep) {
        std::cerr << "error: --multi-floor only applies to --sweep\n";
        std::exit(2);
    }
    if (opts.coldFloor > 0.0 && !opts.sweep) {
        std::cerr << "error: --cold-floor only applies to --sweep\n";
        std::exit(2);
    }
    if (opts.out.empty())
        opts.out = opts.sweep ? "BENCH_sweep.json"
                              : "BENCH_hotpath.json";
    return opts;
}

/** Engine variants on the replay hot path, most important first
 *  (the --floor gate checks every reported point). */
using EngineMaker =
    std::function<std::unique_ptr<coherence::CoherenceEngine>()>;

std::vector<std::pair<std::string, EngineMaker>>
enginePoints(unsigned units)
{
    static const directory::FullMapFactory fullMap;
    return {
        {"inval",
         [units] {
             coherence::InvalEngineConfig cfg;
             cfg.nUnits = units;
             return std::make_unique<coherence::InvalEngine>(cfg);
         }},
        {"inval+fullmap",
         [units] {
             coherence::InvalEngineConfig cfg;
             cfg.nUnits = units;
             cfg.dirFactory = &fullMap;
             return std::make_unique<coherence::InvalEngine>(cfg);
         }},
        {"dir1nb",
         [units] {
             return std::make_unique<coherence::LimitedEngine>(units,
                                                               1);
         }},
        {"wti",
         [units] {
             return std::make_unique<coherence::WtiEngine>(units,
                                                           true);
         }},
        {"dragon",
         [units] {
             return std::make_unique<coherence::DragonEngine>(units);
         }},
        {"berkeley",
         [units] {
             return std::make_unique<coherence::BerkeleyEngine>(units);
         }},
    };
}

/** Best-of-reps replay of @p trace through a fresh engine each rep. */
PointResult
runEnginePoint(const std::string &name, const EngineMaker &make,
               const trace::MemoryTrace &trace,
               const sim::SimConfig &simCfg, unsigned reps)
{
    PointResult pr;
    pr.name = name;
    for (unsigned rep = 0; rep < reps; ++rep) {
        sim::Simulator simulator(simCfg);
        coherence::CoherenceEngine &engine =
            simulator.addEngine(make());
        trace::MemoryTraceSource source(trace);
        bench::WallTimer timer;
        const std::uint64_t refs = simulator.run(source);
        const double s = timer.seconds();
        if (rep == 0 || s < pr.seconds) {
            pr.seconds = s;
            pr.refs = refs;
            pr.blocksTracked = engine.blocksTracked();
        }
    }
    pr.refsPerSec = pr.seconds > 0.0
                        ? static_cast<double>(pr.refs) / pr.seconds
                        : 0.0;
    return pr;
}

/** Best-of-reps decode-once replay of @p prepared. */
PointResult
runPreparedEnginePoint(const std::string &name, const EngineMaker &make,
                       const trace::PreparedTrace &prepared,
                       const sim::SimConfig &simCfg, unsigned reps)
{
    PointResult pr;
    pr.name = name + "+prep";
    for (unsigned rep = 0; rep < reps; ++rep) {
        sim::Simulator simulator(simCfg);
        coherence::CoherenceEngine &engine =
            simulator.addEngine(make());
        bench::WallTimer timer;
        const std::uint64_t refs = simulator.run(prepared);
        const double s = timer.seconds();
        if (rep == 0 || s < pr.seconds) {
            pr.seconds = s;
            pr.refs = refs;
            pr.blocksTracked = engine.blocksTracked();
        }
    }
    pr.refsPerSec = pr.seconds > 0.0
                        ? static_cast<double>(pr.refs) / pr.seconds
                        : 0.0;
    return pr;
}

/** One timed-bus point: the discrete-event layer on the same trace. */
PointResult
runTimedPoint(const trace::MemoryTrace &trace,
              const sim::SimConfig &simCfg, unsigned units,
              unsigned reps)
{
    PointResult pr;
    pr.name = "timed-dir0b";
    for (unsigned rep = 0; rep < reps; ++rep) {
        timing::TimedBusConfig cfg;
        cfg.scheme = sim::Scheme::Dir0B;
        cfg.bus = timing::timedPipelinedBus();
        cfg.sim = simCfg;
        coherence::InvalEngineConfig ecfg;
        ecfg.nUnits = units;
        timing::TimedBusSim sim(
            cfg, std::make_unique<coherence::InvalEngine>(ecfg));
        trace::MemoryTraceSource source(trace);
        bench::WallTimer timer;
        const timing::TimedRun run = sim.run(source);
        const double s = timer.seconds();
        if (rep == 0 || s < pr.seconds) {
            pr.seconds = s;
            pr.refs = run.refs;
        }
    }
    // TimedRun does not expose the engine's block table; the JSON
    // reports blocks_tracked = 0 for this point.
    pr.refsPerSec = pr.seconds > 0.0
                        ? static_cast<double>(pr.refs) / pr.seconds
                        : 0.0;
    return pr;
}

/** The timed-bus layer replaying the prepared per-CPU streams. */
PointResult
runTimedPreparedPoint(const trace::PreparedTrace &prepared,
                      const sim::SimConfig &simCfg, unsigned units,
                      unsigned reps)
{
    PointResult pr;
    pr.name = "timed-dir0b+prep";
    for (unsigned rep = 0; rep < reps; ++rep) {
        timing::TimedBusConfig cfg;
        cfg.scheme = sim::Scheme::Dir0B;
        cfg.bus = timing::timedPipelinedBus();
        cfg.sim = simCfg;
        coherence::InvalEngineConfig ecfg;
        ecfg.nUnits = units;
        timing::TimedBusSim sim(
            cfg, std::make_unique<coherence::InvalEngine>(ecfg));
        bench::WallTimer timer;
        const timing::TimedRun run = sim.run(prepared);
        const double s = timer.seconds();
        if (rep == 0 || s < pr.seconds) {
            pr.seconds = s;
            pr.refs = run.refs;
        }
    }
    pr.refsPerSec = pr.seconds > 0.0
                        ? static_cast<double>(pr.refs) / pr.seconds
                        : 0.0;
    return pr;
}

long
peakRssKb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return ru.ru_maxrss; // KiB on Linux.
}

void
writeJson(const Options &opts, const gen::WorkloadConfig &workload,
          const std::vector<PointResult> &points,
          double decodeSeconds)
{
    std::ofstream os(opts.out);
    if (!os) {
        std::cerr << "error: cannot write '" << opts.out << "'\n";
        std::exit(1);
    }
    os << "{\n";
    os << "  \"bench\": \"hotpath\",\n";
    os << "  \"workload\": \"" << workload.name << "\",\n";
    os << "  \"refs\": " << opts.refs << ",\n";
    os << "  \"reps\": " << opts.reps << ",\n";
    os << "  \"peak_rss_kb\": " << peakRssKb() << ",\n";
    os << "  \"decode_seconds\": " << decodeSeconds << ",\n";
    os << "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointResult &p = points[i];
        os << "    {\"name\": \"" << p.name << "\", "
           << "\"refs\": " << p.refs << ", "
           << "\"seconds\": " << p.seconds << ", "
           << "\"refs_per_sec\": "
           << static_cast<std::uint64_t>(p.refsPerSec) << ", "
           << "\"blocks_tracked\": " << p.blocksTracked << "}"
           << (i + 1 < points.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
}

/**
 * End-to-end campaign: the fig2/fig3-style evaluation (standard
 * engines, DiriNB pointer sweep, Berkeley) over the quarter-size
 * standard workloads.  Returns the number of (workload, engine)
 * points it ran.
 */
unsigned
runCampaign(const std::vector<gen::WorkloadConfig> &cfgs,
            const analysis::EvalOptions &opts)
{
    const analysis::Evaluation eval =
        analysis::evaluateWorkloads(cfgs, opts);
    const std::vector<unsigned> pointers = {1, 2, 4, 8};
    const auto limited = analysis::limitedSweep(cfgs, pointers, opts);
    const auto berkeley = analysis::berkeleyResults(cfgs, opts);
    // Keep the results alive so the optimiser cannot elide a run.
    if (eval.traces.empty() || limited.empty() ||
        berkeley.events.totalRefs() == 0)
        std::cerr << "warning: campaign produced empty results\n";
    return static_cast<unsigned>(cfgs.size() * 3 +
                                 cfgs.size() * pointers.size() +
                                 cfgs.size());
}

/** Per-scheme replay attribution for the sweep JSON. */
struct SchemeResult
{
    std::string name;
    double seconds = 0.0; //!< Best-of-reps replay time, all workloads.
    std::uint64_t refs = 0;
    double refsPerSec = 0.0;
};

/**
 * The campaign's distinct schemes, one engine each (dir1nb appears in
 * both the standard evaluation and the pointer sweep; it is timed
 * once here).  Labels are by construction, not results().name —
 * LimitedEngine clamps its pointer count to the unit count, so
 * dir8nb reports itself as dir4nb on a four-process workload.
 */
std::vector<std::pair<std::string, EngineMaker>>
campaignEngines(unsigned units,
                const std::vector<std::string> &schemeFilter)
{
    const auto wanted = [&schemeFilter](const std::string &name) {
        return schemeFilter.empty() ||
               std::find(schemeFilter.begin(), schemeFilter.end(),
                         name) != schemeFilter.end();
    };
    std::vector<std::pair<std::string, EngineMaker>> makers;
    if (wanted("inval"))
        makers.emplace_back("inval", [units] {
            coherence::InvalEngineConfig cfg;
            cfg.nUnits = units;
            return std::make_unique<coherence::InvalEngine>(cfg);
        });
    for (unsigned p : {1u, 2u, 4u, 8u})
        if (wanted("dir" + std::to_string(p) + "nb"))
            makers.emplace_back("dir" + std::to_string(p) + "nb",
                                [units, p] {
                                    return std::make_unique<
                                        coherence::LimitedEngine>(
                                        units, p);
                                });
    if (wanted("dragon"))
        makers.emplace_back("dragon", [units] {
            return std::make_unique<coherence::DragonEngine>(units);
        });
    if (wanted("berkeley"))
        makers.emplace_back("berkeley", [units] {
            return std::make_unique<coherence::BerkeleyEngine>(units);
        });
    return makers;
}

/** The DiriNB pointer counts the scheme filter keeps, sweep order. */
std::vector<unsigned>
filteredLanePointers(const std::vector<std::string> &schemeFilter)
{
    std::vector<unsigned> lanes;
    for (unsigned p : {1u, 2u, 4u, 8u}) {
        const std::string name = "dir" + std::to_string(p) + "nb";
        if (schemeFilter.empty() ||
            std::find(schemeFilter.begin(), schemeFilter.end(),
                      name) != schemeFilter.end())
            lanes.push_back(p);
    }
    return lanes;
}

/**
 * Time each campaign scheme's replay over the (already warm) prepared
 * traces: one fused pass per workload with per-engine clocks, or —
 * with the --no-fused hatch — one sequential pass per engine.  The
 * campaign timings above measure end-to-end walls; this pass
 * attributes pure replay time to each scheme so a regression in one
 * protocol's hot path is visible in the JSON, not averaged away.
 */
std::vector<SchemeResult>
runSchemeAttribution(const std::vector<gen::WorkloadConfig> &cfgs,
                     const trace::PrepareOptions &prep, bool fused,
                     unsigned reps,
                     const std::vector<std::string> &schemeFilter)
{
    std::vector<SchemeResult> schemes;
    for (unsigned rep = 0; rep < reps; ++rep) {
        std::vector<SchemeResult> pass;
        for (const gen::WorkloadConfig &cfg : cfgs) {
            const auto prepared =
                sim::TraceRepository::global().get(cfg, prep);
            const unsigned units = cfg.space.nProcesses;
            std::vector<std::unique_ptr<coherence::CoherenceEngine>>
                engines;
            std::vector<coherence::CoherenceEngine *> ptrs;
            std::vector<std::string> names;
            for (const auto &[name, make] :
                 campaignEngines(units, schemeFilter)) {
                engines.push_back(make());
                ptrs.push_back(engines.back().get());
                names.push_back(name);
            }
            if (pass.empty()) {
                pass.resize(engines.size());
                for (std::size_t e = 0; e < engines.size(); ++e)
                    pass[e].name = names[e];
            }
            sim::FusedReplayOptions fr;
            fr.timeEngines = true;
            if (fused) {
                trace::PreparedTraceSpans spans(*prepared);
                const sim::FusedReplayRun run =
                    sim::FusedReplay(fr).run(spans, ptrs);
                for (std::size_t e = 0; e < ptrs.size(); ++e) {
                    pass[e].seconds += run.engineSeconds[e];
                    pass[e].refs += run.totalRefs();
                }
            } else {
                fr.stripRefs = 0;
                for (std::size_t e = 0; e < ptrs.size(); ++e) {
                    trace::PreparedTraceSpans spans(*prepared);
                    const sim::FusedReplayRun run =
                        sim::FusedReplay(fr).run(spans, {ptrs[e]});
                    pass[e].seconds += run.engineSeconds[0];
                    pass[e].refs += run.totalRefs();
                }
            }
        }
        if (schemes.empty()) {
            schemes = std::move(pass);
        } else {
            for (std::size_t e = 0; e < schemes.size(); ++e)
                if (pass[e].seconds < schemes[e].seconds)
                    schemes[e].seconds = pass[e].seconds;
        }
    }
    for (SchemeResult &s : schemes)
        s.refsPerSec = s.seconds > 0.0
                           ? static_cast<double>(s.refs) / s.seconds
                           : 0.0;
    return schemes;
}

/** The collapsed DiriNB row's timing, for the multi-config A/B. */
struct MultiRowResult
{
    bool enabled = false;
    std::vector<unsigned> lanes; //!< Pointer counts, sweep order.
    double seconds = 0.0; //!< Best-of-reps, all workloads, one lookup.
    std::uint64_t refs = 0; //!< Stream refs through the shared table.
    /** Sum of the same lanes' independent-engine rows (pass above). */
    double independentSeconds = 0.0;
    double speedup = 0.0;
};

/**
 * Time the collapsed pointer-count row: one MultiLimitedEngine whose
 * lanes are the sweep's DiriNB configurations, co-resident with the
 * other campaign engines so cache pressure matches the independent
 * attribution pass — but only the multi row's per-engine clock is
 * harvested.  Each reference costs one shared block-table lookup plus
 * one update per lane, versus one lookup per lane for the independent
 * engines; the speedup over the summed independent rows is the gate
 * the CI --multi-floor locks in.
 */
MultiRowResult
runMultiAttribution(const std::vector<gen::WorkloadConfig> &cfgs,
                    const trace::PrepareOptions &prep, unsigned reps,
                    const std::vector<unsigned> &lanes,
                    const std::vector<std::string> &schemeFilter)
{
    MultiRowResult mr;
    mr.lanes = lanes;
    for (unsigned rep = 0; rep < reps; ++rep) {
        double seconds = 0.0;
        std::uint64_t refs = 0;
        for (const gen::WorkloadConfig &cfg : cfgs) {
            const auto prepared =
                sim::TraceRepository::global().get(cfg, prep);
            const unsigned units = cfg.space.nProcesses;
            std::vector<std::unique_ptr<coherence::CoherenceEngine>>
                engines;
            std::vector<coherence::CoherenceEngine *> ptrs;
            std::size_t multiIndex = 0;
            bool multiPlaced = false;
            for (const auto &[name, make] :
                 campaignEngines(units, schemeFilter)) {
                if (name.rfind("dir", 0) == 0) {
                    // The whole DiriNB row becomes one engine.
                    if (multiPlaced)
                        continue;
                    multiIndex = engines.size();
                    multiPlaced = true;
                    engines.push_back(std::make_unique<
                                      coherence::MultiLimitedEngine>(
                        units, lanes));
                } else {
                    engines.push_back(make());
                }
                ptrs.push_back(engines.back().get());
            }
            sim::FusedReplayOptions fr;
            fr.timeEngines = true;
            trace::PreparedTraceSpans spans(*prepared);
            const sim::FusedReplayRun run =
                sim::FusedReplay(fr).run(spans, ptrs);
            seconds += run.engineSeconds[multiIndex];
            refs += run.totalRefs();
        }
        if (rep == 0 || seconds < mr.seconds) {
            mr.seconds = seconds;
            mr.refs = refs;
        }
    }
    return mr;
}

/** Cold-path phase breakdown for one workload (sweep JSON). */
struct ColdResult
{
    std::string name;
    double generateSeconds = 0.0; //!< Legacy raw-trace generation.
    double prepareSeconds = 0.0;  //!< Legacy two-phase decode.
    double directSeconds = 0.0;   //!< Single-pass direct pipeline.
    double replaySeconds = 0.0;   //!< One fused campaign replay.
    std::uint64_t refs = 0;       //!< Kept refs in the prepared trace.
    double speedup = 0.0; //!< (generate + prepare) / direct.
};

/**
 * Time the cold generate+prepare cost both ways, per workload: the
 * legacy two-pass path (generateTrace, then the two-phase builder
 * decoding on a thread pool — the exact shape the repository ran
 * before the direct pipeline), and the single-pass direct pipeline.
 * The two results are compared column-for-column — a divergence is a
 * hard failure, not a statistic — and one fused replay of the full
 * campaign engine set is timed alongside so the JSON shows where a
 * cold campaign actually spends its wall clock.
 */
std::vector<ColdResult>
runColdAttribution(const std::vector<gen::WorkloadConfig> &cfgs,
                   const trace::PrepareOptions &prep, unsigned reps,
                   const gen::DirectGenConfig &dg)
{
    std::vector<ColdResult> cold;
    for (const gen::WorkloadConfig &cfg : cfgs) {
        ColdResult cr;
        cr.name = cfg.name;

        std::optional<trace::PreparedTrace> legacy;
        for (unsigned rep = 0; rep < reps; ++rep) {
            bench::WallTimer genTimer;
            const trace::MemoryTrace raw = gen::generateTrace(cfg);
            const double genS = genTimer.seconds();
            bench::WallTimer prepTimer;
            trace::PreparedTraceBuilder builder(raw, prep);
            const std::size_t chunks = builder.numChunks();
            const unsigned jobs = util::ThreadPool::resolveThreads(0);
            if (jobs > 1 && chunks > 1) {
                util::ThreadPool pool(jobs);
                for (std::size_t c = 0; c < chunks; ++c)
                    pool.submit(
                        [&builder, c] { builder.decodeChunk(c); });
                pool.wait();
            } else {
                for (std::size_t c = 0; c < chunks; ++c)
                    builder.decodeChunk(c);
            }
            trace::PreparedTrace p = builder.finish();
            const double prepS = prepTimer.seconds();
            if (rep == 0 || genS + prepS < cr.generateSeconds +
                                               cr.prepareSeconds) {
                cr.generateSeconds = genS;
                cr.prepareSeconds = prepS;
            }
            if (rep == 0)
                legacy = std::move(p);
        }

        std::optional<trace::PreparedTrace> direct;
        for (unsigned rep = 0; rep < reps; ++rep) {
            bench::WallTimer timer;
            trace::PreparedTrace p =
                gen::generatePrepared(cfg, prep, dg);
            const double s = timer.seconds();
            if (rep == 0 || s < cr.directSeconds)
                cr.directSeconds = s;
            if (rep == 0)
                direct = std::move(p);
        }

        // Self-check: the two paths must agree byte-for-byte — a
        // timing harness silently comparing different workloads
        // would gate nothing.
        const trace::PreparedTrace &a = *legacy;
        const trace::PreparedTrace &b = *direct;
        const bool same =
            a.dataRefs() == b.dataRefs() &&
            a.instrRefs() == b.instrRefs() &&
            a.numUnits() == b.numUnits() &&
            a.numCpus() == b.numCpus() &&
            std::ranges::equal(a.blockNames(), b.blockNames()) &&
            (a.dataRefs() == 0 ||
             (std::memcmp(a.blockData(), b.blockData(),
                          a.dataRefs() * sizeof(std::uint32_t)) == 0 &&
              std::memcmp(a.unitData(), b.unitData(),
                          a.dataRefs()) == 0 &&
              std::memcmp(a.typeFlagsData(), b.typeFlagsData(),
                          a.dataRefs()) == 0));
        if (!same) {
            std::cerr << "FAIL: direct generate-prepare diverges "
                         "from the legacy path on workload '"
                      << cfg.name << "'\n";
            std::exit(1);
        }

        const unsigned units = cfg.space.nProcesses;
        for (unsigned rep = 0; rep < reps; ++rep) {
            std::vector<std::unique_ptr<coherence::CoherenceEngine>>
                engines;
            std::vector<coherence::CoherenceEngine *> ptrs;
            for (const auto &[name, make] : campaignEngines(units, {})) {
                engines.push_back(make());
                ptrs.push_back(engines.back().get());
            }
            trace::PreparedTraceSpans spans(*direct);
            sim::FusedReplayOptions fr;
            bench::WallTimer timer;
            const sim::FusedReplayRun run =
                sim::FusedReplay(fr).run(spans, ptrs);
            const double s = timer.seconds();
            if (run.totalRefs() == 0)
                std::cerr << "warning: empty cold replay\n";
            if (rep == 0 || s < cr.replaySeconds)
                cr.replaySeconds = s;
        }

        cr.refs = direct->totalRefs();
        cr.speedup =
            cr.directSeconds > 0.0
                ? (cr.generateSeconds + cr.prepareSeconds) /
                      cr.directSeconds
                : 0.0;
        cold.push_back(std::move(cr));
    }
    return cold;
}

int
runSweepMode(const Options &opts)
{
    const std::vector<gen::WorkloadConfig> cfgs =
        gen::standardWorkloads();
    std::cout << "bench_hotpath --sweep: " << cfgs.size()
              << " workloads, fig2/fig3-style campaign\n";

    // Raw pass: regenerate and re-decode every workload per stage,
    // as every caller did before the trace repository existed.
    analysis::EvalOptions raw;
    raw.usePreparedTraces = false;
    bench::WallTimer rawTimer;
    const unsigned points = runCampaign(cfgs, raw);
    const double rawSeconds = rawTimer.seconds();
    std::cout << "  raw: " << points << " points in " << rawSeconds
              << " s\n";

    // Prepared pass from a cold repository: the decode split is the
    // one-time generate+prepare cost, the replay split is everything
    // the campaign does on top of the shared prepared traces.  With a
    // trace cache directory the campaign instead streams out-of-core
    // store files (warm files skip generate+prepare entirely).
    analysis::EvalOptions prepared;
    sim::TraceRepository &repo = sim::TraceRepository::global();
    repo.clear();
    trace::PrepareOptions prep;
    prep.blockBytes = prepared.sim.blockBytes;
    prep.domain = prepared.sim.domain;
    bench::WallTimer decodeTimer;
    if (!opts.traceCacheDir.empty()) {
        for (const gen::WorkloadConfig &cfg : cfgs)
            repo.getStored(cfg, prep);
    } else {
        for (const gen::WorkloadConfig &cfg : cfgs)
            repo.get(cfg, prep);
    }
    const double decodeSeconds = decodeTimer.seconds();
    bench::WallTimer replayTimer;
    const unsigned preparedPoints = runCampaign(cfgs, prepared);
    const double replaySeconds = replayTimer.seconds();
    const double preparedSeconds = decodeSeconds + replaySeconds;
    std::cout << "  prepared: decode " << decodeSeconds
              << " s + replay " << replaySeconds << " s = "
              << preparedSeconds << " s\n";

    const double speedup =
        preparedSeconds > 0.0 ? rawSeconds / preparedSeconds : 0.0;
    std::cout << "  speedup " << speedup << "x ("
              << repo.buildCount() << " repository builds)\n";

    // Per-scheme replay attribution over the now-warm repository.
    const std::vector<SchemeResult> schemes = runSchemeAttribution(
        cfgs, prep, opts.fused, opts.reps, opts.schemes);
    for (const SchemeResult &s : schemes)
        std::cout << "  "
                  << bench::throughputLine(s.name, s.refs, s.seconds)
                  << "\n";

    // Multi-configuration pass: the same DiriNB row collapsed into
    // one shared-table engine.  Needs fused replay (the per-engine
    // clocks) and at least two surviving lanes to be a collapse.
    MultiRowResult multi;
    const std::vector<unsigned> lanes =
        filteredLanePointers(opts.schemes);
    if (opts.fused && opts.multi && lanes.size() >= 2) {
        multi = runMultiAttribution(cfgs, prep, opts.reps, lanes,
                                    opts.schemes);
        multi.enabled = true;
        for (const SchemeResult &s : schemes)
            for (const unsigned p : lanes)
                if (s.name == "dir" + std::to_string(p) + "nb")
                    multi.independentSeconds += s.seconds;
        multi.speedup = multi.seconds > 0.0
                            ? multi.independentSeconds / multi.seconds
                            : 0.0;
        std::cout << "  "
                  << bench::throughputLine("multi(" +
                                               std::to_string(
                                                   lanes.size()) +
                                               " lanes)",
                                           multi.refs, multi.seconds)
                  << "\n";
        std::cout << "  multi-config speedup " << multi.speedup
                  << "x over " << lanes.size()
                  << " independent engines\n";
    }

    // Cold-path attribution: where a cold campaign's wall clock goes
    // (generate vs prepare vs replay), and the direct pipeline's
    // speedup over the legacy two-pass cold path — the --cold-floor
    // gate.  Skipped under --no-direct-gen (there is no direct run
    // to attribute).
    std::vector<ColdResult> cold;
    double coldLegacySeconds = 0.0;
    double coldDirectSeconds = 0.0;
    double coldSpeedup = 0.0;
    if (opts.directGen) {
        gen::DirectGenConfig dg;
        if (opts.genChunkRefs != 0)
            dg.chunkRefs = opts.genChunkRefs;
        cold = runColdAttribution(cfgs, prep, opts.reps, dg);
        for (const ColdResult &cr : cold) {
            coldLegacySeconds +=
                cr.generateSeconds + cr.prepareSeconds;
            coldDirectSeconds += cr.directSeconds;
            std::cout << "  cold " << cr.name << ": generate "
                      << cr.generateSeconds << " s + prepare "
                      << cr.prepareSeconds << " s legacy, direct "
                      << cr.directSeconds << " s (" << cr.speedup
                      << "x), replay " << cr.replaySeconds << " s\n";
        }
        coldSpeedup = coldDirectSeconds > 0.0
                          ? coldLegacySeconds / coldDirectSeconds
                          : 0.0;
        std::cout << "  cold generate+prepare speedup " << coldSpeedup
                  << "x (direct single-pass over legacy two-pass)\n";
    }

    std::ofstream os(opts.out);
    if (!os) {
        std::cerr << "error: cannot write '" << opts.out << "'\n";
        return 1;
    }
    os << "{\n";
    os << "  \"bench\": \"hotpath-sweep\",\n";
    os << "  \"workloads\": " << cfgs.size() << ",\n";
    os << "  \"points\": " << points << ",\n";
    os << "  \"raw_seconds\": " << rawSeconds << ",\n";
    os << "  \"raw_points_per_sec\": "
       << (rawSeconds > 0.0 ? points / rawSeconds : 0.0) << ",\n";
    os << "  \"decode_seconds\": " << decodeSeconds << ",\n";
    os << "  \"replay_seconds\": " << replaySeconds << ",\n";
    os << "  \"prepared_seconds\": " << preparedSeconds << ",\n";
    os << "  \"prepared_points_per_sec\": "
       << (preparedSeconds > 0.0 ? preparedPoints / preparedSeconds
                                 : 0.0)
       << ",\n";
    os << "  \"repository_builds\": " << repo.buildCount() << ",\n";
    os << "  \"peak_rss_kb\": " << peakRssKb() << ",\n";
    os << "  \"fused\": " << (opts.fused ? "true" : "false") << ",\n";
    os << "  \"schemes\": [\n";
    for (std::size_t i = 0; i < schemes.size(); ++i) {
        const SchemeResult &s = schemes[i];
        os << "    {\"name\": \"" << s.name << "\", "
           << "\"refs\": " << s.refs << ", "
           << "\"seconds\": " << s.seconds << ", "
           << "\"refs_per_sec\": "
           << static_cast<std::uint64_t>(s.refsPerSec) << ", "
           << "\"fused\": " << (opts.fused ? "true" : "false") << "}"
           << (i + 1 < schemes.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"multiConfig\": " << (multi.enabled ? "true" : "false")
       << ",\n";
    os << "  \"multi_config\": {\"enabled\": "
       << (multi.enabled ? "true" : "false") << ", "
       << "\"lanes\": " << multi.lanes.size() << ", "
       << "\"pointer_counts\": [";
    for (std::size_t i = 0; i < multi.lanes.size(); ++i)
        os << (i ? ", " : "") << multi.lanes[i];
    os << "], "
       << "\"refs\": " << multi.refs << ", "
       << "\"seconds\": " << multi.seconds << ", "
       << "\"refs_per_sec\": "
       << static_cast<std::uint64_t>(
              multi.seconds > 0.0
                  ? static_cast<double>(multi.refs) / multi.seconds
                  : 0.0)
       << ", "
       << "\"independent_seconds\": " << multi.independentSeconds
       << ", "
       << "\"speedup\": " << multi.speedup << "},\n";
    os << "  \"cold\": {\"enabled\": "
       << (opts.directGen ? "true" : "false") << ", "
       << "\"legacy_seconds\": " << coldLegacySeconds << ", "
       << "\"direct_seconds\": " << coldDirectSeconds << ", "
       << "\"speedup\": " << coldSpeedup << ", "
       << "\"workloads\": [";
    for (std::size_t i = 0; i < cold.size(); ++i) {
        const ColdResult &cr = cold[i];
        os << (i ? ",\n    " : "\n    ")
           << "{\"name\": \"" << cr.name << "\", "
           << "\"refs\": " << cr.refs << ", "
           << "\"generate_seconds\": " << cr.generateSeconds << ", "
           << "\"prepare_seconds\": " << cr.prepareSeconds << ", "
           << "\"direct_seconds\": " << cr.directSeconds << ", "
           << "\"replay_seconds\": " << cr.replaySeconds << ", "
           << "\"speedup\": " << cr.speedup << "}";
    }
    os << "]},\n";
    os << "  \"speedup\": " << speedup << "\n";
    os << "}\n";
    std::cout << "  wrote " << opts.out << "\n";

    if (opts.floor > 0.0) {
        if (speedup < opts.floor) {
            std::cerr << "FAIL: prepared-over-raw speedup " << speedup
                      << "x below floor " << opts.floor << "x\n";
            return 1;
        }
        std::cout << "  floor check passed (" << speedup
                  << "x >= " << opts.floor << "x)\n";
    }
    if (opts.multiFloor > 0.0) {
        if (!multi.enabled) {
            std::cerr << "FAIL: --multi-floor set but the "
                         "multi-configuration pass did not run\n";
            return 1;
        }
        if (multi.speedup < opts.multiFloor) {
            std::cerr << "FAIL: multi-config speedup " << multi.speedup
                      << "x below floor " << opts.multiFloor << "x\n";
            return 1;
        }
        std::cout << "  multi floor check passed (" << multi.speedup
                  << "x >= " << opts.multiFloor << "x)\n";
    }
    if (opts.coldFloor > 0.0) {
        if (!opts.directGen) {
            std::cerr << "FAIL: --cold-floor set but --no-direct-gen "
                         "disabled the cold attribution pass\n";
            return 1;
        }
        if (coldSpeedup < opts.coldFloor) {
            std::cerr << "FAIL: cold generate+prepare speedup "
                      << coldSpeedup << "x below floor "
                      << opts.coldFloor << "x\n";
            return 1;
        }
        std::cout << "  cold floor check passed (" << coldSpeedup
                  << "x >= " << opts.coldFloor << "x)\n";
    }
    if (opts.repoStats)
        std::cout << "  repo-stats: " << repo.stats().summary()
                  << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseOptions(argc, argv);
    if (!opts.directGen)
        sim::TraceRepository::global().setDirectGen(false);
    if (opts.genChunkRefs != 0)
        sim::TraceRepository::global().setDirectGenChunkRefs(
            opts.genChunkRefs);
    if (!opts.traceCacheDir.empty()) {
        sim::DiskCacheConfig disk;
        disk.dir = opts.traceCacheDir;
        disk.budgetBytes = opts.traceCacheBudgetMiB * 1024 * 1024;
        disk.chunkRefs = opts.streamChunkRefs;
        sim::TraceRepository::global().setDiskCache(disk);
        analysis::setDefaultStreamReplay(true);
    }
    if (!opts.fused)
        analysis::setDefaultFusedReplay(false);
    if (!opts.multi)
        analysis::setDefaultMultiConfig(false);
    if (opts.sweep)
        return runSweepMode(opts);

    gen::WorkloadConfig workload = gen::popsConfig();
    workload.totalRefs = opts.refs;
    const unsigned units = workload.space.nProcesses;

    sim::SimConfig simCfg;
    if (!opts.fused)
        simCfg.replayStripRefs = 0; // Whole-span prepared replay.

    std::cout << "bench_hotpath: workload=" << workload.name
              << " refs=" << opts.refs << " reps=" << opts.reps
              << "\n";

    bench::WallTimer total;
    const trace::MemoryTrace trace = gen::generateTrace(workload);
    std::cout << "  trace materialised in " << total.seconds()
              << " s\n";

    trace::PrepareOptions prep;
    prep.blockBytes = simCfg.blockBytes;
    prep.domain = simCfg.domain;
    prep.timedStreams = true;
    bench::WallTimer decodeTimer;
    const trace::PreparedTrace prepared =
        trace::PreparedTrace::build(trace, prep);
    const double decodeSeconds = decodeTimer.seconds();
    std::cout << "  prepared decode in " << decodeSeconds << " s ("
              << prepared.byteSize() / (1024 * 1024) << " MiB SoA)\n";

    std::vector<PointResult> points;
    for (const auto &[name, make] : enginePoints(units)) {
        points.push_back(
            runEnginePoint(name, make, trace, simCfg, opts.reps));
        points.push_back(runPreparedEnginePoint(name, make, prepared,
                                                simCfg, opts.reps));
    }
    points.push_back(runTimedPoint(trace, simCfg, units, opts.reps));
    points.push_back(
        runTimedPreparedPoint(prepared, simCfg, units, opts.reps));

    for (const PointResult &p : points) {
        std::cout << bench::throughputLine(p.name, p.refs, p.seconds);
        if (p.blocksTracked != 0)
            std::cout << " (" << p.blocksTracked << " blocks)";
        std::cout << "\n";
    }
    std::cout << "  peak RSS " << peakRssKb() << " KiB, total "
              << total.seconds() << " s\n";

    writeJson(opts, workload, points, decodeSeconds);
    std::cout << "  wrote " << opts.out << "\n";

    if (opts.floor > 0.0) {
        // Every reported point must clear the floor, so a regression
        // in a non-inval engine (or the timed layer) cannot land
        // silently behind a healthy leading point.
        const PointResult *slowest = &points.front();
        for (const PointResult &p : points)
            if (p.refsPerSec < slowest->refsPerSec)
                slowest = &p;
        if (slowest->refsPerSec < opts.floor) {
            std::cerr << "FAIL: " << slowest->name << " replay "
                      << static_cast<std::uint64_t>(
                             slowest->refsPerSec)
                      << " refs/sec below floor "
                      << static_cast<std::uint64_t>(opts.floor)
                      << "\n";
            return 1;
        }
        std::cout << "  floor check passed (slowest point "
                  << slowest->name << ", "
                  << static_cast<std::uint64_t>(slowest->refsPerSec)
                  << " >= " << static_cast<std::uint64_t>(opts.floor)
                  << " refs/sec)\n";
    }
    if (opts.repoStats)
        std::cout << "  repo-stats: "
                  << sim::TraceRepository::global().stats().summary()
                  << "\n";
    return 0;
}
