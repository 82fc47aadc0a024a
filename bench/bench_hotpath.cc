/**
 * @file
 * Hot-path throughput harness and the two CI performance gates.
 *
 * The default mode isolates the per-reference hot path.  It
 * materialises one workload trace up front, then replays it through
 * each engine variant and through one timed-bus point, timing only
 * the replay.  Each engine runs twice: once from the raw MemoryTrace
 * (per-record unit/block mapping on the replay path) and once from a
 * trace::PreparedTrace (decode-once SoA columns), so the decode-once
 * speedup is visible per engine.  The one-time decode cost is timed
 * and reported separately.
 *
 * `--sweep` switches to an end-to-end campaign measurement instead:
 * the fig2/fig3-style evaluation (standard engines, DiriNB pointer
 * sweep, Berkeley) runs through the sim::TraceRepository from a cold
 * start.  Then every rep times two fused passes back to back over the
 * warm traces: one with each campaign scheme as its own engine, one
 * with the DiriNB row collapsed into a single MultiLimitedEngine.
 * Both passes run through sim::Simulator, the path production replay
 * takes, repeat-read filter included.  Each engine is timed from
 * outside the replay, by a forwarding engine around it; the rest of
 * the pass's wall time (the filter's compaction and the loop) is
 * reported as one row.  The multi-configuration speedup is the median
 * of the per-rep ratios, so one noisy pass cannot move the gate.
 *
 * Results (refs/sec, resident-block count per engine, peak RSS) land
 * in a machine-readable JSON file.  This is a plain main(): a
 * best-of-N wall clock of a deterministic replay loop needs no
 * benchmark framework.
 *
 * Flags:
 *   --refs N       trace length (default 2,000,000; ignored by --sweep,
 *                  which uses the standard quarter-size workloads)
 *   --reps N       repetitions per point, best-of (default 3; --sweep
 *                  runs at least 9 paired reps)
 *   --out PATH     JSON output path (default BENCH_hotpath.json, or
 *                  BENCH_sweep.json in --sweep mode)
 *   --floor R      fail (exit 1) if any reported replay point runs
 *                  below R refs/sec (hot-path mode only; default 0 =
 *                  disabled)
 *   --sweep        measure the end-to-end campaign instead of
 *                  single-engine replay
 *   --multi-floor R  fail (exit 1) if the median multi-configuration
 *                  speedup over the independent DiriNB engines falls
 *                  below R (sweep mode; default 0 = disabled)
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
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
#include "sim/simulator.hh"
#include "sim/trace_repo.hh"
#include "timing/timed_bus.hh"
#include "trace/prepared.hh"
#include "trace/trace.hh"

namespace
{

using namespace dirsim;

/** Seconds elapsed on a steady clock since construction. */
class WallTimer
{
  public:
    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - _start)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point _start =
        std::chrono::steady_clock::now();
};

/** One greppable "[bench]" line per point: wall clock and refs/sec. */
std::string
throughputLine(const std::string &name, std::uint64_t refs,
               double seconds)
{
    std::ostringstream os;
    os << "[bench] " << name << ": " << seconds << " s wall, " << refs
       << " refs";
    if (seconds > 0.0 && refs > 0)
        os << ", "
           << static_cast<std::uint64_t>(
                  static_cast<double>(refs) / seconds)
           << " refs/sec";
    return os.str();
}

struct Options
{
    std::uint64_t refs = 2'000'000;
    unsigned reps = 3;
    std::string out;
    double floor = 0.0;
    bool sweep = false;
    double multiFloor = 0.0;
};

/** --sweep pairs its two passes at least this many times. */
constexpr unsigned kMinSweepReps = 9;

/** The collapsed DiriNB row's lanes, in sweep order. */
const std::vector<unsigned> kLanes = {1, 2, 4, 8};

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
        } else if (std::strcmp(argv[a], "--multi-floor") == 0) {
            opts.multiFloor = cli::parseDoubleInRange(
                want("--multi-floor"), "--multi-floor", 0.0,
                std::numeric_limits<double>::max());
        } else {
            std::cerr << "error: unknown flag '" << argv[a] << "'\n"
                      << "usage: bench_hotpath [--refs N] [--reps N] "
                         "[--out PATH] [--floor R] [--sweep] "
                         "[--multi-floor R]\n";
            std::exit(2);
        }
    }
    if (opts.floor > 0.0 && opts.sweep) {
        std::cerr << "error: --floor only applies to hot-path mode, "
                     "not --sweep\n";
        std::exit(2);
    }
    if (opts.multiFloor > 0.0 && !opts.sweep) {
        std::cerr << "error: --multi-floor only applies to --sweep\n";
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
        WallTimer timer;
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
        WallTimer timer;
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
        WallTimer timer;
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
        WallTimer timer;
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
    const auto limited = analysis::limitedSweep(cfgs, kLanes, opts);
    const auto berkeley = analysis::berkeleyResults(cfgs, opts);
    // Keep the results alive so the optimiser cannot elide a run.
    if (eval.traces.empty() || limited.empty() ||
        berkeley.events.totalRefs() == 0)
        std::cerr << "warning: campaign produced empty results\n";
    return static_cast<unsigned>(cfgs.size() * 3 +
                                 cfgs.size() * kLanes.size() +
                                 cfgs.size());
}

/**
 * The campaign's distinct schemes, one engine each (dir1nb appears in
 * both the standard evaluation and the pointer sweep; it is timed
 * once here).  Labels are by construction, not results().name —
 * LimitedEngine clamps its pointer count to the unit count, so
 * dir8nb reports itself as dir4nb on a four-process workload.
 */
std::vector<std::pair<std::string, EngineMaker>>
campaignEngines(unsigned units)
{
    std::vector<std::pair<std::string, EngineMaker>> makers;
    makers.emplace_back("inval", [units] {
        coherence::InvalEngineConfig cfg;
        cfg.nUnits = units;
        return std::make_unique<coherence::InvalEngine>(cfg);
    });
    for (const unsigned p : kLanes)
        makers.emplace_back("dir" + std::to_string(p) + "nb", [units, p] {
            return std::make_unique<coherence::LimitedEngine>(units, p);
        });
    makers.emplace_back("dragon", [units] {
        return std::make_unique<coherence::DragonEngine>(units);
    });
    makers.emplace_back("berkeley", [units] {
        return std::make_unique<coherence::BerkeleyEngine>(units);
    });
    return makers;
}

bool
isLane(const std::string &name)
{
    return name.rfind("dir", 0) == 0;
}

/**
 * Forwards every call to the engine it wraps, and adds the wall time
 * of the calls a replay makes per span or strip, accessPrepared() and
 * recordRepeatReads(), to seconds().  The replay takes the same path
 * as through the bare engine, with no clock inside it.
 */
class TimedEngine final : public coherence::CoherenceEngine
{
  public:
    explicit TimedEngine(std::unique_ptr<coherence::CoherenceEngine> inner)
        : _inner(std::move(inner))
    {
    }

    double seconds() const { return _seconds; }

    coherence::Outcome
    access(unsigned unit, trace::RefType type, mem::BlockId block) override
    {
        return _inner->access(unit, type, block);
    }
    void
    accessPrepared(const trace::PreparedSpan &span) override
    {
        const WallTimer timer;
        _inner->accessPrepared(span);
        _seconds += timer.seconds();
    }
    void recordInstrs(std::uint64_t n) override { _inner->recordInstrs(n); }
    bool repeatReadsHit() const override { return _inner->repeatReadsHit(); }
    void
    recordRepeatReads(std::uint64_t n) override
    {
        const WallTimer timer;
        _inner->recordRepeatReads(n);
        _seconds += timer.seconds();
    }
    const coherence::EngineResults &
    results() const override
    {
        return _inner->results();
    }
    unsigned numUnits() const override { return _inner->numUnits(); }
    void reset() override { _inner->reset(); }
    void
    reserveBlocks(std::uint64_t blocks) override
    {
        _inner->reserveBlocks(blocks);
    }
    void
    bindBlockNames(mem::BlockNames names) override
    {
        _inner->bindBlockNames(names);
    }
    std::uint64_t
    blocksTracked() const override
    {
        return _inner->blocksTracked();
    }

  private:
    std::unique_ptr<coherence::CoherenceEngine> _inner;
    double _seconds = 0.0;
};

/** Replay seconds per engine of one fused pass, all workloads. */
struct PassResult
{
    std::vector<std::string> names;
    std::vector<double> seconds;
    /** The pass's wall time less its engines' seconds: the
     *  repeat-read filter's compaction, shared by every engine that
     *  counts repeat reads in bulk (all of the campaign's), and the
     *  replay loop around it. */
    double outsideEnginesSeconds = 0.0;
    std::uint64_t refs = 0; //!< Stream refs each engine replayed.
};

/**
 * One fused pass per workload over the (already warm) prepared
 * traces, each engine timed by a TimedEngine.  With @p collapse the
 * DiriNB engines give way to one MultiLimitedEngine holding every
 * lane (one shared block-table lookup per reference plus one update
 * per lane), named "multi"; the other campaign engines stay
 * co-resident so cache pressure matches the independent pass.
 */
PassResult
runPass(const std::vector<gen::WorkloadConfig> &cfgs,
        const sim::SimConfig &simCfg, const trace::PrepareOptions &prep,
        bool collapse)
{
    PassResult pass;
    for (const gen::WorkloadConfig &cfg : cfgs) {
        const auto prepared =
            sim::TraceRepository::global().get(cfg, prep);
        const unsigned units = cfg.space.nProcesses;
        sim::Simulator simulator(simCfg);
        std::vector<const TimedEngine *> timed;
        std::vector<std::string> names;
        bool multiPlaced = false;
        for (const auto &[name, make] : campaignEngines(units)) {
            std::unique_ptr<coherence::CoherenceEngine> engine;
            if (collapse && isLane(name)) {
                // The whole DiriNB row becomes one engine.
                if (multiPlaced)
                    continue;
                multiPlaced = true;
                engine = std::make_unique<coherence::MultiLimitedEngine>(
                    units, kLanes);
                names.push_back("multi");
            } else {
                engine = make();
                names.push_back(name);
            }
            auto wrapped = std::make_unique<TimedEngine>(std::move(engine));
            timed.push_back(wrapped.get());
            simulator.addEngine(std::move(wrapped));
        }
        const WallTimer wall;
        pass.refs += simulator.run(*prepared);
        double passSeconds = wall.seconds();
        if (pass.names.empty()) {
            pass.names = names;
            pass.seconds.assign(timed.size(), 0.0);
        }
        for (std::size_t e = 0; e < timed.size(); ++e) {
            pass.seconds[e] += timed[e]->seconds();
            passSeconds -= timed[e]->seconds();
        }
        pass.outsideEnginesSeconds += passSeconds;
    }
    return pass;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int
runSweepMode(const Options &opts)
{
    const std::vector<gen::WorkloadConfig> cfgs =
        gen::standardWorkloads();
    std::cout << "bench_hotpath --sweep: " << cfgs.size()
              << " workloads, fig2/fig3-style campaign\n";

    // The campaign from a cold repository: the decode split is the
    // one-time generate+prepare cost, the replay split is everything
    // the campaign does on top of the shared prepared traces.
    const analysis::EvalOptions evalOpts;
    sim::TraceRepository &repo = sim::TraceRepository::global();
    repo.clear();
    trace::PrepareOptions prep;
    prep.blockBytes = evalOpts.sim.blockBytes;
    prep.domain = evalOpts.sim.domain;
    WallTimer decodeTimer;
    for (const gen::WorkloadConfig &cfg : cfgs)
        repo.get(cfg, prep);
    const double decodeSeconds = decodeTimer.seconds();
    WallTimer replayTimer;
    const unsigned points = runCampaign(cfgs, evalOpts);
    const double replaySeconds = replayTimer.seconds();
    const double preparedSeconds = decodeSeconds + replaySeconds;
    std::cout << "  campaign: " << points << " points, decode "
              << decodeSeconds << " s + replay " << replaySeconds
              << " s = " << preparedSeconds << " s ("
              << repo.buildCount() << " repository builds)\n";

    // Paired passes over the now-warm repository: each rep's
    // independent lanes and collapsed row run back to back, so both
    // sides of a ratio see the same machine state.
    const unsigned reps = std::max(opts.reps, kMinSweepReps);
    PassResult best;  //!< Best-of-reps independent pass, per engine.
    double multiSeconds = 0.0;
    std::uint64_t multiRefs = 0;
    std::vector<double> speedups;
    for (unsigned rep = 0; rep < reps; ++rep) {
        const PassResult independent =
            runPass(cfgs, evalOpts.sim, prep, false);
        const PassResult collapsed =
            runPass(cfgs, evalOpts.sim, prep, true);
        double laneSeconds = 0.0;
        for (std::size_t e = 0; e < independent.names.size(); ++e)
            if (isLane(independent.names[e]))
                laneSeconds += independent.seconds[e];
        const std::size_t m =
            std::find(collapsed.names.begin(), collapsed.names.end(),
                      "multi") -
            collapsed.names.begin();
        const double multi = collapsed.seconds[m];
        speedups.push_back(multi > 0.0 ? laneSeconds / multi : 0.0);
        if (rep == 0) {
            best = independent;
        } else {
            for (std::size_t e = 0; e < best.seconds.size(); ++e)
                best.seconds[e] =
                    std::min(best.seconds[e], independent.seconds[e]);
            best.outsideEnginesSeconds =
                std::min(best.outsideEnginesSeconds,
                         independent.outsideEnginesSeconds);
        }
        if (rep == 0 || multi < multiSeconds) {
            multiSeconds = multi;
            multiRefs = collapsed.refs;
        }
    }
    const double speedup = median(speedups);
    const auto [lo, hi] =
        std::minmax_element(speedups.begin(), speedups.end());
    for (std::size_t e = 0; e < best.names.size(); ++e)
        std::cout << "  "
                  << throughputLine(best.names[e], best.refs,
                                    best.seconds[e])
                  << "\n";
    std::cout << "  "
              << throughputLine("pass minus engines (repeat-read filter)",
                                best.refs, best.outsideEnginesSeconds)
              << "\n";
    std::cout << "  "
              << throughputLine("multi(" +
                                    std::to_string(kLanes.size()) +
                                    " lanes)",
                                multiRefs, multiSeconds)
              << "\n";
    std::cout << "  multi-config speedup " << speedup << "x over "
              << kLanes.size() << " independent engines (median of "
              << reps << " paired reps, " << *lo << "-" << *hi
              << "x)\n";

    std::ofstream os(opts.out);
    if (!os) {
        std::cerr << "error: cannot write '" << opts.out << "'\n";
        return 1;
    }
    os << "{\n";
    os << "  \"bench\": \"hotpath-sweep\",\n";
    os << "  \"workloads\": " << cfgs.size() << ",\n";
    os << "  \"points\": " << points << ",\n";
    os << "  \"decode_seconds\": " << decodeSeconds << ",\n";
    os << "  \"replay_seconds\": " << replaySeconds << ",\n";
    os << "  \"prepared_seconds\": " << preparedSeconds << ",\n";
    os << "  \"prepared_points_per_sec\": "
       << (preparedSeconds > 0.0 ? points / preparedSeconds : 0.0)
       << ",\n";
    os << "  \"repository_builds\": " << repo.buildCount() << ",\n";
    os << "  \"peak_rss_kb\": " << peakRssKb() << ",\n";
    os << "  \"schemes\": [\n";
    for (std::size_t e = 0; e < best.names.size(); ++e) {
        const double s = best.seconds[e];
        os << "    {\"name\": \"" << best.names[e] << "\", "
           << "\"refs\": " << best.refs << ", "
           << "\"seconds\": " << s << ", "
           << "\"refs_per_sec\": "
           << static_cast<std::uint64_t>(
                  s > 0.0 ? static_cast<double>(best.refs) / s : 0.0)
           << "}" << (e + 1 < best.names.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"pass_minus_engines_seconds\": "
       << best.outsideEnginesSeconds << ",\n";
    os << "  \"multi_config\": {\"lanes\": " << kLanes.size()
       << ", \"pointer_counts\": [";
    for (std::size_t i = 0; i < kLanes.size(); ++i)
        os << (i ? ", " : "") << kLanes[i];
    os << "], \"refs\": " << multiRefs
       << ", \"seconds\": " << multiSeconds << ", \"refs_per_sec\": "
       << static_cast<std::uint64_t>(
              multiSeconds > 0.0
                  ? static_cast<double>(multiRefs) / multiSeconds
                  : 0.0)
       << ", \"speedup\": " << speedup << ", \"rep_speedups\": [";
    for (std::size_t i = 0; i < speedups.size(); ++i)
        os << (i ? ", " : "") << speedups[i];
    os << "]}\n";
    os << "}\n";
    std::cout << "  wrote " << opts.out << "\n";

    if (opts.multiFloor > 0.0) {
        if (speedup < opts.multiFloor) {
            std::cerr << "FAIL: multi-config speedup " << speedup
                      << "x below floor " << opts.multiFloor << "x\n";
            return 1;
        }
        std::cout << "  multi floor check passed (" << speedup
                  << "x >= " << opts.multiFloor << "x)\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseOptions(argc, argv);
    if (opts.sweep)
        return runSweepMode(opts);

    gen::WorkloadConfig workload = gen::popsConfig();
    workload.totalRefs = opts.refs;
    const unsigned units = workload.space.nProcesses;

    const sim::SimConfig simCfg;

    std::cout << "bench_hotpath: workload=" << workload.name
              << " refs=" << opts.refs << " reps=" << opts.reps
              << "\n";

    WallTimer total;
    const trace::MemoryTrace trace = gen::generateTrace(workload);
    std::cout << "  trace materialised in " << total.seconds()
              << " s\n";

    trace::PrepareOptions prep;
    prep.blockBytes = simCfg.blockBytes;
    prep.domain = simCfg.domain;
    prep.timedStreams = true;
    WallTimer decodeTimer;
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
        std::cout << throughputLine(p.name, p.refs, p.seconds);
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
    return 0;
}
