/**
 * @file
 * Benchmark runner: one named workload per process.
 *
 * The runner sets a workload up several times (each timed), runs
 * passes of its fixed work until the time budget is spent (each
 * timed), verifies what it can without pinned values, and on a traced
 * run adds spans, counters and a decomposition pass that drives the
 * same inputs through the modules below the analysis calls one at a
 * time.  It prints one JSON document on stdout; run.py turns that
 * into checks against the pinned results and into metrics.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  --data-dir DIR [--size full|tiny]
 *
 * Evaluations run with jobs = 1, so the only extra thread is the pack
 * worker of the direct generate->prepare pipeline.  Nothing is
 * written to disk inside a timed pass.
 */

#include <linux/perf_event.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/evaluation.hh"
#include "analysis/exhibits.hh"
#include "coherence/berkeley_engine.hh"
#include "coherence/dragon_engine.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "coherence/multi_limited_engine.hh"
#include "coherence/wti_engine.hh"
#include "digest.hh"
#include "directory/coarse_vector.hh"
#include "directory/full_map.hh"
#include "directory/limited_pointer.hh"
#include "directory/two_bit.hh"
#include "gen/direct_prepare.hh"
#include "gen/workloads.hh"
#include "sim/simulator.hh"
#include "sim/trace_repo.hh"
#include "spans.hh"
#include "timing/timed_bus.hh"
#include "timing/transactions.hh"

namespace
{

using namespace dirsim;
namespace fs = std::filesystem;

perfbench::Tracer tracer;

/** Durations of the current setup's or pass's steps, in call order,
 *  and of the reference kernel run just before each of them. */
std::vector<double> stepTimes;
std::vector<double> stepReferences;

/** The CPUs the process may use, and where the next step goes. */
cpu_set_t allowedCpus;
std::vector<int> cpuList;
std::size_t nextCpu = 0;

/**
 * Steps rotate over the allowed CPUs, each on a pair of neighbours
 * (room for the pack worker): step j of pass p starts at CPU
 * (p + j) mod n.  On a shared host one CPU can run at half speed for
 * tens of seconds while another is idle; rotating spreads each step's
 * samples over every CPU, so its median does not rest on one.
 */
void
pinStep()
{
    if (cpuList.size() < 2)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpuList[nextCpu % cpuList.size()], &set);
    CPU_SET(cpuList[(nextCpu + 1) % cpuList.size()], &set);
    ++nextCpu;
    ::sched_setaffinity(0, sizeof(set), &set);
}

/**
 * A fixed integer kernel that stands in for the host's speed at the
 * moment: xorshift keys probing and updating a 512 KiB table, the
 * branchy, cache-resident shape of an engine's per-block update, in
 * code that no dirsim change can touch.  A busy sibling hyperthread
 * or a slower host slows it as it slows the step timed after it,
 * which run.py uses to rescale the step to the reference speed.
 */
double
referenceSeconds()
{
    static std::vector<std::uint64_t> keys(1 << 15), vals(1 << 15);
    static volatile std::uint64_t sink = 0;
    std::uint64_t x = 88172645463325252ULL, sum = 0;
    const double t0 = tracer.now();
    for (int i = 0; i < 400'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::size_t h = (x * 0x9E3779B97F4A7C15ULL) >> 49;
        if (keys[h] == (x & 0xff))
            sum += ++vals[h];
        else if (vals[h] & 1)
            keys[h] = x & 0xff;
        else
            vals[h] ^= x;
    }
    sink = sink + sum;
    return tracer.now() - t0;
}

/**
 * Run @p f as one step: a call into a dirsim module, timed always
 * (run_s and setup_s sum each step's median over the passes or
 * setups), after the reference kernel on the same CPU, and spanned
 * as @p name when tracing.
 */
template <typename F>
auto
step(const std::string &name, F &&f)
{
    pinStep();
    stepReferences.push_back(referenceSeconds());
    auto s = tracer.span(name.c_str());
    const double t0 = tracer.now();
    auto result = f();
    stepTimes.push_back(tracer.now() - t0);
    return result;
}

/** Setups per run: one before the passes, the rest after them. */
constexpr int kSetups = 3;
/** Passes per run at the least, whatever the time budget. */
constexpr int kMinPasses = 3;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    bool tiny = false;
    std::string dataDir;
};

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

// --- Inputs -------------------------------------------------------

/** Every WorkloadConfig seed derives from --seed; seed 0 keeps the
 *  presets' own seeds, which the pinned results are recorded at. */
gen::WorkloadConfig
seeded(gen::WorkloadConfig cfg, std::uint64_t seed)
{
    cfg.seed += seed * 0x9E3779B97F4A7C15ULL;
    return cfg;
}

/** pops, thor and pero at published size (tiny: 1/32 of it). */
std::vector<gen::WorkloadConfig>
paperConfigs(const Options &o)
{
    std::vector<gen::WorkloadConfig> cfgs;
    for (gen::WorkloadConfig cfg : gen::standardWorkloads(true)) {
        if (o.tiny)
            cfg.totalRefs /= 32;
        cfgs.push_back(seeded(cfg, o.seed));
    }
    return cfgs;
}

trace::PrepareOptions
prepareOptions(bool dropLockTests, bool timedStreams = false)
{
    trace::PrepareOptions prep;
    prep.dropLockTests = dropLockTests;
    prep.timedStreams = timedStreams;
    return prep;
}

unsigned
unitsOf(const gen::WorkloadConfig &cfg)
{
    return cfg.space.nProcesses;
}

sim::SimConfig
simConfigOf(const gen::WorkloadConfig &cfg)
{
    sim::SimConfig sc;
    sc.expectedBlocks = gen::expectedUniqueBlocks(cfg.space);
    return sc;
}

/** The engines the decomposition pass runs alone. */
const std::vector<std::string> kEngineKinds = {
    "inval", "dir1nb", "dirinb_lanes", "dragon", "berkeley", "wti"};
/** The engines analysis::evaluateWorkloads fuses. */
const std::vector<std::string> kFusedKinds = {"inval", "dir1nb",
                                              "dragon"};
/** Dir1NB..Dir8NB, the DiriNB sweep and the lanes engine. */
const std::vector<unsigned> kPointers = {1, 2, 3, 4, 5, 6, 7, 8};

std::unique_ptr<coherence::CoherenceEngine>
makeEngine(const std::string &kind, unsigned units)
{
    if (kind == "inval") {
        coherence::InvalEngineConfig cfg;
        cfg.nUnits = units;
        return std::make_unique<coherence::InvalEngine>(cfg);
    }
    if (kind == "dir1nb")
        return std::make_unique<coherence::LimitedEngine>(units, 1);
    if (kind == "dirinb_lanes")
        return std::make_unique<coherence::MultiLimitedEngine>(
            units, kPointers);
    if (kind == "dragon")
        return std::make_unique<coherence::DragonEngine>(units);
    if (kind == "berkeley")
        return std::make_unique<coherence::BerkeleyEngine>(units);
    if (kind == "wti")
        return std::make_unique<coherence::WtiEngine>(units, true);
    throw std::invalid_argument("unknown engine kind " + kind);
}

// --- Results ------------------------------------------------------

/** Named results of one pass, checked against the pins (or against
 *  the first pass when the seed has none), plus the simulated
 *  references the pass replayed, counted once per configuration. */
struct Results
{
    std::vector<std::pair<std::string, std::string>> values;
    std::uint64_t refs = 0;

    void
    put(const std::string &name, const std::string &value)
    {
        values.emplace_back(name, value);
    }

    /** One configuration's replay: pinned by its canonical digest. */
    void
    engine(const std::string &name, const coherence::EngineResults &r)
    {
        put(name, hex(perfbench::digest(r)));
        refs += r.events.totalRefs();
    }
};

/** A check made inside the runner (no pinned value needed). */
struct CrossCheck
{
    std::string name;
    bool ok = false;
    std::string detail;
};

/** The paper's Table 5 cumulative row (pipelined bus), paper order. */
const std::vector<double> kPaperTable5 = {0.3210, 0.1466, 0.0491,
                                          0.0336};

/** The Table 5 cumulative row of @p eval, costed through
 *  sim::computeCost one step per scheme. */
std::vector<double>
table5Row(const analysis::Evaluation &eval)
{
    const bus::BusModels buses = bus::standardBuses();
    std::vector<double> row;
    for (const analysis::PaperScheme scheme : analysis::paperSchemes())
        row.push_back(step("sim::computeCost", [&] {
                          return sim::computeCost(
                              analysis::simSchemeFor(scheme),
                              analysis::resultsFor(scheme, eval.average),
                              buses.pipelined);
                      }).total());
    return row;
}

/** Largest relative error of a Table 5 row against the paper's. */
double
table5Error(const std::vector<double> &row)
{
    double worst = 0.0;
    for (std::size_t i = 0; i < row.size(); ++i)
        worst = std::max(worst, std::fabs(row[i] - kPaperTable5[i]) /
                                    kPaperTable5[i]);
    return worst;
}

void
countRepoDelta(const sim::RepoStats &before)
{
    const sim::RepoStats after = sim::TraceRepository::global().stats();
    tracer.count("sim.repo.hits", double(after.hits - before.hits));
    tracer.count("sim.repo.misses", double(after.misses - before.misses));
    tracer.count("sim.repo.builds", double(after.builds - before.builds));
    tracer.count("sim.repo.disk_hits",
                 double(after.diskHits - before.diskHits));
    tracer.count("sim.repo.disk_writes",
                 double(after.diskWrites - before.diskWrites));
}

/**
 * Decomposition of a static replay: every engine kind alone through
 * sim::Simulator::run, then the three engines evaluateWorkloads fuses,
 * each in a span named by its kind.  @p replay streams the workload's
 * trace (prepared or stored) through a simulator.
 */
template <typename Replay>
void
replayAlone(const gen::WorkloadConfig &cfg, const Replay &replay)
{
    std::vector<std::vector<std::string>> runs;
    for (const std::string &kind : kEngineKinds)
        runs.push_back({kind});
    runs.push_back(kFusedKinds);
    for (const std::vector<std::string> &kinds : runs) {
        const std::string kind = kinds.size() == 1 ? kinds[0] : "fused";
        sim::Simulator simulator(simConfigOf(cfg));
        for (const std::string &k : kinds)
            simulator.addEngine(makeEngine(k, unitsOf(cfg)));
        std::uint64_t refs = 0;
        {
            const std::string name = "sim::Simulator::run[" + kind + "]";
            auto s = tracer.span(name.c_str());
            refs = replay(simulator);
        }
        if (kind == "fused") {
            tracer.count("sim.replay.refs", double(refs));
            continue;
        }
        tracer.count("coherence." + kind + ".refs", double(refs));
        tracer.count("coherence." + kind + ".blocks",
                     double(simulator.engine(0).blocksTracked()));
    }
}

// --- Workloads ----------------------------------------------------

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build the inputs, replacing the previous setup's. */
    virtual void setup(int index) = 0;
    /** The fixed timed work. */
    virtual Results pass() = 0;
    /** Untimed checks that need no pins; also yields table5_err. */
    virtual void verify(const Results &last,
                        std::vector<CrossCheck> &checks) = 0;
    /** Traced runs only: the modules one at a time. */
    virtual void decompose() = 0;

    /** Table 5 cumulative row, from the pass or the reference. */
    std::vector<double> table5;
};

/**
 * paper_replay / paper_stream: the paper's campaign at published
 * size over six prepared traces (pops, thor, pero; with and without
 * lock-test reads), in memory or streamed from the store.
 */
class PaperWorkload final : public Workload
{
  public:
    PaperWorkload(const Options &o, bool stream)
        : _opts(o), _stream(stream), _cfgs(paperConfigs(o))
    {
        analysis::setDefaultStreamReplay(stream);
    }

    void
    setup(int index) override
    {
        auto &repo = sim::TraceRepository::global();
        repo.clear();
        if (_stream) {
            // A fresh directory each time, so every setup spills.
            if (!_storeDir.empty())
                fs::remove_all(_storeDir);
            _storeDir = _opts.dataDir + "/store" + std::to_string(index);
            sim::DiskCacheConfig disk;
            disk.dir = _storeDir;
            repo.setDiskCache(disk);
        }
        std::uint64_t bytes = 0;
        for (const gen::WorkloadConfig &cfg : _cfgs) {
            for (const bool drop : {false, true}) {
                if (_stream)
                    bytes += step("TraceRepository::getStored", [&] {
                                 return repo.getStored(cfg,
                                                       prepareOptions(drop));
                             })->fileBytes();
                else
                    bytes += step("TraceRepository::get", [&] {
                                 return repo.get(cfg, prepareOptions(drop));
                             })->byteSize();
            }
        }
        tracer.count(_stream ? "trace.store.file_bytes"
                             : "trace.column_bytes",
                     double(bytes));
    }

    Results
    pass() override
    {
        const sim::RepoStats before =
            sim::TraceRepository::global().stats();
        Results out = campaign();
        countRepoDelta(before);
        return out;
    }

    void
    verify(const Results &last, std::vector<CrossCheck> &checks) override
    {
        if (!_stream)
            return;
        // paper_stream must reproduce paper_replay exactly: rerun the
        // campaign from in-memory traces built from the generator
        // (disk tier off, so nothing is read back from the store).
        auto &repo = sim::TraceRepository::global();
        repo.setDiskCache({});
        repo.clear();
        analysis::setDefaultStreamReplay(false);
        const Results memory = campaign();
        analysis::setDefaultStreamReplay(true);
        sim::DiskCacheConfig disk;
        disk.dir = _storeDir;
        repo.setDiskCache(disk);
        std::map<std::string, std::string> want(memory.values.begin(),
                                                memory.values.end());
        for (const auto &[name, value] : last.values) {
            const auto it = want.find(name);
            const std::string expected =
                it == want.end() ? "missing" : it->second;
            checks.push_back({"stream_equals_memory:" + name,
                              expected == value,
                              "stream " + value + ", memory " + expected});
        }
        repo.clear();
    }

    void
    decompose() override
    {
        auto &repo = sim::TraceRepository::global();
        std::uint64_t genRefs = 0;
        for (const gen::WorkloadConfig &cfg : _cfgs) {
            for (const bool drop : {false, true}) {
                const trace::PrepareOptions prep = prepareOptions(drop);
                {
                    auto s = tracer.span("gen::generatePrepared");
                    genRefs += gen::generatePrepared(cfg, prep).totalRefs();
                }
                if (!_stream) {
                    const auto prepared = repo.get(cfg, prep);
                    replayAlone(cfg, [&](sim::Simulator &sim) {
                        return sim.run(*prepared);
                    });
                    continue;
                }
                const auto stored = repo.getStored(cfg, prep);
                {
                    auto s = tracer.span("trace::StoredTrace::spanCursor");
                    const auto cursor = stored->spanCursor();
                    trace::PreparedSpan span;
                    while (cursor->nextSpan(span)) {
                    }
                }
                replayAlone(cfg, [&](sim::Simulator &sim) {
                    return sim.run(*stored->spanCursor());
                });
            }
        }
        tracer.count("gen.refs", double(genRefs));
    }

    ~PaperWorkload() override
    {
        if (!_storeDir.empty())
            fs::remove_all(_storeDir);
    }

  private:
    /** The campaign: every evaluation and exhibit of the paper plus
     *  the directory, directory-cache and finite-cache studies. */
    Results
    campaign()
    {
        Results out;
        analysis::EvalOptions plainOpts;
        analysis::EvalOptions noLockOpts;
        noLockOpts.dropLockTests = true;
        const analysis::Evaluation eval =
            step("analysis::evaluateWorkloads", [&] {
                return analysis::evaluateWorkloads(_cfgs, plainOpts);
            });
        const analysis::Evaluation noLocks =
            step("analysis::evaluateWorkloads", [&] {
                return analysis::evaluateWorkloads(_cfgs, noLockOpts);
            });
        for (const auto *e : {&eval, &noLocks}) {
            const std::string tag = e == &eval ? "eval." : "eval_nolock.";
            for (const analysis::TraceEvaluation &te : e->traces) {
                out.engine(tag + te.trace + ".inval", te.inval);
                out.engine(tag + te.trace + ".dir1nb", te.dir1nb);
                out.engine(tag + te.trace + ".dragon", te.dragon);
            }
        }

        const std::vector<coherence::EngineResults> sweep =
            step("analysis::limitedSweep", [&] {
                return analysis::limitedSweep(_cfgs, kPointers);
            });
        for (std::size_t i = 0; i < sweep.size(); ++i)
            out.engine("limited.dir" + std::to_string(kPointers[i]) + "nb",
                       sweep[i]);
        out.engine("berkeley", step("analysis::berkeleyResults", [&] {
                       return analysis::berkeleyResults(_cfgs);
                   }));

        // The five organisations of the directory-message study.
        static const directory::FullMapFactory fullMap;
        static const directory::TwoBitFactory twoBit;
        static const directory::LimitedPointerFactory dir1b(1, true);
        static const directory::LimitedPointerFactory dir2b(2, true);
        static const directory::CoarseVectorFactory coarse;
        const std::pair<const char *, const directory::DirEntryFactory *>
            orgs[] = {{"fullmap", &fullMap},
                      {"twobit", &twoBit},
                      {"dir1b", &dir1b},
                      {"dir2b", &dir2b},
                      {"coarse", &coarse}};
        for (const auto &[name, factory] : orgs)
            out.engine(std::string("dirshadow.") + name,
                       step("analysis::invalWithDirectory", [&] {
                           return analysis::invalWithDirectory(_cfgs,
                                                               *factory);
                       }));

        // Finite sparse directories: inval and Dir1NB behind 256- and
        // 2048-entry 4-way directory caches.
        std::uint64_t dcHits = 0, dcMisses = 0, dcEvictions = 0;
        for (const std::uint64_t entries : {256u, 2048u}) {
            directory::DirCacheConfig dc;
            dc.enabled = true;
            dc.entries = entries;
            dc.associativity = 4;
            const coherence::EngineResults inval =
                step("analysis::invalWithDirCache", [&] {
                    return analysis::invalWithDirCache(_cfgs, dc);
                });
            const coherence::EngineResults dir1nb =
                step("analysis::limitedWithDirCache", [&] {
                    return analysis::limitedWithDirCache(_cfgs, 1, dc);
                });
            for (const auto *r : {&inval, &dir1nb}) {
                const std::string name =
                    "dircache." + std::to_string(entries) +
                    (r == &inval ? ".inval" : ".dir1nb");
                out.put(name, hex(perfbench::dirCacheDigest(*r)));
                out.refs += r->events.totalRefs();
                dcHits += r->dirCacheHits;
                dcMisses += r->dirCacheMisses;
                dcEvictions += r->dirCacheEvictions;
            }
        }
        tracer.count("directory.dircache.hits", double(dcHits));
        tracer.count("directory.dircache.misses", double(dcMisses));
        tracer.count("directory.dircache.evictions", double(dcEvictions));

        std::uint64_t replacementWbs = 0;
        for (const std::uint64_t capacity :
             {16u * 1024, 128u * 1024, 1024u * 1024}) {
            mem::CacheGeometry geometry;
            geometry.capacityBytes = capacity;
            geometry.blockBytes = 16;
            geometry.ways = 4;
            const coherence::EngineResults r =
                step("analysis::invalWithFiniteCaches", [&] {
                    return analysis::invalWithFiniteCaches(_cfgs, geometry);
                });
            out.engine("finite." + std::to_string(capacity / 1024) + "k",
                       r);
            replacementWbs += r.replacementWriteBacks;
        }
        tracer.count("mem.finite.replacement_wbs", double(replacementWbs));

        const auto rendered = step("stats::render", [&] {
            const std::pair<const char *, stats::TextTable> exhibits[] = {
                {"table4", analysis::table4(eval)},
                {"figure1",
                 analysis::renderFigure1(analysis::figure1(eval), 5)},
                {"figure2", analysis::figure2(eval)},
                {"figure3", analysis::figure3(eval)},
                {"table5", analysis::table5(eval)},
                {"figure4", analysis::figure4(eval)},
                {"figure5", analysis::figure5(eval)},
                {"section51",
                 analysis::section51(eval, {0.0, 1.0, 2.0, 4.0})},
                {"section52", analysis::section52(eval, noLocks)},
                {"section6", analysis::renderSection6(
                                 analysis::section6(eval, 8.0), 8.0)},
                {"section6_dirinb",
                 analysis::limitedSweepTable(sweep, kPointers)},
            };
            std::vector<std::pair<std::string, std::string>> texts;
            for (const auto &[name, table] : exhibits)
                texts.emplace_back(name, table.toString());
            return texts;
        });
        for (const auto &[name, text] : rendered)
            out.put("exhibit." + name, hex(perfbench::textDigest(text)));
        table5 = table5Row(eval);
        return out;
    }

    Options _opts;
    bool _stream;
    std::vector<gen::WorkloadConfig> _cfgs;
    std::string _storeDir;
};

/** Builds the paper traces cold and returns their Table 5 row: the
 *  accuracy reference that the workloads without a Table 5 of their
 *  own report beside their speed. */
std::vector<double>
referenceTable5(const Options &o)
{
    auto &repo = sim::TraceRepository::global();
    repo.clear();
    const std::vector<gen::WorkloadConfig> cfgs = paperConfigs(o);
    for (const gen::WorkloadConfig &cfg : cfgs)
        step("TraceRepository::get",
             [&] { return repo.get(cfg, prepareOptions(false)); });
    const analysis::Evaluation eval =
        step("analysis::evaluateWorkloads",
             [&] { return analysis::evaluateWorkloads(cfgs); });
    std::vector<double> row = table5Row(eval);
    repo.clear();
    return row;
}

/**
 * machine_sweep: cold scaled machines of 8..64 CPUs whose block
 * counts are multiplied so the 64-CPU engine tables outgrow the LLC.
 * No input is shared, so every pass generates, prepares, replays and
 * costs each machine once on a cold repository.
 */
class MachineSweepWorkload final : public Workload
{
  public:
    explicit MachineSweepWorkload(const Options &o) : _opts(o)
    {
        const unsigned mult = o.tiny ? 1 : kBlockMultiplier;
        const std::vector<unsigned> cpus =
            o.tiny ? std::vector<unsigned>{2, 4}
                   : std::vector<unsigned>{8, 16, 32, 64};
        for (const unsigned n : cpus) {
            gen::WorkloadConfig cfg = gen::scaledConfig(
                n, (o.tiny ? 20'000 : kRefsPerCpu) * std::uint64_t(n));
            gen::AddressSpaceConfig &s = cfg.space;
            for (std::uint32_t *blocks :
                 {&s.codeBlocksPerProc, &s.privateBlocksPerProc,
                  &s.privateHotBlocks, &s.sharedReadBlocks,
                  &s.sharedWriteBlocks, &s.migratoryObjects,
                  &s.osCodeBlocks, &s.osSharedBlocks, &s.osPerCpuBlocks})
                *blocks *= mult;
            _cfgs.push_back(seeded(cfg, o.seed));
        }
    }

    /** No input of its own to build: the setup is the Table 5
     *  accuracy reference. */
    void
    setup(int) override
    {
        table5 = referenceTable5(_opts);
    }

    Results
    pass() override
    {
        auto &repo = sim::TraceRepository::global();
        repo.clear();
        const sim::RepoStats before = repo.stats();
        const bus::BusModels buses = bus::standardBuses();
        Results out;
        for (const gen::WorkloadConfig &cfg : _cfgs) {
            const analysis::Evaluation eval =
                step("analysis::evaluateWorkloads",
                     [&] { return analysis::evaluateWorkloads({cfg}); });
            const analysis::TraceEvaluation &te = eval.traces.front();
            out.engine(cfg.name + ".inval", te.inval);
            out.engine(cfg.name + ".dir1nb", te.dir1nb);
            out.engine(cfg.name + ".dragon", te.dragon);
            for (const analysis::PaperScheme scheme :
                 analysis::paperSchemes()) {
                const sim::CostBreakdown cost =
                    step("sim::computeCost", [&] {
                        return sim::computeCost(
                            analysis::simSchemeFor(scheme),
                            analysis::resultsFor(scheme, te),
                            buses.pipelined);
                    });
                out.put(cfg.name + ".cycles." +
                            analysis::paperSchemeName(scheme),
                        num(cost.total()));
            }
        }
        countRepoDelta(before);
        repo.clear();
        return out;
    }

    void
    verify(const Results &, std::vector<CrossCheck> &) override
    {
    }

    void
    decompose() override
    {
        std::uint64_t genRefs = 0, columnBytes = 0;
        for (const gen::WorkloadConfig &cfg : _cfgs) {
            std::unique_ptr<trace::PreparedTrace> prepared;
            {
                auto s = tracer.span("gen::generatePrepared");
                prepared = std::make_unique<trace::PreparedTrace>(
                    gen::generatePrepared(cfg));
            }
            genRefs += prepared->totalRefs();
            columnBytes += prepared->byteSize();
            replayAlone(cfg, [&](sim::Simulator &sim) {
                return sim.run(*prepared);
            });
        }
        tracer.count("gen.refs", double(genRefs));
        tracer.count("trace.column_bytes", double(columnBytes));
    }

  private:
    static constexpr unsigned kBlockMultiplier = 8;
    static constexpr std::uint64_t kRefsPerCpu = 80'000;

    Options _opts;
    std::vector<gen::WorkloadConfig> _cfgs;
};

/**
 * timed_bus: the contention DES over timed per-CPU streams of pops at
 * published size (four CPUs, the paper's machine) and of a 16-CPU
 * scaled machine whose bus saturates.  thor and pero are left out so
 * a pass stays near three seconds; the four schemes and the three
 * arbitration disciplines are all kept.
 */
class TimedBusWorkload final : public Workload
{
  public:
    explicit TimedBusWorkload(const Options &o) : _opts(o)
    {
        _cfgs = {paperConfigs(o).front()};
        const std::uint64_t refs = o.tiny ? 100'000 : 1'200'000;
        _cfgs.push_back(seeded(gen::scaledConfig(16, refs), o.seed));
    }

    void
    setup(int) override
    {
        // A private repository with one decode thread: the timed
        // streams go through PreparedTraceBuilder, whose decode
        // would otherwise fan out over every hardware thread.
        _traces.clear();
        _repo = std::make_unique<sim::TraceRepository>(1);
        std::uint64_t bytes = 0;
        for (const gen::WorkloadConfig &cfg : _cfgs) {
            _traces.push_back(step("TraceRepository::get", [&] {
                return _repo->get(cfg, prepareOptions(false, true));
            }));
            bytes += _traces.back()->byteSize();
        }
        tracer.count("trace.column_bytes", double(bytes));
    }

    Results
    pass() override
    {
        Results out;
        _runs.clear();
        std::uint64_t transactions = 0, makespan = 0, busy = 0, refs = 0;
        double delaySum = 0.0, delaySamples = 0.0;
        for (std::size_t t = 0; t < _cfgs.size(); ++t) {
            for (const sim::Scheme scheme : kSchemes) {
                for (const timing::Discipline d : disciplinesFor(t)) {
                    timing::TimedBusConfig cfg;
                    cfg.scheme = scheme;
                    cfg.discipline = d;
                    cfg.sim = simConfigOf(_cfgs[t]);
                    const std::string name =
                        "timing::TimedBusSim::run[" +
                        timing::disciplineName(d) + "]";
                    timing::TimedRun run = step(name, [&] {
                        timing::TimedBusSim sim(
                            cfg,
                            makeEngine(kindOf(scheme), unitsOf(_cfgs[t])));
                        return sim.run(*_traces[t]);
                    });
                    const std::string label =
                        _cfgs[t].name + "." + run.scheme + "." +
                        run.discipline;
                    out.put(label + ".refs", std::to_string(run.refs));
                    out.put(label + ".makespan",
                            std::to_string(run.makespan));
                    out.put(label + ".bus_busy",
                            std::to_string(run.busBusyCycles));
                    out.put(label + ".transactions",
                            std::to_string(run.transactions));
                    perfbench::Digest delay;
                    delay.histogram(run.queueDelay);
                    out.put(label + ".queue_delay", hex(delay.value()));
                    perfbench::Digest cpus;
                    for (const timing::CpuTimedStats &c : run.cpus) {
                        cpus.u64(c.refs);
                        cpus.u64(c.transactions);
                        cpus.u64(c.stallCycles);
                        cpus.u64(c.finishCycle);
                    }
                    out.put(label + ".cpus", hex(cpus.value()));
                    out.put(label + ".engine",
                            hex(perfbench::digest(run.engine)));
                    out.refs += run.refs;
                    refs += run.refs;
                    transactions += run.transactions;
                    makespan += run.makespan;
                    busy += run.busBusyCycles;
                    delaySum += run.queueDelay.mean() *
                                double(run.queueDelay.totalSamples());
                    delaySamples += double(run.queueDelay.totalSamples());
                    _runs.push_back({t, scheme, std::move(run)});
                }
            }
        }
        tracer.count("timing.refs", double(refs));
        tracer.count("timing.transactions", double(transactions));
        tracer.count("timing.makespan_cycles", double(makespan));
        tracer.count("timing.bus_busy_cycles", double(busy));
        tracer.count("timing.mean_queue_delay_cycles",
                     delaySamples > 0 ? delaySum / delaySamples : 0.0);
        return out;
    }

    void
    verify(const Results &, std::vector<CrossCheck> &checks) override
    {
        // Contention reorders references but never changes what the
        // bus carries: busy cycles equal the static model's integer
        // charge over the run's own engine statistics.
        const bus::BusCosts costs = timing::timedPipelinedBus().costs;
        for (const TimedCell &cell : _runs) {
            const std::uint64_t expected = timing::staticBusCycles(
                cell.scheme, cell.run.engine, costs);
            checks.push_back(
                {"busy_equals_static:" + _cfgs[cell.trace].name + "." +
                     cell.run.scheme + "." + cell.run.discipline,
                 expected == cell.run.busBusyCycles,
                 "timed " + std::to_string(cell.run.busBusyCycles) +
                     ", static " + std::to_string(expected)});
        }
        table5 = referenceTable5(_opts);
    }

    void
    decompose() override
    {
        // gen and prepare: the two phases of the timed-stream build.
        std::uint64_t genRefs = 0;
        for (const gen::WorkloadConfig &cfg : _cfgs) {
            trace::MemoryTrace raw;
            {
                auto s = tracer.span("gen::generateTrace");
                raw = gen::generateTrace(cfg);
            }
            genRefs += raw.size();
            auto s = tracer.span("trace::PreparedTrace::build");
            const trace::PreparedTrace prepared =
                trace::PreparedTrace::build(raw, prepareOptions(false, true));
        }
        tracer.count("gen.refs", double(genRefs));

        // The engine work inside each timed run: the same per-CPU
        // streams through a fresh engine's access(), one reference at
        // a time, CPUs in turn.  timing.self_s is the timed span time
        // minus this replay time, summed over the pass's runs.
        std::map<std::pair<std::size_t, std::string>, double> replay;
        for (std::size_t t = 0; t < _cfgs.size(); ++t) {
            for (const std::string &kind : kFusedKinds) {
                auto engine = makeEngine(kind, unitsOf(_cfgs[t]));
                engine->reserveBlocks(simConfigOf(_cfgs[t]).expectedBlocks);
                const auto &streams = _traces[t]->cpuStreams();
                std::uint64_t refs = 0;
                const double t0 = tracer.now();
                {
                    const std::string name =
                        "CoherenceEngine::access[" + kind + "]";
                    auto s = tracer.span(name.c_str());
                    std::vector<std::size_t> pos(streams.size(), 0);
                    for (bool more = true; more;) {
                        more = false;
                        for (std::size_t c = 0; c < streams.size(); ++c) {
                            const trace::PreparedCpuStream &cs = streams[c];
                            std::size_t &i = pos[c];
                            if (i == cs.size())
                                continue;
                            engine->access(
                                cs.unit[i],
                                trace::packedRefType(cs.typeFlags[i]),
                                cs.block[i]);
                            ++i;
                            ++refs;
                            more = true;
                        }
                    }
                }
                replay[{t, kind}] = tracer.now() - t0;
                tracer.count("coherence." + kind + ".refs", double(refs));
                tracer.count("coherence." + kind + ".blocks",
                             double(engine->blocksTracked()));
            }
        }
        double equivalent = 0.0;
        for (const TimedCell &cell : _runs)
            equivalent += replay[{cell.trace, kindOf(cell.scheme)}];
        tracer.count("timing.engine_replay_s", equivalent);
    }

  private:
    struct TimedCell
    {
        std::size_t trace;
        sim::Scheme scheme;
        timing::TimedRun run;
    };

    static constexpr sim::Scheme kSchemes[] = {
        sim::Scheme::Dir0B, sim::Scheme::Dir1NB, sim::Scheme::Dragon,
        sim::Scheme::WTI};

    static std::string
    kindOf(sim::Scheme scheme)
    {
        switch (sim::engineKindFor(scheme)) {
          case sim::EngineKind::Limited:
            return "dir1nb";
          case sim::EngineKind::Dragon:
            return "dragon";
          default:
            return "inval";
        }
    }

    /** FCFS everywhere; the 16-CPU machine, where the bus saturates
     *  and arbitration matters, also runs round-robin and fixed
     *  priority. */
    std::vector<timing::Discipline>
    disciplinesFor(std::size_t trace) const
    {
        if (trace + 1 == _cfgs.size())
            return {timing::Discipline::FCFS,
                    timing::Discipline::RoundRobin,
                    timing::Discipline::FixedPriority};
        return {timing::Discipline::FCFS};
    }

    Options _opts;
    std::vector<gen::WorkloadConfig> _cfgs;
    std::unique_ptr<sim::TraceRepository> _repo;
    std::vector<std::shared_ptr<const trace::PreparedTrace>> _traces;
    std::vector<TimedCell> _runs;
};

// --- Runner -------------------------------------------------------

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "paper_replay")
        return std::make_unique<PaperWorkload>(o, false);
    if (o.workload == "paper_stream")
        return std::make_unique<PaperWorkload>(o, true);
    if (o.workload == "machine_sweep")
        return std::make_unique<MachineSweepWorkload>(o);
    if (o.workload == "timed_bus")
        return std::make_unique<TimedBusWorkload>(o);
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

/** perf_event_open probe for the run record; never a failure. */
std::string
hardwareCounters()
{
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.type = PERF_TYPE_HARDWARE;
    attr.size = sizeof(attr);
    attr.config = PERF_COUNT_HW_CPU_CYCLES;
    attr.disabled = 1;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    const long fd = ::syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
    if (fd < 0)
        return std::string("unavailable (perf_event_open: ") +
               std::strerror(errno) + ")";
    ::close(static_cast<int>(fd));
    return "available (not sampled)";
}

double
peakRssMiB()
{
    rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool haveSeconds = false;
    for (int a = 1; a < argc; ++a) {
        const std::string flag = argv[a];
        if (a + 1 >= argc)
            throw std::invalid_argument(flag + " requires a value");
        const std::string value = argv[++a];
        std::size_t used = value.size();
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = std::stoull(value, &used);
        } else if (flag == "--seconds") {
            o.seconds = std::stod(value, &used);
            haveSeconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            o.trace = value == "1";
        } else if (flag == "--size") {
            if (value != "full" && value != "tiny")
                throw std::invalid_argument("--size takes full or tiny");
            o.tiny = value == "tiny";
        } else if (flag == "--data-dir") {
            o.dataDir = value;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
        if (used != value.size())
            throw std::invalid_argument("bad value for " + flag);
    }
    if (o.workload.empty() || !haveSeconds || o.seconds <= 0.0 ||
        o.dataDir.empty())
        throw std::invalid_argument(
            "usage: perfbench --workload NAME --seed N --seconds S "
            "--trace 0|1 --data-dir DIR [--size full|tiny]");
    return o;
}

/** A setup's or a pass's wall time, its step times and the
 *  reference kernel's time before each step. */
struct Timing
{
    double seconds = 0.0;
    std::vector<double> steps;
    std::vector<double> references;
};

void
printNumbers(std::ostringstream &js, const std::vector<double> &steps)
{
    js << "[";
    for (std::size_t i = 0; i < steps.size(); ++i)
        js << (i ? ", " : "") << num(steps[i]);
    js << "]";
}

void
printDocument(const Options &o, const std::vector<Timing> &setup,
              const std::vector<Timing> &passes,
              const std::vector<bool> &traced,
              const std::vector<Results> &results, double peakRss,
              const Workload &workload,
              const std::vector<CrossCheck> &checks)
{
    std::ostringstream js;
    js << "{\"workload\": " << quoted(o.workload)
       << ", \"seed\": " << o.seed
       << ", \"size\": " << quoted(o.tiny ? "tiny" : "full")
       << ", \"traced\": " << (o.trace ? "true" : "false")
       << ",\n \"hardware_counters\": " << quoted(hardwareCounters())
       << ",\n \"peak_rss_mib\": " << num(peakRss)
       << ",\n \"table5_err\": " << num(table5Error(workload.table5))
       << ",\n \"table5_row\": ";
    printNumbers(js, workload.table5);
    js
       << ",\n \"setups\": [";
    for (std::size_t i = 0; i < setup.size(); ++i) {
        js << (i ? ",\n  " : "\n  ") << "{\"seconds\": "
           << num(setup[i].seconds) << ", \"steps\": ";
        printNumbers(js, setup[i].steps);
        js << ", \"references\": ";
        printNumbers(js, setup[i].references);
        js << "}";
    }
    js << "],\n \"passes\": [";
    for (std::size_t p = 0; p < passes.size(); ++p) {
        js << (p ? ",\n  " : "\n  ") << "{\"seconds\": "
           << num(passes[p].seconds)
           << ", \"traced\": " << (traced[p] ? "true" : "false")
           << ", \"refs\": " << results[p].refs << ", \"steps\": ";
        printNumbers(js, passes[p].steps);
        js << ", \"references\": ";
        printNumbers(js, passes[p].references);
        js << ", \"results\": {";
        for (std::size_t i = 0; i < results[p].values.size(); ++i)
            js << (i ? ", " : "") << quoted(results[p].values[i].first)
               << ": " << quoted(results[p].values[i].second);
        js << "}}";
    }
    js << "],\n \"checks\": [";
    for (std::size_t i = 0; i < checks.size(); ++i)
        js << (i ? ",\n  " : "\n  ") << "{\"name\": "
           << quoted(checks[i].name)
           << ", \"ok\": " << (checks[i].ok ? "true" : "false")
           << ", \"detail\": " << quoted(checks[i].detail) << "}";
    js << "],\n \"runs\": [";
    const auto &runs = tracer.runs();
    for (std::size_t i = 0; i < runs.size(); ++i)
        js << (i ? ", " : "") << "{\"kind\": " << quoted(runs[i].kind)
           << ", \"traced\": " << (runs[i].traced ? "true" : "false")
           << "}";
    js << "],\n \"spans\": [";
    const auto &spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i)
        js << (i ? ",\n  " : "\n  ") << "{\"name\": "
           << quoted(spans[i].name) << ", \"start\": "
           << num(spans[i].start) << ", \"end\": " << num(spans[i].end)
           << ", \"parent\": " << spans[i].parent
           << ", \"run\": " << spans[i].run << "}";
    js << "],\n \"counters\": [";
    const auto &counters = tracer.counters();
    for (std::size_t i = 0; i < counters.size(); ++i)
        js << (i ? ",\n  " : "\n  ") << "{\"name\": "
           << quoted(counters[i].name)
           << ", \"value\": " << num(counters[i].value)
           << ", \"run\": " << counters[i].run << "}";
    js << "]}\n";
    std::cout << js.str() << std::flush;
}

int
runBenchmark(const Options &o)
{
    fs::create_directories(o.dataDir);
    const std::unique_ptr<Workload> workload = makeWorkload(o);
    referenceSeconds(); // Fault in its table before the first step.
    CPU_ZERO(&allowedCpus);
    ::sched_getaffinity(0, sizeof(allowedCpus), &allowedCpus);
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowedCpus))
            cpuList.push_back(c);

    std::vector<Timing> setup;
    const auto runSetup = [&](int k) {
        tracer.beginRun("setup", o.trace);
        stepTimes.clear();
        stepReferences.clear();
        nextCpu = static_cast<std::size_t>(k);
        const double t0 = tracer.now();
        {
            auto s = tracer.span("setup");
            workload->setup(k);
        }
        setup.push_back({tracer.now() - t0, stepTimes, stepReferences});
    };
    runSetup(0);

    // Timed passes until the next one would overrun the budget.  A
    // traced run alternates traced and untraced passes, so its
    // tracing overhead is measured within one process.
    std::vector<Timing> passes;
    std::vector<bool> traced;
    std::vector<Results> results;
    const int minPasses = o.trace ? kMinPasses + 1 : kMinPasses;
    const double start = tracer.now();
    for (int p = 0;; ++p) {
        const bool on = o.trace && p % 2 == 0;
        tracer.beginRun("pass", on);
        stepTimes.clear();
        stepReferences.clear();
        nextCpu = static_cast<std::size_t>(p);
        const double t0 = tracer.now();
        {
            auto s = tracer.span("pass");
            results.push_back(workload->pass());
        }
        const double t = tracer.now() - t0;
        passes.push_back({t, stepTimes, stepReferences});
        traced.push_back(on);
        if (p + 1 >= minPasses && tracer.now() - start + t > o.seconds)
            break;
    }
    // One setup and the passes, as a user's process would run them;
    // the setups repeated for setup_s's median come after this reading.
    const double peakRss = peakRssMiB();
    for (int k = 1; k < kSetups; ++k)
        runSetup(k);

    ::sched_setaffinity(0, sizeof(allowedCpus), &allowedCpus);
    std::vector<CrossCheck> checks;
    tracer.beginRun("verify", false);
    workload->verify(results.back(), checks);
    if (o.trace) {
        tracer.beginRun("decompose", true);
        auto s = tracer.span("decompose");
        workload->decompose();
    }
    printDocument(o, setup, passes, traced, results, peakRss, *workload,
                  checks);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    try {
        opts = parseOptions(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
    try {
        return runBenchmark(opts);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << opts.workload << ": " << e.what()
                  << "\n";
        return 1;
    }
}
