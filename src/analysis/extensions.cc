#include "analysis/extensions.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>

#include "bus/bus_model.hh"
#include "bus/network.hh"
#include "directory/coarse_vector.hh"
#include "directory/full_map.hh"
#include "directory/limited_pointer.hh"
#include "directory/two_bit.hh"
#include "coherence/dragon_engine.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "sim/cost_model.hh"
#include "sim/sweep.hh"
#include "sim/trace_repo.hh"
#include "trace/prepared.hh"
#include "trace/store.hh"

namespace dirsim::analysis
{

using stats::TextTable;

std::vector<ScalingPoint>
scalingStudy(const std::vector<unsigned> &cpuCounts,
             std::uint64_t refsPerCpu)
{
    const bus::BusCosts pipe = bus::standardBuses().pipelined;
    std::vector<ScalingPoint> points;
    for (unsigned n : cpuCounts) {
        const gen::WorkloadConfig cfg =
            gen::scaledConfig(n, refsPerCpu * n);
        const Evaluation eval = evaluateWorkloads({cfg});

        ScalingPoint pt;
        pt.nCpus = n;
        const auto &iv = eval.average.inval;
        pt.dir0bCycles =
            sim::computeCost(sim::Scheme::Dir0B, iv, pipe).total();
        pt.dirnnbCycles =
            sim::computeCost(sim::Scheme::DirNNBSeq, iv, pipe).total();
        pt.dir1nbCycles =
            sim::computeCost(sim::Scheme::Dir1NB, eval.average.dir1nb,
                             pipe)
                .total();
        pt.dragonCycles =
            sim::computeCost(sim::Scheme::Dragon, eval.average.dragon,
                             pipe)
                .total();

        stats::Histogram fanout;
        fanout.merge(iv.whClnFanout);
        fanout.merge(iv.wmClnFanout);
        pt.fracAtMostOne = fanout.fracAtMost(1);
        pt.meanFanout = fanout.mean();
        pt.broadcastEventFrac = 1.0 - fanout.fracAtMost(1);
        points.push_back(pt);
    }
    return points;
}

TextTable
renderScaling(const std::vector<ScalingPoint> &points)
{
    TextTable table(
        "Extension A: Scaling beyond 4 CPUs (pipelined bus cycles per "
        "reference)",
        {"CPUs", "Dir1NB", "Dir0B", "DirnNB", "Dragon", "<=1 inval %",
         "mean fanout"});
    for (const ScalingPoint &pt : points) {
        table.addRow({std::to_string(pt.nCpus),
                      TextTable::num(pt.dir1nbCycles),
                      TextTable::num(pt.dir0bCycles),
                      TextTable::num(pt.dirnnbCycles),
                      TextTable::num(pt.dragonCycles),
                      TextTable::pct(pt.fracAtMostOne, 1),
                      TextTable::num(pt.meanFanout, 2)});
    }
    return table;
}

std::vector<FiniteCachePoint>
finiteCacheStudy(const std::vector<std::uint64_t> &capacities,
                 bool fullSize)
{
    const bus::BusCosts pipe = bus::standardBuses().pipelined;
    const auto workloads = gen::standardWorkloads(fullSize);
    std::vector<FiniteCachePoint> points;

    auto analyse = [&](const coherence::EngineResults &r,
                       std::uint64_t capacity) {
        FiniteCachePoint pt;
        pt.capacityBytes = capacity;
        const double refs = static_cast<double>(r.events.totalRefs());
        if (refs > 0.0) {
            pt.readMissFrac =
                static_cast<double>(r.events.readMisses()) / refs;
            pt.writeMissFrac =
                static_cast<double>(r.events.writeMisses()) / refs;
            pt.memoryMissFrac =
                static_cast<double>(
                    r.events.count(coherence::Event::RmMemory) +
                    r.events.count(coherence::Event::WmMemory)) /
                refs;
            pt.replacementWbFrac =
                static_cast<double>(r.replacementWriteBacks) / refs;
        }
        pt.dir0bCycles =
            sim::computeCost(sim::Scheme::Dir0B, r, pipe).total();
        return pt;
    };

    // Infinite baseline first.
    const Evaluation base = evaluateWorkloads(workloads);
    points.push_back(analyse(base.average.inval, 0));

    for (std::uint64_t capacity : capacities) {
        mem::CacheGeometry geom;
        geom.capacityBytes = capacity;
        geom.blockBytes = 16;
        geom.ways = 4;
        points.push_back(analyse(
            invalWithFiniteCaches(workloads, geom), capacity));
    }
    return points;
}

TextTable
renderFiniteCache(const std::vector<FiniteCachePoint> &points)
{
    TextTable table(
        "Extension B: Finite data caches under Dir0B (4-way LRU, "
        "16-byte blocks)",
        {"Capacity", "rm %", "wm %", "uncached-miss %", "repl-wb %",
         "Dir0B cyc/ref"});
    for (const FiniteCachePoint &pt : points) {
        const std::string cap =
            pt.capacityBytes == 0
                ? "infinite"
                : std::to_string(pt.capacityBytes / 1024) + " KiB";
        table.addRow({cap, TextTable::pct(pt.readMissFrac),
                      TextTable::pct(pt.writeMissFrac),
                      TextTable::pct(pt.memoryMissFrac),
                      TextTable::pct(pt.replacementWbFrac),
                      TextTable::num(pt.dir0bCycles)});
    }
    return table;
}

SharingDomainComparison
sharingDomainStudy(double migrationRate, bool fullSize)
{
    // Enable a little process migration so the two domains can
    // actually differ, as in the paper's traces.
    std::vector<gen::WorkloadConfig> workloads =
        gen::standardWorkloads(fullSize);
    for (auto &cfg : workloads) {
        cfg.migrationRate = migrationRate;
        cfg.quantumRefs = 40'000;
    }

    SharingDomainComparison cmp;
    EvalOptions by_process;
    by_process.sim.domain = sim::SharingDomain::Process;
    cmp.byProcess = evaluateWorkloads(workloads, by_process);

    EvalOptions by_processor;
    by_processor.sim.domain = sim::SharingDomain::Processor;
    cmp.byProcessor = evaluateWorkloads(workloads, by_processor);
    return cmp;
}

TextTable
renderSharingDomain(const SharingDomainComparison &cmp)
{
    const bus::BusCosts pipe = bus::standardBuses().pipelined;
    TextTable table(
        "Extension C: Process- vs processor-based sharing (pipelined "
        "bus cycles per reference, with migration enabled)",
        {"Scheme", "By process", "By processor"});

    auto row = [&](const std::string &name, sim::Scheme scheme,
                   const coherence::EngineResults &proc,
                   const coherence::EngineResults &cpu) {
        table.addRow(
            {name,
             TextTable::num(sim::computeCost(scheme, proc, pipe)
                                .total()),
             TextTable::num(sim::computeCost(scheme, cpu, pipe)
                                .total())});
    };
    row("Dir1NB", sim::Scheme::Dir1NB, cmp.byProcess.average.dir1nb,
        cmp.byProcessor.average.dir1nb);
    row("Dir0B", sim::Scheme::Dir0B, cmp.byProcess.average.inval,
        cmp.byProcessor.average.inval);
    row("Dragon", sim::Scheme::Dragon, cmp.byProcess.average.dragon,
        cmp.byProcessor.average.dragon);
    return table;
}

std::vector<NetworkPoint>
networkStudy(const std::vector<unsigned> &cpuCounts,
             std::uint64_t refsPerCpu)
{
    std::vector<NetworkPoint> points;
    for (unsigned n : cpuCounts) {
        const gen::WorkloadConfig cfg =
            gen::scaledConfig(n, refsPerCpu * n);
        const Evaluation eval = evaluateWorkloads({cfg});
        const auto &iv = eval.average.inval;
        const auto &dg = eval.average.dragon;

        bus::NetworkParams net;
        net.nNodes = n;
        const bus::BusCosts directed = bus::networkCosts(net);
        const double bcast = bus::networkBroadcastCost(net);

        NetworkPoint pt;
        pt.nCpus = n;

        // Two-bit directory: no identities, every invalidation and
        // flush request is an emulated broadcast.
        bus::BusCosts broadcast_costs = directed;
        broadcast_costs.invalidate = static_cast<unsigned>(bcast);
        pt.dir0bBroadcast =
            sim::computeCost(sim::Scheme::Dir0B, iv, broadcast_costs)
                .total();

        pt.dirnnbDirected =
            sim::computeCost(sim::Scheme::DirNNBSeq, iv, directed)
                .total();

        sim::CostOptions opts;
        opts.broadcastCost = bcast;
        opts.nPointers = 1;
        pt.dir1b = sim::computeCost(sim::Scheme::DirIB, iv, directed,
                                    opts)
                       .total();
        opts.nPointers = 4;
        pt.dir4b = sim::computeCost(sim::Scheme::DirIB, iv, directed,
                                    opts)
                       .total();

        // Snoopy write-through: every write must reach every cache.
        bus::BusCosts wti_costs = directed;
        wti_costs.writeWord =
            static_cast<unsigned>(bcast) + 1;
        pt.wtiBroadcast =
            sim::computeCost(sim::Scheme::WTI, iv, wti_costs).total();

        // Directory-assisted update protocol: one directed update per
        // actual remote copy (the engines record update fanouts).
        const sim::CostBreakdown dragon_base =
            sim::computeCost(sim::Scheme::Dragon, dg, directed);
        const double refs =
            static_cast<double>(dg.events.totalRefs());
        const double update_events =
            static_cast<double>(dg.events.count(
                coherence::Event::WhDistrib)) +
            static_cast<double>(dg.events.count(
                coherence::Event::WmBlkCln)) +
            static_cast<double>(dg.events.count(
                coherence::Event::WmBlkDrty));
        const double update_messages =
            static_cast<double>(dg.whClnFanout.totalWeight()) +
            static_cast<double>(dg.wmClnFanout.totalWeight());
        // The base model charged one writeWord per update event;
        // charge the extra messages beyond the first.
        const double extra =
            refs == 0.0 ? 0.0
                        : (update_messages - update_events) *
                              directed.writeWord / refs;
        pt.dragonDirected = dragon_base.total() + std::max(0.0, extra);

        points.push_back(pt);
    }
    return points;
}

TextTable
renderNetwork(const std::vector<NetworkPoint> &points)
{
    TextTable table(
        "Extension E: protocols on a point-to-point network "
        "(channel cycles per reference; broadcast = n-1 messages)",
        {"CPUs", "Dir0B (bcast)", "DirnNB", "Dir1B", "Dir4B",
         "WTI (snoop)", "Dragon (dir)"});
    for (const NetworkPoint &pt : points) {
        table.addRow({std::to_string(pt.nCpus),
                      TextTable::num(pt.dir0bBroadcast),
                      TextTable::num(pt.dirnnbDirected),
                      TextTable::num(pt.dir1b),
                      TextTable::num(pt.dir4b),
                      TextTable::num(pt.wtiBroadcast),
                      TextTable::num(pt.dragonDirected)});
    }
    return table;
}

std::vector<HomeLocalityPoint>
homeLocalityStudy(const std::vector<unsigned> &cpuCounts,
                  std::uint64_t refsPerCpu)
{
    std::vector<HomeLocalityPoint> points;
    for (unsigned n : cpuCounts) {
        const gen::WorkloadConfig cfg =
            gen::scaledConfig(n, refsPerCpu * n);

        auto run = [&](coherence::HomePolicy policy) {
            sim::Simulator simulator;
            coherence::InvalEngineConfig icfg;
            icfg.nUnits = n;
            icfg.homePolicy = policy;
            auto &engine = simulator.addEngine(
                std::make_unique<coherence::InvalEngine>(icfg));
            gen::WorkloadSource source(cfg);
            simulator.run(source);
            return engine.results();
        };
        const auto modulo = run(coherence::HomePolicy::Modulo);
        const auto first = run(coherence::HomePolicy::FirstTouch);

        auto local_frac = [](const coherence::EngineResults &r) {
            const double total = static_cast<double>(
                r.homeLocalTransactions + r.homeRemoteTransactions);
            return total == 0.0
                       ? 0.0
                       : static_cast<double>(r.homeLocalTransactions) /
                             total;
        };
        auto remote_per_ref = [](const coherence::EngineResults &r) {
            const double refs =
                static_cast<double>(r.events.totalRefs());
            return refs == 0.0
                       ? 0.0
                       : static_cast<double>(
                             r.homeRemoteTransactions) /
                             refs;
        };

        HomeLocalityPoint pt;
        pt.nCpus = n;
        pt.moduloLocalFrac = local_frac(modulo);
        pt.firstTouchLocalFrac = local_frac(first);
        pt.moduloRemotePerRef = remote_per_ref(modulo);
        pt.firstTouchRemotePerRef = remote_per_ref(first);
        points.push_back(pt);
    }
    return points;
}

TextTable
renderHomeLocality(const std::vector<HomeLocalityPoint> &points)
{
    TextTable table(
        "Extension G: distributed-directory locality (fraction of "
        "home-node transactions kept local)",
        {"CPUs", "Interleaved local %", "First-touch local %",
         "Interleaved remote/ref", "First-touch remote/ref"});
    for (const HomeLocalityPoint &pt : points) {
        table.addRow({std::to_string(pt.nCpus),
                      TextTable::pct(pt.moduloLocalFrac, 1),
                      TextTable::pct(pt.firstTouchLocalFrac, 1),
                      TextTable::num(pt.moduloRemotePerRef),
                      TextTable::num(pt.firstTouchRemotePerRef)});
    }
    return table;
}

std::vector<DirectoryMessageStats>
directoryMessageStudy(bool fullSize)
{
    const auto workloads = gen::standardWorkloads(fullSize);

    struct Named
    {
        std::string name;
        std::unique_ptr<directory::DirEntryFactory> factory;
    };
    std::vector<Named> organizations;
    organizations.push_back(
        {"Full map (DirnNB)",
         std::make_unique<directory::FullMapFactory>()});
    organizations.push_back(
        {"Two-bit (Dir0B)",
         std::make_unique<directory::TwoBitFactory>()});
    organizations.push_back(
        {"Dir1B", std::make_unique<directory::LimitedPointerFactory>(
                      1, true)});
    organizations.push_back(
        {"Dir2B", std::make_unique<directory::LimitedPointerFactory>(
                      2, true)});
    organizations.push_back(
        {"Coarse vector",
         std::make_unique<directory::CoarseVectorFactory>()});

    std::vector<DirectoryMessageStats> rows;
    for (const Named &org : organizations) {
        const coherence::EngineResults r =
            invalWithDirectory(workloads, *org.factory);
        const double events = static_cast<double>(
            r.whClnFanout.totalSamples() + r.wmClnFanout.totalSamples() +
            r.events.count(coherence::Event::WmBlkDrty));
        DirectoryMessageStats stats;
        stats.organization = org.name;
        if (events > 0.0) {
            stats.directedPerInvalEvent =
                static_cast<double>(r.dirDirectedInvals) / events;
            stats.broadcastFrac =
                static_cast<double>(r.dirBroadcasts) / events;
            stats.overshootPerEvent =
                static_cast<double>(r.dirOvershoot) / events;
        }
        rows.push_back(stats);
    }
    return rows;
}

TextTable
renderDirectoryMessages(const std::vector<DirectoryMessageStats> &rows)
{
    TextTable table(
        "Extension D: Invalidation messages by directory organisation "
        "(per invalidating event)",
        {"Organisation", "Directed msgs", "Broadcast %",
         "Overshoot msgs"});
    for (const DirectoryMessageStats &row : rows) {
        table.addRow({row.organization,
                      TextTable::num(row.directedPerInvalEvent, 3),
                      TextTable::pct(row.broadcastFrac, 1),
                      TextTable::num(row.overshootPerEvent, 3)});
    }
    return table;
}

namespace
{

/** Pops references per ablation run (F1-F3). */
constexpr std::uint64_t ablationRefs = 300'000;

} // namespace

std::vector<BlockSizePoint>
blockSizeStudy(const std::vector<unsigned> &blockBytes)
{
    std::vector<BlockSizePoint> points;
    for (const unsigned bytes : blockBytes) {
        gen::WorkloadConfig cfg = gen::popsConfig();
        cfg.totalRefs = ablationRefs;
        EvalOptions opts;
        opts.sim.blockBytes = bytes;
        const Evaluation eval = evaluateWorkloads({cfg}, opts);

        bus::BusPrimitives prim;
        prim.wordsPerBlock = std::max(1u, bytes / 4);
        const bus::BusCosts pipe = bus::pipelinedBus(prim);

        const coherence::EngineResults &iv = eval.average.inval;
        const double total = static_cast<double>(iv.events.totalRefs());
        BlockSizePoint pt;
        pt.blockBytes = bytes;
        pt.readMissFrac =
            static_cast<double>(iv.events.readMisses()) / total;
        pt.writeHitCleanFrac =
            static_cast<double>(iv.events.writeHitsClean()) / total;
        pt.dir0bCycles =
            sim::computeCost(sim::Scheme::Dir0B, iv, pipe).total();
        pt.dragonCycles = sim::computeCost(sim::Scheme::Dragon,
                                           eval.average.dragon, pipe)
                              .total();
        points.push_back(pt);
    }
    return points;
}

TextTable
renderBlockSize(const std::vector<BlockSizePoint> &points)
{
    TextTable table(
        "Ablation F1: coherence block size (pops workload, pipelined "
        "bus)",
        {"Block", "Dir0B rm %", "wh-cln %", "Dir0B cyc/ref",
         "Dragon cyc/ref"});
    for (const BlockSizePoint &pt : points)
        table.addRow({std::to_string(pt.blockBytes) + "B",
                      TextTable::pct(pt.readMissFrac),
                      TextTable::pct(pt.writeHitCleanFrac),
                      TextTable::num(pt.dir0bCycles),
                      TextTable::num(pt.dragonCycles)});
    return table;
}

std::vector<LockLayoutPoint>
lockLayoutStudy()
{
    const bus::BusCosts pipe = bus::standardBuses().pipelined;
    std::vector<LockLayoutPoint> points;
    for (const bool falseSharing : {false, true}) {
        gen::WorkloadConfig cfg = gen::popsConfig();
        cfg.totalRefs = ablationRefs;
        cfg.behavior.nHotLocks = 2;
        cfg.space.falseSharingLocks = falseSharing;
        const Evaluation eval = evaluateWorkloads({cfg});
        LockLayoutPoint pt;
        pt.falseSharing = falseSharing;
        pt.dir1nbCycles = sim::computeCost(sim::Scheme::Dir1NB,
                                           eval.average.dir1nb, pipe)
                              .total();
        pt.dir0bCycles = sim::computeCost(sim::Scheme::Dir0B,
                                          eval.average.inval, pipe)
                             .total();
        pt.dragonCycles = sim::computeCost(sim::Scheme::Dragon,
                                           eval.average.dragon, pipe)
                              .total();
        points.push_back(pt);
    }
    return points;
}

TextTable
renderLockLayout(const std::vector<LockLayoutPoint> &points)
{
    TextTable table(
        "Ablation F2: lock placement (pops workload, pipelined bus "
        "cycles per reference)",
        {"Layout", "Dir1NB", "Dir0B", "Dragon"});
    for (const LockLayoutPoint &pt : points)
        table.addRow(
            {pt.falseSharing ? "2 locks / block" : "1 lock / block",
             TextTable::num(pt.dir1nbCycles),
             TextTable::num(pt.dir0bCycles),
             TextTable::num(pt.dragonCycles)});
    return table;
}

std::vector<MigrationPoint>
migrationStudy(const std::vector<double> &rates)
{
    const bus::BusCosts pipe = bus::standardBuses().pipelined;
    std::vector<MigrationPoint> points;
    for (const double rate : rates) {
        gen::WorkloadConfig cfg = gen::popsConfig();
        cfg.totalRefs = ablationRefs;
        cfg.migrationRate = rate;
        cfg.quantumRefs = 20'000;
        EvalOptions opts;
        opts.sim.domain = sim::SharingDomain::Processor;
        opts.nUnits = cfg.space.nCpus;
        const Evaluation eval = evaluateWorkloads({cfg}, opts);
        MigrationPoint pt;
        pt.rate = rate;
        pt.dir0bCycles = sim::computeCost(sim::Scheme::Dir0B,
                                          eval.average.inval, pipe)
                             .total();
        pt.dragonCycles = sim::computeCost(sim::Scheme::Dragon,
                                           eval.average.dragon, pipe)
                              .total();
        points.push_back(pt);
    }
    return points;
}

TextTable
renderMigration(const std::vector<MigrationPoint> &points)
{
    TextTable table(
        "Ablation F3: process migration rate (pops workload, "
        "processor-domain sharing, pipelined bus)",
        {"Migration/quantum", "Dir0B", "Dragon"});
    for (const MigrationPoint &pt : points)
        table.addRow({TextTable::num(pt.rate, 2),
                      TextTable::num(pt.dir0bCycles),
                      TextTable::num(pt.dragonCycles)});
    return table;
}

namespace
{

/** DiriNB pointer counts (and DiriB columns) of the dir-cache study. */
const std::vector<unsigned> dirCachePointers = {1, 2, 4};

/** Every engine of one dir-cache point over its workload's spans. */
DirCachePoint
dirCachePoint(const gen::WorkloadConfig &cfg,
              trace::PreparedSpanSource &spans, std::uint64_t entries)
{
    directory::DirCacheConfig dc; // 4-way
    dc.enabled = true;
    dc.entries = entries;

    const unsigned units = cfg.space.nProcesses;
    sim::Simulator simulator;
    coherence::InvalEngineConfig icfg;
    icfg.nUnits = units;
    icfg.dirCache = dc;
    const auto &inval = static_cast<const coherence::InvalEngine &>(
        simulator.addEngine(
            std::make_unique<coherence::InvalEngine>(icfg)));
    std::vector<const coherence::CoherenceEngine *> limited;
    for (const unsigned i : dirCachePointers)
        limited.push_back(&simulator.addEngine(
            std::make_unique<coherence::LimitedEngine>(units, i, dc)));
    simulator.run(spans);

    DirCachePoint point;
    point.workload = cfg.name;
    point.entries = entries;
    point.inval = inval.results();
    for (const coherence::CoherenceEngine *engine : limited)
        point.limited.push_back(engine->results());
    point.setReplacements = inval.dirCache()->setReplacements();
    return point;
}

std::string
entriesLabel(std::uint64_t entries)
{
    return entries == 0 ? "inf" : std::to_string(entries);
}

/** True where @p points[i] closes its workload's group. */
bool
lastOfGroup(const std::vector<DirCachePoint> &points, std::size_t i)
{
    return i + 1 == points.size() ||
           points[i + 1].workload != points[i].workload;
}

} // namespace

std::vector<DirCachePoint>
dirCacheStudy(const std::vector<gen::WorkloadConfig> &workloads,
              const std::vector<std::uint64_t> &entries)
{
    // Decode each workload once, in memory or (like every defaulted
    // evaluation under defaultStreamReplay()) as a stored file; every
    // point replays the shared trace, and runOrdered returns points in
    // submission order, so the study is identical at every job count.
    sim::TraceRepository &repo = sim::TraceRepository::global();
    std::vector<std::function<DirCachePoint()>> tasks;
    for (const gen::WorkloadConfig &cfg : workloads) {
        std::shared_ptr<const trace::StoredTrace> stored;
        std::shared_ptr<const trace::PreparedTrace> prepared;
        if (defaultStreamReplay())
            stored = repo.getStored(cfg);
        else
            prepared = repo.get(cfg);
        for (const std::uint64_t n : entries) {
            tasks.push_back([&cfg, stored, prepared, n] {
                if (stored)
                    return dirCachePoint(cfg, *stored->spanCursor(), n);
                trace::PreparedTraceSpans spans(*prepared);
                return dirCachePoint(cfg, spans, n);
            });
        }
    }
    return sim::runOrdered<DirCachePoint>(defaultEvalJobs(), tasks);
}

TextTable
renderDirCache(const std::vector<DirCachePoint> &points)
{
    const bus::BusCosts bus = bus::pipelinedBus();
    TextTable table(
        "Directory-cache size vs bus cycles/ref (pipelined bus)",
        {"workload", "entries", "dir1b", "dir2b", "dir4b", "dirnnb",
         "dir1nb", "dir2nb", "dir4nb"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        const DirCachePoint &p = points[i];
        std::vector<std::string> row = {p.workload,
                                        entriesLabel(p.entries)};
        sim::CostOptions opts;
        for (const unsigned n : dirCachePointers) {
            opts.nPointers = n;
            row.push_back(TextTable::num(
                sim::computeCost(sim::Scheme::DirIB, p.inval, bus, opts)
                    .total(),
                3));
        }
        row.push_back(TextTable::num(
            sim::computeCost(sim::Scheme::DirNNBSeq, p.inval, bus)
                .total(),
            3));
        for (std::size_t k = 0; k < dirCachePointers.size(); ++k) {
            opts.nPointers = dirCachePointers[k];
            const sim::Scheme scheme = dirCachePointers[k] == 1
                                           ? sim::Scheme::Dir1NB
                                           : sim::Scheme::DirINB;
            row.push_back(TextTable::num(
                sim::computeCost(scheme, p.limited[k], bus, opts)
                    .total(),
                3));
        }
        table.addRow(row);
        if (lastOfGroup(points, i)) {
            // Broadcast needs no directory, so Dir0B is flat across
            // every cache size.
            const std::string dir0b = TextTable::num(
                sim::computeCost(sim::Scheme::Dir0B, p.inval, bus)
                    .total(),
                3);
            table.addRow({p.workload, "dir0b", dir0b, dir0b, dir0b,
                          "-", "-", "-", "-"});
            table.addSeparator();
        }
    }
    return table;
}

TextTable
renderDirCacheLocality(const std::vector<DirCachePoint> &points)
{
    TextTable table(
        "Directory-cache replacement locality (inval engine)",
        {"workload", "entries", "hit rate", "evictions", "ev-invals",
         "ev-wbacks", "sets", "repl min/mean/max"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        const DirCachePoint &p = points[i];
        const coherence::EngineResults &r = p.inval;
        const std::uint64_t lookups = r.dirCacheHits + r.dirCacheMisses;
        const std::vector<std::uint64_t> &repl = p.setReplacements;
        std::uint64_t total = 0;
        for (const std::uint64_t n : repl)
            total += n;
        const std::string spread =
            repl.empty()
                ? "0/0.000/0"
                : std::to_string(
                      *std::min_element(repl.begin(), repl.end())) +
                      "/" +
                      TextTable::num(static_cast<double>(total) /
                                         static_cast<double>(
                                             repl.size()),
                                     3) +
                      "/" +
                      std::to_string(
                          *std::max_element(repl.begin(), repl.end()));
        table.addRow(
            {p.workload, entriesLabel(p.entries),
             TextTable::num(lookups ? static_cast<double>(
                                          r.dirCacheHits) /
                                          static_cast<double>(lookups)
                                    : 0.0,
                            3),
             std::to_string(r.dirCacheEvictions),
             std::to_string(r.dirCacheEvictionInvals),
             std::to_string(r.dirCacheEvictionWriteBacks),
             std::to_string(repl.size()), spread});
        if (lastOfGroup(points, i))
            table.addSeparator();
    }
    return table;
}

namespace
{

const std::vector<sim::Scheme> contentionSchemes = {
    sim::Scheme::Dir0B, sim::Scheme::Dir1NB, sim::Scheme::Dragon,
    sim::Scheme::WTI};

/** The engine a contention cell replays @p scheme with. */
std::unique_ptr<coherence::CoherenceEngine>
contentionEngine(sim::Scheme scheme, unsigned units)
{
    switch (sim::engineKindFor(scheme)) {
      case sim::EngineKind::Limited:
        return std::make_unique<coherence::LimitedEngine>(units, 1);
      case sim::EngineKind::Dragon:
        return std::make_unique<coherence::DragonEngine>(units);
      default: {
        coherence::InvalEngineConfig cfg;
        cfg.nUnits = units;
        return std::make_unique<coherence::InvalEngine>(cfg);
      }
    }
}

/** One row per scheme, one column per CPU count. */
TextTable
contentionGrid(const ContentionStudy &study, const std::string &title,
               double (timing::TimedRun::*stat)() const)
{
    std::vector<std::string> headers = {"Scheme"};
    for (const unsigned n : study.cpuCounts)
        headers.push_back("n=" + std::to_string(n));
    TextTable table(title, headers);
    const std::size_t width = study.cpuCounts.size();
    for (std::size_t r = 0; r < study.scaling.size(); r += width) {
        std::vector<std::string> row = {study.scaling[r].scheme};
        for (std::size_t c = 0; c < width; ++c)
            row.push_back(
                TextTable::num((study.scaling[r + c].*stat)()));
        table.addRow(row);
    }
    return table;
}

} // namespace

ContentionStudy
contentionStudy(const std::vector<unsigned> &cpuCounts,
                unsigned arbitrationCpus, std::uint64_t refsPerCpu)
{
    // Each CPU count's machine is generated and lowered once, with
    // timed streams, and shared by every cell that replays it.
    std::map<unsigned, std::shared_ptr<const trace::PreparedTrace>>
        machines;
    std::vector<std::function<timing::TimedRun()>> tasks;
    const auto add = [&](sim::Scheme scheme, unsigned nCpus,
                         timing::Discipline discipline) {
        const gen::WorkloadConfig workload =
            gen::scaledConfig(nCpus, refsPerCpu * nCpus);
        std::shared_ptr<const trace::PreparedTrace> &machine =
            machines[nCpus];
        if (!machine) {
            gen::WorkloadSource source(workload);
            trace::PrepareOptions opts;
            opts.timedStreams = true;
            machine = std::make_shared<const trace::PreparedTrace>(
                trace::PreparedTrace::build(source, workload.name, opts));
        }
        timing::TimedBusConfig config;
        config.scheme = scheme;
        config.bus = timing::timedPipelinedBus();
        config.discipline = discipline;
        tasks.push_back(
            [config, units = workload.space.nProcesses, machine] {
                timing::TimedBusSim sim(
                    config, contentionEngine(config.scheme, units));
                return sim.run(*machine);
            });
    };

    // One task per cell; runOrdered returns the timed runs in
    // submission order at every job count.
    for (const sim::Scheme scheme : contentionSchemes)
        for (const unsigned n : cpuCounts)
            add(scheme, n, timing::Discipline::FCFS);
    for (const auto d :
         {timing::Discipline::FCFS, timing::Discipline::RoundRobin,
          timing::Discipline::FixedPriority})
        add(sim::Scheme::WTI, arbitrationCpus, d);
    std::vector<timing::TimedRun> runs =
        sim::runOrdered<timing::TimedRun>(defaultEvalJobs(), tasks);

    ContentionStudy study;
    study.cpuCounts = cpuCounts;
    const std::size_t nScaling =
        contentionSchemes.size() * cpuCounts.size();
    for (std::size_t r = 0; r < runs.size(); ++r)
        (r < nScaling ? study.scaling : study.arbitration)
            .push_back(std::move(runs[r]));
    return study;
}

TextTable
renderUtilization(const ContentionStudy &study)
{
    return contentionGrid(
        study,
        "Timed pipelined bus: utilization (fraction of makespan busy)",
        &timing::TimedRun::busUtilization);
}

TextTable
renderQueueDelay(const ContentionStudy &study)
{
    return contentionGrid(
        study, "Mean queueing delay per bus transaction (cycles)",
        &timing::TimedRun::meanQueueDelay);
}

TextTable
renderArbitration(const ContentionStudy &study)
{
    const unsigned cpus = study.arbitration.front().nCpus;
    TextTable table("Arbitration at a saturated bus (WTI, " +
                        std::to_string(cpus) +
                        " CPUs): who eats the stall",
                    {"Discipline", "Util", "Mean delay", "p95 delay",
                     "Stall cpu0", "Stall cpu" + std::to_string(cpus - 1)});
    for (const timing::TimedRun &run : study.arbitration)
        table.addRow({run.discipline, TextTable::num(run.busUtilization()),
                      TextTable::num(run.meanQueueDelay()),
                      TextTable::num(run.p95QueueDelay()),
                      TextTable::num(run.cpus.front().stallFraction()),
                      TextTable::num(run.cpus.back().stallFraction())});
    return table;
}

} // namespace dirsim::analysis
