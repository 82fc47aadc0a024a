/**
 * @file
 * Tests for the timed bus subsystem.
 *
 * The load-bearing property: with one CPU the bus is free at every
 * request, so the timed simulator's total bus-busy cycles equal the
 * static cost model's total *exactly* — integer cycle for integer
 * cycle — for every scheme × workload × bus organisation.  On top of
 * that: the cycles-equal-static invariant holds for any CPU count
 * (per-reference charges sum to the aggregate), runs are
 * deterministic, the contention study is bit-identical across worker
 * counts, utilization grows with CPU count, the arbitration
 * disciplines behave per their contracts (including fixed-priority
 * starvation, and each grant of the literal reference loop), and
 * recorded digests pin the exact schedule of every field of 144
 * contended runs (TimedGoldenTest).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/extensions.hh"
#include "bus/bus_model.hh"
#include "coherence/berkeley_engine.hh"
#include "coherence/dragon_engine.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "gen/rng.hh"
#include "gen/workload.hh"
#include "gen/workloads.hh"
#include "golden_data.hh"
#include "sim/cost_model.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "timing/arbiter.hh"
#include "timing/timed_bus.hh"
#include "timing/transactions.hh"
#include "trace/prepared.hh"
#include "trace/trace.hh"

namespace
{

using namespace dirsim;

const std::vector<sim::Scheme> allSchemes = {
    sim::Scheme::Dir1NB,    sim::Scheme::DirINB,
    sim::Scheme::Dir0B,     sim::Scheme::DirNNBSeq,
    sim::Scheme::DirIB,     sim::Scheme::WTI,
    sim::Scheme::Dragon,    sim::Scheme::Berkeley,
    sim::Scheme::YenFu,     sim::Scheme::BerkeleyOwn,
    sim::Scheme::MESI,
};

/**
 * The engine each scheme is costed from: the engineKindFor() mapping,
 * with BerkeleyOwn on the real ownership engine the way the Section 5
 * exhibit (analysis::section5Berkeley) pairs them.
 */
std::unique_ptr<coherence::CoherenceEngine>
engineFor(sim::Scheme scheme, unsigned units, unsigned nPointers)
{
    if (scheme == sim::Scheme::BerkeleyOwn)
        return std::make_unique<coherence::BerkeleyEngine>(units);
    switch (sim::engineKindFor(scheme)) {
      case sim::EngineKind::Limited:
        return std::make_unique<coherence::LimitedEngine>(
            units, scheme == sim::Scheme::Dir1NB ? 1 : nPointers);
      case sim::EngineKind::Dragon:
        return std::make_unique<coherence::DragonEngine>(units);
      case sim::EngineKind::Berkeley:
        return std::make_unique<coherence::BerkeleyEngine>(units);
      case sim::EngineKind::Inval:
      default: {
        coherence::InvalEngineConfig cfg;
        cfg.nUnits = units;
        return std::make_unique<coherence::InvalEngine>(cfg);
      }
    }
}

/** Cost options exercising pointers, broadcast and q-overhead. */
sim::CostOptions
testOpts()
{
    sim::CostOptions opts;
    opts.nPointers = 2;
    opts.broadcastCost = 4.0;
    opts.overheadQ = 1.0;
    return opts;
}

/**
 * Small standard workloads squeezed onto one CPU.  A short quantum
 * keeps all four processes interleaving (and therefore sharing) even
 * though a single processor issues every reference.
 */
std::vector<gen::WorkloadConfig>
oneCpuWorkloads()
{
    auto cfgs = gen::standardWorkloads();
    for (auto &cfg : cfgs) {
        cfg.totalRefs = 30'000;
        cfg.space.nCpus = 1;
        cfg.quantumRefs = 500;
    }
    return cfgs;
}

timing::TimedBusConfig
timedConfig(sim::Scheme scheme, const timing::TimedBusModel &bus,
            timing::Discipline d = timing::Discipline::FCFS)
{
    timing::TimedBusConfig cfg;
    cfg.scheme = scheme;
    cfg.costOpts = testOpts();
    cfg.bus = bus;
    cfg.discipline = d;
    return cfg;
}

timing::TimedRun
runTimed(const timing::TimedBusConfig &cfg,
         const gen::WorkloadConfig &workload)
{
    timing::TimedBusSim sim(
        cfg, engineFor(cfg.scheme, workload.space.nProcesses,
                       cfg.costOpts.nPointers));
    gen::WorkloadSource source(workload);
    return sim.run(source);
}

// --- Arbiters --------------------------------------------------------

timing::BusRequest
req(unsigned cpu, std::uint64_t arrival, std::uint64_t seq)
{
    timing::BusRequest r;
    r.cpu = cpu;
    r.arrival = arrival;
    r.seq = seq;
    r.busCycles = 1;
    return r;
}

TEST(ArbiterTest, FcfsGrantsOldestThenIssueOrder)
{
    const auto arb =
        timing::BusArbiter::make(timing::Discipline::FCFS, 4);
    EXPECT_EQ(arb->discipline(), timing::Discipline::FCFS);
    const std::vector<timing::BusRequest> waiting = {
        req(2, 5, 10), req(0, 3, 11), req(1, 3, 9)};
    // Earliest arrival is cycle 3; the tie breaks on issue order.
    EXPECT_EQ(arb->pick(waiting), 2u);
}

TEST(ArbiterTest, RoundRobinRotatesAfterLastGrantee)
{
    const auto arb =
        timing::BusArbiter::make(timing::Discipline::RoundRobin, 4);
    // Initial state: priority starts at cpu 0.
    std::vector<timing::BusRequest> waiting = {req(2, 0, 0),
                                               req(0, 0, 1)};
    EXPECT_EQ(arb->pick(waiting), 1u); // cpu 0
    arb->granted(0);
    // Priority now starts at cpu 1, so cpu 2 beats cpu 0.
    EXPECT_EQ(arb->pick(waiting), 0u); // cpu 2
    arb->granted(2);
    // Priority starts at cpu 3 and wraps: cpu 0 beats cpu 2.
    EXPECT_EQ(arb->pick(waiting), 1u);
    // reset() restores the initial rotation.
    arb->reset();
    EXPECT_EQ(arb->pick(waiting), 1u); // cpu 0 again
}

TEST(ArbiterTest, FixedPriorityGrantsLowestCpu)
{
    const auto arb = timing::BusArbiter::make(
        timing::Discipline::FixedPriority, 4);
    const std::vector<timing::BusRequest> waiting = {
        req(3, 0, 0), req(1, 7, 1), req(2, 2, 2)};
    // Arrival times are ignored entirely.
    EXPECT_EQ(arb->pick(waiting), 1u);
}

TEST(ArbiterTest, NamesRoundTripAndGarbageThrows)
{
    for (const auto d :
         {timing::Discipline::FCFS, timing::Discipline::RoundRobin,
          timing::Discipline::FixedPriority})
        EXPECT_EQ(timing::parseDiscipline(timing::disciplineName(d)),
                  d);
    EXPECT_THROW(timing::parseDiscipline("lifo"),
                 std::invalid_argument);
    EXPECT_THROW(timing::BusArbiter::make(timing::Discipline::FCFS, 0),
                 std::invalid_argument);
}

// --- Transaction model validation ------------------------------------

TEST(TransactionModelTest, RejectsNonIntegerCycleOptions)
{
    const auto bus = bus::standardBuses().pipelined;
    sim::CostOptions opts;
    opts.broadcastCost = 2.5;
    EXPECT_THROW(
        timing::TransactionModel(sim::Scheme::DirIB, bus, opts),
        std::invalid_argument);
    opts.broadcastCost = 4.0;
    opts.overheadQ = 0.1;
    EXPECT_THROW(
        timing::TransactionModel(sim::Scheme::Dir0B, bus, opts),
        std::invalid_argument);
    opts.overheadQ = -1.0;
    EXPECT_THROW(
        timing::TransactionModel(sim::Scheme::Dir0B, bus, opts),
        std::invalid_argument);
}

// --- Zero-contention equivalence (the anchor) ------------------------

/**
 * One CPU, every scheme, every bus organisation, all three standard
 * workloads: the timed run must degenerate to the static cost model —
 * identical engine statistics, exactly equal integer bus cycles, and
 * a per-reference cost matching computeCost().total() to fp noise.
 */
TEST(ZeroContentionTest, TimedRunEqualsStaticCostModel)
{
    const auto opts = testOpts();
    const std::vector<timing::TimedBusModel> buses = {
        timing::timedPipelinedBus(), timing::timedNonPipelinedBus()};

    for (const auto &workload : oneCpuWorkloads()) {
        for (const sim::Scheme scheme : allSchemes) {
            // Untimed reference run of the same stream.
            sim::Simulator untimed;
            auto &engine = untimed.addEngine(engineFor(
                scheme, workload.space.nProcesses, opts.nPointers));
            gen::WorkloadSource source(workload);
            untimed.run(source);

            for (const auto &bus : buses) {
                const timing::TimedRun run =
                    runTimed(timedConfig(scheme, bus), workload);
                const std::string label = run.scheme + " / " +
                                          run.bus + " / " +
                                          workload.name;

                ASSERT_EQ(run.nCpus, 1u) << label;
                EXPECT_EQ(run.refs, workload.totalRefs) << label;

                // Same interleaving -> identical engine statistics.
                EXPECT_TRUE(run.engine == engine.results()) << label;

                // The integer-exact equivalence.
                EXPECT_EQ(run.busBusyCycles,
                          timing::staticBusCycles(scheme, run.engine,
                                                  bus.costs, opts))
                    << label;

                // And the continuous model agrees per reference.
                const double static_total =
                    sim::computeCost(scheme, run.engine, bus.costs,
                                     opts)
                        .total();
                EXPECT_NEAR(run.busCyclesPerRef(), static_total, 1e-9)
                    << label;

                // A lone CPU never queues.
                EXPECT_EQ(run.queueDelay.maxValue(), 0u) << label;
                EXPECT_EQ(run.meanQueueDelay(), 0.0) << label;
                EXPECT_EQ(run.p95QueueDelay(), 0.0) << label;
                EXPECT_EQ(run.queueDelay.totalSamples(),
                          run.transactions)
                    << label;
            }
        }
    }
}

// --- Contended runs --------------------------------------------------

gen::WorkloadConfig
fourCpuWorkload()
{
    auto cfg = gen::standardWorkloads()[0];
    cfg.totalRefs = 30'000;
    return cfg;
}

/**
 * Bus-busy cycles equal the static aggregate of *this run's* engine
 * statistics at any CPU count — per-reference charges sum to the
 * whole-run total no matter how the streams interleave.
 */
TEST(ContentionTest, BusCyclesMatchStaticAggregateAtAnyCpuCount)
{
    const auto workload = fourCpuWorkload();
    const auto opts = testOpts();
    const std::vector<timing::TimedBusModel> buses = {
        timing::timedPipelinedBus(), timing::timedNonPipelinedBus()};

    for (const sim::Scheme scheme : allSchemes) {
        for (const auto &bus : buses) {
            const timing::TimedRun run =
                runTimed(timedConfig(scheme, bus), workload);
            const std::string label = run.scheme + " / " + run.bus;

            EXPECT_EQ(run.nCpus, 4u) << label;
            EXPECT_EQ(run.busBusyCycles,
                      timing::staticBusCycles(scheme, run.engine,
                                              bus.costs, opts))
                << label;

            // Structural sanity.
            EXPECT_GE(run.makespan, run.busBusyCycles) << label;
            EXPECT_LE(run.busUtilization(), 1.0 + 1e-12) << label;
            EXPECT_EQ(run.queueDelay.totalSamples(), run.transactions)
                << label;
            std::uint64_t refs = 0, txns = 0;
            for (const auto &cpu : run.cpus) {
                refs += cpu.refs;
                txns += cpu.transactions;
            }
            EXPECT_EQ(refs, run.refs) << label;
            EXPECT_EQ(txns, run.transactions) << label;
        }
    }
}

TEST(ContentionTest, RunsAreDeterministic)
{
    const auto workload = fourCpuWorkload();
    const auto cfg = timedConfig(sim::Scheme::Dir0B,
                                 timing::timedPipelinedBus(),
                                 timing::Discipline::RoundRobin);
    const timing::TimedRun a = runTimed(cfg, workload);
    const timing::TimedRun b = runTimed(cfg, workload);
    EXPECT_TRUE(a.identicalTo(b));
}

TEST(ContentionTest, UtilizationGrowsWithCpuCount)
{
    std::vector<double> utilization;
    for (const unsigned n : {2u, 4u, 8u}) {
        const gen::WorkloadConfig workload =
            gen::scaledConfig(n, 10'000 * n);
        const timing::TimedRun run = runTimed(
            timedConfig(sim::Scheme::Dir0B,
                        timing::timedPipelinedBus()),
            workload);
        EXPECT_EQ(run.nCpus, n);
        utilization.push_back(run.busUtilization());
    }
    EXPECT_GT(utilization[0], 0.0);
    EXPECT_GT(utilization[1], utilization[0]);
    EXPECT_GE(utilization[2], utilization[1]);
}

/**
 * Under load, fixed priority starves the high-index CPUs while FCFS
 * spreads the delay; the per-CPU stall distributions must differ
 * measurably.  WTI at eight CPUs keeps the bus saturated.
 */
TEST(ContentionTest, DisciplinesShapeStallDistributions)
{
    const gen::WorkloadConfig workload = gen::scaledConfig(8, 60'000);

    const timing::TimedRun fcfs = runTimed(
        timedConfig(sim::Scheme::WTI, timing::timedPipelinedBus(),
                    timing::Discipline::FCFS),
        workload);
    const timing::TimedRun fixed = runTimed(
        timedConfig(sim::Scheme::WTI, timing::timedPipelinedBus(),
                    timing::Discipline::FixedPriority),
        workload);
    const timing::TimedRun rr = runTimed(
        timedConfig(sim::Scheme::WTI, timing::timedPipelinedBus(),
                    timing::Discipline::RoundRobin),
        workload);

    ASSERT_EQ(fcfs.nCpus, 8u);
    ASSERT_EQ(fixed.nCpus, 8u);

    // Fixed priority: the lowest-index CPU stalls least, the highest
    // most — the starvation the arbiter contract promises.
    EXPECT_GT(fixed.cpus.back().stallCycles,
              fixed.cpus.front().stallCycles);
    EXPECT_GT(fixed.cpus.back().stallFraction(),
              fcfs.cpus.back().stallFraction());

    // The disciplines are not relabelings of each other: per-CPU
    // stall patterns diverge.
    EXPECT_FALSE(fcfs.cpus == fixed.cpus);
    EXPECT_FALSE(fcfs.cpus == rr.cpus);
}

// --- Timed sweeps ----------------------------------------------------

/** @p workload prepared with timed per-CPU streams for @p cfg. */
std::shared_ptr<const trace::PreparedTrace>
prepareTimed(const gen::WorkloadConfig &workload,
             const timing::TimedBusConfig &cfg)
{
    const trace::MemoryTrace trace = gen::generateTrace(workload);
    trace::PrepareOptions prep;
    prep.blockBytes = cfg.sim.blockBytes;
    prep.domain = cfg.sim.domain;
    prep.timedStreams = true;
    return std::make_shared<const trace::PreparedTrace>(
        trace::PreparedTrace::build(trace, prep));
}

/** The contention study is identical at one job and at four. */
TEST(TimedSweepTest, ParallelSweepBitIdenticalToSerial)
{
    const auto study = [] {
        return analysis::contentionStudy({2, 4}, 4, 2'000);
    };
    const analysis::ContentionStudy serial = study();
    analysis::setDefaultEvalJobs(4);
    const analysis::ContentionStudy parallel = study();
    analysis::setDefaultEvalJobs(1);

    ASSERT_EQ(serial.scaling.size(), 8u);
    ASSERT_EQ(serial.arbitration.size(), 3u);
    for (const auto runs : {&analysis::ContentionStudy::scaling,
                            &analysis::ContentionStudy::arbitration}) {
        ASSERT_EQ((serial.*runs).size(), (parallel.*runs).size());
        for (std::size_t i = 0; i < (serial.*runs).size(); ++i)
            EXPECT_TRUE((serial.*runs)[i].identicalTo((parallel.*runs)[i]))
                << (serial.*runs)[i].scheme << " / "
                << (serial.*runs)[i].discipline << " / "
                << (serial.*runs)[i].nCpus << " CPUs";
    }
}

/**
 * Timed runs fanned out the way the contention study fans them —
 * sim::runOrdered tasks, each a TimedBusSim over one shared prepared
 * machine — rethrow a failing run's error on the caller: here the
 * first run's engine has too few units for the workload's four
 * processes.
 */
TEST(TimedSweepTest, PropagatesJobFailure)
{
    const auto workload = fourCpuWorkload();
    const auto machine = prepareTimed(
        workload,
        timedConfig(sim::Scheme::Dir0B, timing::timedPipelinedBus()));
    std::vector<std::function<timing::TimedRun()>> tasks;
    for (const sim::Scheme scheme :
         {sim::Scheme::Dir0B, sim::Scheme::DirINB,
          sim::Scheme::Dragon}) {
        for (const auto d : {timing::Discipline::FCFS,
                             timing::Discipline::RoundRobin}) {
            const unsigned units =
                tasks.empty() ? 2 : workload.space.nProcesses;
            tasks.push_back([scheme, d, units, machine] {
                timing::TimedBusSim sim(
                    timedConfig(scheme, timing::timedPipelinedBus(), d),
                    engineFor(scheme, units, 2));
                return sim.run(*machine);
            });
        }
    }
    EXPECT_THROW(sim::runOrdered(2, tasks), std::runtime_error);
}

// --- Decode-once prepared replay -------------------------------------

/**
 * Replaying the prepared per-CPU streams must reproduce the raw
 * demux-per-run path field for field: same makespan, same bus cycles,
 * same per-CPU stats, same engine results.
 */
TEST(ContentionTest, PreparedReplayIdenticalToRaw)
{
    const auto workload = fourCpuWorkload();
    for (const sim::Scheme scheme :
         {sim::Scheme::Dir0B, sim::Scheme::Dragon,
          sim::Scheme::BerkeleyOwn}) {
        const auto cfg =
            timedConfig(scheme, timing::timedPipelinedBus());
        const timing::TimedRun raw = runTimed(cfg, workload);

        timing::TimedBusSim sim(
            cfg, engineFor(scheme, workload.space.nProcesses,
                           cfg.costOpts.nPointers));
        const timing::TimedRun prepared =
            sim.run(*prepareTimed(workload, cfg));
        EXPECT_TRUE(raw.identicalTo(prepared))
            << sim::schemeName(scheme, cfg.costOpts.nPointers);
    }
}

TEST(ContentionTest, PreparedRunRejectsMismatchedDecode)
{
    const auto workload = fourCpuWorkload();
    const auto cfg =
        timedConfig(sim::Scheme::Dir0B, timing::timedPipelinedBus());

    // Decoded without timed streams: no per-CPU columns to replay.
    const trace::MemoryTrace trace = gen::generateTrace(workload);
    const auto untimed = trace::PreparedTrace::build(trace);
    timing::TimedBusSim sim(
        cfg, engineFor(sim::Scheme::Dir0B,
                       workload.space.nProcesses, 2));
    EXPECT_THROW(sim.run(untimed), std::invalid_argument);

    // Decoded for a different block size than the timed config.
    auto wrongCfg = cfg;
    wrongCfg.sim.blockBytes = 64;
    const auto wrongBlock = prepareTimed(workload, wrongCfg);
    EXPECT_THROW(sim.run(*wrongBlock), std::invalid_argument);
}

/**
 * run(RefSource&) checks the engine's unit capacity on the decoded
 * trace, before the engine sees any reference: four processes on a
 * two-unit engine, and a trace past the prepared 8-bit unit column,
 * both throw std::runtime_error.
 */
TEST(ContentionTest, SourceRunRejectsUnitsPastEngineCapacity)
{
    const auto workload = fourCpuWorkload();
    const auto cfg =
        timedConfig(sim::Scheme::Dir0B, timing::timedPipelinedBus());
    timing::TimedBusSim sim(cfg, engineFor(sim::Scheme::Dir0B, 2, 2));
    gen::WorkloadSource source(workload);
    EXPECT_THROW(sim.run(source), std::runtime_error);

    trace::MemoryTrace wide;
    for (unsigned pid = 0; pid < 257; ++pid) {
        trace::TraceRecord rec;
        rec.pid = static_cast<std::uint16_t>(pid);
        rec.type = trace::RefType::Read;
        rec.addr = 0x100;
        wide.append(rec);
    }
    trace::MemoryTraceSource wideSource(wide);
    EXPECT_THROW(sim.run(wideSource), std::runtime_error);
}

// --- A literal reference for the cycle loop --------------------------

/**
 * The cycle loop as the model states it, one wake-up per reference:
 * every reference, instruction fetches included, goes through the
 * engine's access() and its charge, and the pending wake-ups are an
 * ordered set of (cycle, CPU).  Each cycle delivers the bus
 * completion, then wakes the CPUs due, lowest first, then runs one
 * grant phase.  It also checks the schedule as it goes: each grant
 * keeps its discipline's rule, computed here without the arbiter
 * (FCFS picks the smallest (arrival, seq); fixed priority the lowest
 * CPU; round-robin lets no waiter see more than N-1 grants to other
 * CPUs between its arrival and its own grant), after a grant phase no
 * request waits on an idle bus, and the cycles the bus was held equal
 * staticBusCycles over the run's own engine statistics.
 */
timing::TimedRun
referenceRun(const timing::TimedBusConfig &cfg,
             coherence::CoherenceEngine &engine,
             const trace::PreparedTrace &prepared)
{
    timing::TransactionModel model(cfg.scheme, cfg.bus.costs,
                                   cfg.costOpts);
    const std::vector<trace::PreparedCpuStream> &streams =
        prepared.cpuStreams();
    const unsigned nCpus = static_cast<unsigned>(streams.size());
    engine.reset();
    coherence::CoherenceEngine *const engines[] = {&engine};
    const coherence::BlockNamesBinding binding(engines,
                                               prepared.blockNames());

    struct Cpu
    {
        std::size_t next = 0;
        timing::RefCharge charge;
        unsigned txnNext = 0;
        std::uint64_t stallStart = 0;
        timing::CpuTimedStats stats;
    };
    std::vector<Cpu> cpus(nCpus);
    std::set<std::pair<std::uint64_t, unsigned>> wakeups;
    std::vector<timing::BusRequest> waiters;
    const auto arbiter = timing::BusArbiter::make(cfg.discipline, nCpus);
    bool busBusy = false;
    std::uint64_t busDone = 0;
    unsigned busHolder = 0;
    bool busUsesMemory = false;
    std::uint64_t reqSeq = 0;
    std::uint64_t idleWaits = 0;
    std::uint64_t ruleBreaks = 0;
    // Round-robin: grants to other CPUs since each CPU's request.
    std::vector<unsigned> othersServed(nCpus, 0);

    timing::TimedRun result;
    result.scheme = sim::schemeName(cfg.scheme, cfg.costOpts.nPointers);
    result.bus = cfg.bus.costs.name;
    result.discipline = timing::disciplineName(cfg.discipline);
    result.nCpus = nCpus;

    std::uint64_t now = 0;
    const auto issue = [&](unsigned c) {
        Cpu &cpu = cpus[c];
        const timing::TxnCharge &txn = cpu.charge.txns[cpu.txnNext++];
        ++cpu.stats.transactions;
        othersServed[c] = 0;
        waiters.push_back(timing::BusRequest{c, now, reqSeq++,
                                             txn.busCycles,
                                             txn.usesMemory});
    };
    for (unsigned c = 0; c < nCpus; ++c)
        wakeups.emplace(0, c);
    while (!wakeups.empty() || busBusy) {
        now = wakeups.empty() ? busDone : wakeups.begin()->first;
        if (busBusy)
            now = std::min(now, busDone);
        if (busBusy && busDone == now) {
            busBusy = false;
            const std::uint64_t done =
                now + (busUsesMemory ? cfg.bus.memExtraLatency : 0);
            Cpu &cpu = cpus[busHolder];
            if (cpu.txnNext == cpu.charge.count)
                cpu.stats.stallCycles += done - cpu.stallStart;
            wakeups.emplace(done, busHolder);
        }
        while (!wakeups.empty() && wakeups.begin()->first == now) {
            const unsigned c = wakeups.begin()->second;
            wakeups.erase(wakeups.begin());
            Cpu &cpu = cpus[c];
            if (cpu.txnNext < cpu.charge.count) {
                issue(c);
                continue;
            }
            const trace::PreparedCpuStream &stream = streams[c];
            if (cpu.next == stream.size()) {
                cpu.stats.finishCycle = now;
                continue;
            }
            const std::size_t i = cpu.next++;
            ++cpu.stats.refs;
            const timing::RefCharge &charge = model.charge(engine.access(
                stream.unit[i], trace::packedRefType(stream.typeFlags[i]),
                stream.block[i]));
            if (charge.empty()) {
                wakeups.emplace(now + timing::kCyclesPerRef, c);
                continue;
            }
            cpu.charge = charge;
            cpu.txnNext = 0;
            cpu.stallStart = now;
            issue(c);
        }
        if (!busBusy && !waiters.empty()) {
            const std::size_t pick = arbiter->pick(waiters);
            const timing::BusRequest req = waiters[pick];
            const auto first = [&waiters](auto before) {
                return *std::min_element(waiters.begin(), waiters.end(),
                                         before);
            };
            switch (cfg.discipline) {
              case timing::Discipline::FCFS:
                ruleBreaks += first([](const auto &a, const auto &b) {
                                  return std::pair(a.arrival, a.seq) <
                                         std::pair(b.arrival, b.seq);
                              }).seq != req.seq;
                break;
              case timing::Discipline::FixedPriority:
                ruleBreaks += first([](const auto &a, const auto &b) {
                                  return a.cpu < b.cpu;
                              }).cpu != req.cpu;
                break;
              case timing::Discipline::RoundRobin:
                for (const timing::BusRequest &w : waiters)
                    ruleBreaks += w.cpu != req.cpu &&
                                  ++othersServed[w.cpu] > nCpus - 1;
                break;
            }
            waiters.erase(waiters.begin() +
                          static_cast<std::ptrdiff_t>(pick));
            arbiter->granted(req.cpu);
            result.queueDelay.sample(
                static_cast<std::size_t>(now - req.arrival));
            ++result.transactions;
            result.busBusyCycles += req.busCycles;
            busBusy = true;
            busDone = now + req.busCycles;
            busHolder = req.cpu;
            busUsesMemory = req.usesMemory;
        }
        idleWaits += !busBusy && !waiters.empty();
    }
    EXPECT_TRUE(waiters.empty());
    EXPECT_EQ(idleWaits, 0u) << "a request waited on an idle bus";
    EXPECT_EQ(ruleBreaks, 0u)
        << "grants broke the " << result.discipline << " rule";

    for (const Cpu &cpu : cpus) {
        result.refs += cpu.stats.refs;
        result.makespan = std::max(result.makespan, cpu.stats.finishCycle);
        result.cpus.push_back(cpu.stats);
    }
    result.engine = engine.results();
    EXPECT_EQ(result.busBusyCycles,
              timing::staticBusCycles(cfg.scheme, result.engine,
                                      cfg.bus.costs, cfg.costOpts));
    return result;
}

/**
 * A seeded random trace of @p nCpus CPUs (one process each) on six
 * contended blocks.  Most data references follow a few fetches, but
 * some follow a run of up to several hundred, past kMaxFetchSkip;
 * CPU 0's first long run, 400 fetches from its 900th-odd reference,
 * crosses the port's first 1,024-reference compaction chunk.  The
 * odd CPUs' streams end in fetches, and the last CPU fetches only.
 * The CPUs' records interleave at random.
 */
trace::PreparedTrace
randomTimedTrace(std::uint64_t seed, unsigned nCpus)
{
    gen::Rng rng(seed);
    std::vector<std::vector<trace::TraceRecord>> perCpu(nCpus);
    for (unsigned c = 0; c < nCpus; ++c) {
        std::vector<trace::TraceRecord> &recs = perCpu[c];
        const auto fetches = [&](std::uint64_t n) {
            trace::TraceRecord rec;
            rec.cpu = static_cast<std::uint8_t>(c);
            rec.pid = static_cast<std::uint16_t>(c);
            rec.type = trace::RefType::Instr;
            rec.addr = 0x10000 + 4 * c;
            recs.insert(recs.end(), n, rec);
        };
        const std::size_t length = rng.nextInRange(2'000, 4'000);
        if (c + 1 == nCpus) {
            fetches(length);
            continue;
        }
        bool straddled = c != 0;
        while (recs.size() < length) {
            if (!straddled && recs.size() >= 900) {
                fetches(400);
                straddled = true;
            }
            fetches(straddled && rng.chance(0.04)
                        ? rng.nextInRange(60, 400)
                        : rng.nextBelow(4));
            trace::TraceRecord rec;
            rec.cpu = static_cast<std::uint8_t>(c);
            rec.pid = static_cast<std::uint16_t>(c);
            rec.type = rng.chance(0.3) ? trace::RefType::Write
                                       : trace::RefType::Read;
            rec.addr = rng.nextBelow(6) * 16;
            recs.push_back(rec);
        }
        if (c % 2 == 1)
            fetches(rng.nextInRange(1, 300));
    }

    std::size_t left = 0;
    for (const auto &recs : perCpu)
        left += recs.size();
    trace::MemoryTrace raw;
    std::vector<std::size_t> pos(nCpus, 0);
    for (; left != 0; --left) {
        unsigned c = static_cast<unsigned>(rng.nextBelow(nCpus));
        while (pos[c] == perCpu[c].size())
            c = (c + 1) % nCpus;
        raw.append(perCpu[c][pos[c]++]);
    }
    trace::PrepareOptions opts;
    opts.timedStreams = true;
    return trace::PreparedTrace::build(raw, opts);
}

/**
 * TimedBusSim wakes a CPU once per data reference and retires the
 * fetches before it as a sleep; the literal loop wakes it once per
 * reference.  Every field of every run must agree, for each timed
 * scheme of the contention study on both buses under every
 * discipline, over streams whose fetch gaps pass the skip cap and
 * cross the port's compaction chunks.
 */
TEST(TimedReferenceTest, MatchesOneWakeUpPerReference)
{
    const timing::TimedBusModel buses[] = {timing::timedPipelinedBus(),
                                           timing::timedNonPipelinedBus()};
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const unsigned nCpus = 2 + static_cast<unsigned>(seed % 4);
        const trace::PreparedTrace prepared =
            randomTimedTrace(seed, nCpus);
        ASSERT_EQ(prepared.numCpus(), nCpus);
        for (const sim::Scheme scheme :
             {sim::Scheme::Dir0B, sim::Scheme::Dir1NB,
              sim::Scheme::Dragon, sim::Scheme::WTI}) {
            for (const timing::TimedBusModel &bus : buses) {
                for (const auto d : {timing::Discipline::FCFS,
                                     timing::Discipline::RoundRobin,
                                     timing::Discipline::FixedPriority}) {
                    const auto cfg = timedConfig(scheme, bus, d);
                    const unsigned units = prepared.numUnits();
                    timing::TimedBusSim sim(
                        cfg, engineFor(scheme, units,
                                       cfg.costOpts.nPointers));
                    const timing::TimedRun run = sim.run(prepared);
                    const auto engine =
                        engineFor(scheme, units, cfg.costOpts.nPointers);
                    const timing::TimedRun expected =
                        referenceRun(cfg, *engine, prepared);
                    EXPECT_TRUE(run.identicalTo(expected))
                        << "seed " << seed << ": " << run.scheme << " / "
                        << run.bus << " / " << run.discipline
                        << ": makespan " << run.makespan << " vs "
                        << expected.makespan;
                }
            }
        }
    }
}

// --- Timed golden ----------------------------------------------------

/**
 * Digest of every TimedRun field the schedule decides: the totals,
 * the queue-delay histogram, each CPU's counters and the engine
 * results of the run's interleaving.
 */
std::uint64_t
timedDigest(const timing::TimedRun &run)
{
    golden::Digest d;
    d.u64(run.nCpus);
    d.u64(run.refs);
    d.u64(run.makespan);
    d.u64(run.busBusyCycles);
    d.u64(run.transactions);
    d.histogram(run.queueDelay);
    for (const timing::CpuTimedStats &cpu : run.cpus) {
        d.u64(cpu.refs);
        d.u64(cpu.transactions);
        d.u64(cpu.stallCycles);
        d.u64(cpu.finishCycle);
    }
    d.u64(golden::digest(run.engine));
    return d.value();
}

constexpr std::size_t kGoldenCells = 6; // 2 buses x 3 disciplines.

/**
 * Recorded schedule digests: [workload][scheme][bus * 3 + discipline]
 * with workloads {pops at 60K refs, 16-CPU scaled machine}, schemes
 * in allSchemes order, buses {pipelined, non-pipelined} and
 * disciplines {FCFS, round-robin, fixed priority}.  Regenerate after
 * an intended change to the timed model with:
 *
 *     DIRSIM_TIMED_GOLDEN_PRINT=1 ./tests/timing_test \
 *         --gtest_filter=TimedGoldenTest.*
 *
 * and paste the printed rows over this table.
 */
constexpr std::uint64_t kTimedGolden[2][11][kGoldenCells] = {
    // pops
    {
        {0xc6c866be0a5049c5ULL, 0x5e856c7a961461faULL, 0x401a9a5e2675bfa7ULL,
         0x634302d8ee42231eULL, 0x8d09c266f1663163ULL, 0x5afe1791391cc2b5ULL},
        {0x53ac8d4dc438a5e4ULL, 0x5fb65d3b04a59deULL, 0x7eedac1e8703ebffULL,
         0xe4311a1bb322e467ULL, 0xc4c31a70eb1cab76ULL, 0x97b39b869e2323beULL},
        {0x861b931c911a6a38ULL, 0x326964d26bea6e41ULL, 0x7f3862049eb10d48ULL,
         0x3a01286361c1dd6aULL, 0xd975f06d33523af8ULL, 0x1adaff25d36b0829ULL},
        {0xc8f9ef5250fbafacULL, 0x2b748096d449a064ULL, 0xe297c430f1c2d77ULL,
         0xf3c84db211d790eaULL, 0x18bb92a96bbdb382ULL, 0xa2b4f5c4185da3fbULL},
        {0x7b3ebd155def69ddULL, 0xf457f7c99e9fade8ULL, 0x5b7632b588b49224ULL,
         0xbbed983ba1a1ff3aULL, 0x65d3f9a1e3f7c813ULL, 0x184b136eaf45b573ULL},
        {0xc51006076d143c1bULL, 0x959399892acc9de1ULL, 0xbb56ebbcef2f9fdcULL,
         0x44da7b02c56293d4ULL, 0xcce53f6d362dd251ULL, 0x5fdb88d15649ce9ULL},
        {0xefbec809ebf6612fULL, 0x16c5746d28f9b0a6ULL, 0xa4075218a244b3a8ULL,
         0xa3669129b4fdfbcfULL, 0x8535190be93b0fa8ULL, 0x8e3a552722fa9469ULL},
        {0x1c4dd0293742d465ULL, 0xf85fd0f55037872aULL, 0x7fd89a110179404fULL,
         0x5edba7ad15d485adULL, 0x2484c5cae8278a1dULL, 0x14ef0f90e0102eaeULL},
        {0xf61d82a504f0c086ULL, 0x4e28c87f257440e1ULL, 0x8c39c984035cfe57ULL,
         0x6d4269f3a0e1461aULL, 0xed1578f9f1eabfa7ULL, 0xc3b839fca5d97829ULL},
        {0xd4c583d4fc092234ULL, 0xebc2bd46bb995832ULL, 0xac805ba539b4e028ULL,
         0xc0c48695d3667e7aULL, 0x929580dd8c32f3a0ULL, 0x8d4e7c39283dca7cULL},
        {0x2425a99af429a3d9ULL, 0x5f781c9c4570cabdULL, 0x2ec7bea357b99984ULL,
         0x692fdf8ec3822b15ULL, 0x72ab4c2302d3c85aULL, 0x422d291b32eaf1feULL},
    },
    // scaled16
    {
        {0xb2f1e0293f14a2c1ULL, 0xfe56a13c8b7933ULL, 0xfeebffdf43163679ULL,
         0x63d8b150be82e4faULL, 0x85a19814019d50d4ULL, 0xec45720b940288c8ULL},
        {0x94098d6bf3b0da99ULL, 0x261f7cd432f2efe0ULL, 0x4793b7d3fcabdd3aULL,
         0x2ded84ba496628aULL, 0x26800eac19ee5e21ULL, 0xf2e085896d263777ULL},
        {0xfeae8a96c3fc62f0ULL, 0xbcaf8e3f0a8205f2ULL, 0x7d29830eb7065bffULL,
         0x5c1cd051544074bULL, 0xaaac13c613f0a317ULL, 0x7097b20ae486d795ULL},
        {0x23583c8b033536beULL, 0x5e6b31f9a88ccd66ULL, 0x47c96fc84dfbc34cULL,
         0x5d7c09acc5dc8a07ULL, 0x40d6201b6670bcb3ULL, 0xea45d9a67f246f05ULL},
        {0xac94e6ac27a60548ULL, 0x6dc4dde27a9e0f89ULL, 0x9fafc2a9a1af9194ULL,
         0xb22080da5fb4dedfULL, 0x78cb4a25b09a211fULL, 0x484dfeb2d2989a26ULL},
        {0xafaceea783eda38fULL, 0xd57f47940b896e7fULL, 0xfaaff3f37ceab128ULL,
         0x4e6effdc81ebcaf8ULL, 0xe89dfa73c4a82b51ULL, 0x996395060ebfee5ULL},
        {0x9f214b96426879bULL, 0x87e32391af7e6395ULL, 0x8ec4603c9c9c682dULL,
         0xba4e07c6d40a8cacULL, 0x87a31ecae38c6efULL, 0x421714d542073208ULL},
        {0x9913dd96478a8c4bULL, 0x6567f4e11a3c6538ULL, 0xc565d16619fe7d21ULL,
         0xf609856c195191e9ULL, 0xac280238719ae7abULL, 0xb97ba6dedfd58ff1ULL},
        {0x4a6dd55532ce4d16ULL, 0x6edef0d39b748533ULL, 0x8b9b6b40b7f8cabeULL,
         0xe78fa3455c107044ULL, 0x47f680f16f329561ULL, 0x1d313f84adda43ccULL},
        {0x599eadb8cb2a74b6ULL, 0xf1cdbb7a6cdf42edULL, 0x1696e9b5755bfa3bULL,
         0x93baf391be9f0221ULL, 0x7e5f9845e5e34190ULL, 0x81f286c616f3a6f1ULL},
        {0xa0913a7694c529dbULL, 0x431210ede5a35bd6ULL, 0xcf3f14c6c63c8da4ULL,
         0x7a6d7f16b4c8ced2ULL, 0x31bb3962adb07e58ULL, 0x2786b5485e6c9d6eULL},
    },
};

/**
 * Pins the exact schedule: every field of 132 contended runs (two
 * workloads x 11 schemes x 2 buses x 3 disciplines).  The non-
 * pipelined bus matters most: there a CPU woken by a completion runs
 * in the same cycle, so the order events drain in shows up in the
 * result.
 */
TEST(TimedGoldenTest, EveryCellMatchesRecordedSchedule)
{
    gen::WorkloadConfig pops = gen::popsConfig();
    pops.totalRefs = 60'000;
    const std::vector<gen::WorkloadConfig> workloads = {
        pops, gen::scaledConfig(16, 120'000)};
    const std::vector<timing::TimedBusModel> buses = {
        timing::timedPipelinedBus(), timing::timedNonPipelinedBus()};
    const timing::Discipline disciplines[] = {
        timing::Discipline::FCFS, timing::Discipline::RoundRobin,
        timing::Discipline::FixedPriority};

    const bool print =
        std::getenv("DIRSIM_TIMED_GOLDEN_PRINT") != nullptr;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const auto prepared = prepareTimed(
            workloads[w],
            timedConfig(sim::Scheme::Dir0B, buses.front()));
        if (print)
            std::cout << "    // " << workloads[w].name << "\n    {\n";
        for (std::size_t s = 0; s < allSchemes.size(); ++s) {
            const sim::Scheme scheme = allSchemes[s];
            std::uint64_t digests[kGoldenCells];
            for (std::size_t b = 0; b < buses.size(); ++b) {
                for (std::size_t d = 0; d < 3; ++d) {
                    const auto cfg =
                        timedConfig(scheme, buses[b], disciplines[d]);
                    timing::TimedBusSim sim(
                        cfg, engineFor(scheme,
                                       workloads[w].space.nProcesses,
                                       cfg.costOpts.nPointers));
                    const timing::TimedRun run = sim.run(*prepared);
                    const std::string label =
                        workloads[w].name + " / " + run.scheme +
                        " / " + run.bus + " / " + run.discipline;
                    EXPECT_EQ(run.busBusyCycles,
                              timing::staticBusCycles(
                                  scheme, run.engine, buses[b].costs,
                                  cfg.costOpts))
                        << label;
                    digests[b * 3 + d] = timedDigest(run);
                    if (!print) {
                        EXPECT_EQ(digests[b * 3 + d],
                                  kTimedGolden[w][s][b * 3 + d])
                            << label << " diverged from the recorded "
                            << "schedule";
                    }
                }
            }
            if (print) {
                std::cout << "        {";
                for (std::size_t c = 0; c < kGoldenCells; ++c)
                    std::cout << (c ? (c == 3 ? ",\n         " : ", ")
                                    : "")
                              << "0x" << std::hex << digests[c]
                              << std::dec << "ULL";
                std::cout << "},\n";
            }
        }
        if (print)
            std::cout << "    },\n";
    }
}


/**
 * A machine wider than one bitset word: 130 CPUs time-share 8
 * processes on 96 hot blocks, so the scheduler's per-cycle CPU sets
 * span three words and the bus saturates.  Pinned like the golden
 * above (same regeneration switch), for Dir0B and Dragon on both
 * buses under every discipline.
 */
TEST(TimedGoldenTest, WideMachineMatchesRecordedSchedule)
{
    constexpr unsigned nCpus = 130;
    trace::MemoryTrace wide;
    gen::Rng rng(0x15CA1988);
    for (int i = 0; i < 40'000; ++i) {
        trace::TraceRecord rec;
        rec.cpu = static_cast<std::uint8_t>(rng.nextBelow(nCpus));
        rec.pid = rec.cpu % 8;
        rec.type = rng.chance(0.3)    ? trace::RefType::Instr
                   : rng.chance(0.25) ? trace::RefType::Write
                                      : trace::RefType::Read;
        rec.addr = rng.nextBelow(96) * 16;
        wide.append(rec);
    }

    constexpr std::uint64_t kWideGolden[2][6] = {
        {0x6749633536aee943ULL, 0xeb4e752a46dbd0f6ULL,
         0xbede762c7dbca75fULL, 0xed2d8dae685070fcULL,
         0x4a817c0749297310ULL, 0x1f7c385148751cadULL},
        {0xbedbe820331adc31ULL, 0x38cb14a4200caa1fULL,
         0xc3233f75f7863457ULL, 0xe09881f01383bf9cULL,
         0x7ae9c9581d036110ULL, 0x15d3b81ca8c20aaULL},
    };
    const bool print =
        std::getenv("DIRSIM_TIMED_GOLDEN_PRINT") != nullptr;
    const sim::Scheme schemes[] = {sim::Scheme::Dir0B,
                                   sim::Scheme::Dragon};
    const timing::TimedBusModel buses[] = {
        timing::timedPipelinedBus(), timing::timedNonPipelinedBus()};
    const timing::Discipline disciplines[] = {
        timing::Discipline::FCFS, timing::Discipline::RoundRobin,
        timing::Discipline::FixedPriority};
    for (std::size_t s = 0; s < 2; ++s) {
        if (print)
            std::cout << "        {";
        for (std::size_t b = 0; b < 2; ++b) {
            for (std::size_t d = 0; d < 3; ++d) {
                const auto cfg =
                    timedConfig(schemes[s], buses[b], disciplines[d]);
                timing::TimedBusSim sim(
                    cfg,
                    engineFor(schemes[s], 8, cfg.costOpts.nPointers));
                trace::MemoryTraceSource source(wide);
                const timing::TimedRun run = sim.run(source);
                const std::string label = run.scheme + " / " +
                                          run.bus + " / " +
                                          run.discipline;
                ASSERT_EQ(run.nCpus, nCpus) << label;
                EXPECT_EQ(run.busBusyCycles,
                          timing::staticBusCycles(schemes[s],
                                                  run.engine,
                                                  buses[b].costs,
                                                  cfg.costOpts))
                    << label;
                if (print) {
                    std::cout << (b + d ? ", " : "") << "0x" << std::hex
                              << timedDigest(run) << std::dec << "ULL";
                } else {
                    EXPECT_EQ(timedDigest(run), kWideGolden[s][b * 3 + d])
                        << label << " diverged from the recorded "
                        << "schedule";
                }
            }
        }
        if (print)
            std::cout << "},\n";
    }
}


} // namespace
