/**
 * @file
 * Cycle-driven timed bus simulator.
 *
 * The paper prices coherence traffic as frequency × static cost; the
 * bus is never *occupied*, so queueing, arbitration and processor
 * stall are invisible.  TimedBusSim replays the same per-CPU
 * reference streams the engines already consume, prices each
 * reference's coherence::Outcome with the charge table of
 * timing::TransactionModel, and issues the resulting tenures into a
 * bus with real occupancy, arbitrated by a pluggable discipline.
 *
 * Model:
 *  - Each CPU executes its stream in simulated-time order across
 *    CPUs, kCyclesPerRef cycles per reference that needs no bus
 *    tenure.  An instruction fetch never needs one and changes
 *    nothing but the Instr count, so a CPU retires the fetches before
 *    each data reference (its gap, timing/port.hh) as one sleep of
 *    that many cycles: it wakes once per data reference, and the
 *    engine counts the fetches in bulk (recordInstrs).
 *  - A chargeable reference stalls its CPU: each of its bus tenures
 *    is queued, granted by the BusArbiter when the bus frees, and
 *    occupies the bus for its integer cycle cost; the CPU resumes
 *    when the last tenure (plus any off-bus memory wait, pipelined
 *    buses only) completes.
 *  - Bus occupancies come from bus::BusCosts, i.e. derive from the
 *    Table 1 BusPrimitives; on the pipelined bus the memory wait is
 *    off-bus and only delays the requester.
 *
 * Schedule: at most one tenure is on the bus at a time, and each CPU
 * has at most one pending wake-up, at most max(kCyclesPerRef,
 * memExtraLatency) + kMaxFetchSkip cycles ahead (a longer fetch gap
 * sleeps in several wake-ups).  So the simulator keeps the bus
 * completion time as a scalar and the wake-ups in a small ring of
 * per-cycle CPU bitsets.  Each cycle it delivers the bus completion
 * first (a requester with no off-bus wait runs again that cycle),
 * then wakes CPUs lowest index first, then lets the arbiter grant a
 * free bus.  A run is a pure function of (config, engine, stream).
 *
 * Zero-contention anchor: with one CPU the bus is always free at
 * request time, so total bus-busy cycles equal the static cost
 * model's total exactly (integer for integer; tests/timing_test.cc
 * enforces it for every scheme × workload × bus) — the timed
 * subsystem degenerates to the paper's published Table 5 accounting.
 */

#ifndef DIRSIM_TIMING_TIMED_BUS_HH
#define DIRSIM_TIMING_TIMED_BUS_HH

#include <memory>
#include <string>
#include <vector>

#include "bus/bus_model.hh"
#include "coherence/engine.hh"
#include "sim/cost_model.hh"
#include "sim/simulator.hh"
#include "stats/histogram.hh"
#include "timing/arbiter.hh"
#include "timing/port.hh"
#include "trace/prepared.hh"
#include "trace/ref_source.hh"

namespace dirsim::timing
{

/** A bus organisation as the timed model sees it: occupancy table
 *  plus the off-bus latency the requester eats on memory reads. */
struct TimedBusModel
{
    bus::BusCosts costs;
    /** Cycles a memory read keeps the *requester* (not the bus)
     *  waiting beyond the bus tenure.  Pipelined buses release the
     *  bus during the memory wait; non-pipelined buses hold it, so
     *  the wait is already inside the occupancy. */
    unsigned memExtraLatency = 0;
};

/** The pipelined bus: occupancy from Table 2, memory wait off-bus. */
TimedBusModel timedPipelinedBus(
    const bus::BusPrimitives &prim = bus::BusPrimitives{});
/** The non-pipelined bus: the memory wait rides in the occupancy. */
TimedBusModel timedNonPipelinedBus(
    const bus::BusPrimitives &prim = bus::BusPrimitives{});

/** CPU cycles a reference that needs no bus tenure takes. */
inline constexpr unsigned kCyclesPerRef = 1;

/** Configuration of one timed run. */
struct TimedBusConfig
{
    sim::Scheme scheme = sim::Scheme::Dir0B;
    sim::CostOptions costOpts;
    TimedBusModel bus = timedPipelinedBus();
    Discipline discipline = Discipline::FCFS;
    /** Block size and sharing domain (matches sim::Simulator). */
    sim::SimConfig sim;
};

/** Outcome of one timed run. */
struct TimedRun
{
    std::string scheme;
    std::string bus;
    std::string discipline;

    unsigned nCpus = 0;
    std::uint64_t refs = 0;
    /** Cycle the last CPU retired its last reference. */
    std::uint64_t makespan = 0;
    /** Cycles the bus spent occupied (the equivalence quantity). */
    std::uint64_t busBusyCycles = 0;
    /** Bus tenures granted. */
    std::uint64_t transactions = 0;
    /** Cycles from issue to grant, one sample per tenure. */
    stats::Histogram queueDelay;
    /** Per-CPU statistics, by port index. */
    std::vector<CpuTimedStats> cpus;
    /** Final engine statistics of this run's interleaving. */
    coherence::EngineResults engine;

    /** Fraction of the makespan the bus was occupied. */
    double busUtilization() const;
    /** Mean cycles a tenure waited for grant. */
    double meanQueueDelay() const { return queueDelay.mean(); }
    /** 95th-percentile grant wait (nearest-rank). */
    double p95QueueDelay() const { return queueDelay.percentile(95.0); }
    /** Bus-busy cycles per reference — comparable to
     *  sim::CostBreakdown::total(). */
    double busCyclesPerRef() const;
    /** Mean cycles a reference costs its CPU, stall included. */
    double effectiveCyclesPerRef() const;

    /** Bit-identical comparison (every counter and histogram). */
    bool identicalTo(const TimedRun &other) const;
};

/**
 * Runs one (scheme, bus, discipline) configuration over a reference
 * stream.  The engine must match sim::engineKindFor(cfg.scheme),
 * exactly as with sim::computeCost, and its unit count must cover
 * the stream's sharing units (std::runtime_error otherwise).
 */
class TimedBusSim
{
  public:
    TimedBusSim(const TimedBusConfig &cfg,
                std::unique_ptr<coherence::CoherenceEngine> engine);
    ~TimedBusSim();

    /**
     * Decode @p source into timed per-CPU streams (trace::StreamLowering
     * with PrepareOptions::timedStreams, cfg.sim's block size and
     * sharing domain; no data columns) and replay them; engine accesses
     * happen in simulated-time order, lowest CPU first within a cycle.
     * A stream with more sharing units than the engine holds (past
     * 256 included) throws std::runtime_error before the engine sees
     * any reference.
     */
    TimedRun run(trace::RefSource &source);

    /**
     * Replay an already-decoded trace (decoded with
     * PrepareOptions::timedStreams, same block size and sharing
     * domain as cfg.sim — std::invalid_argument otherwise).  The
     * per-CPU SoA streams feed the ports directly; results are
     * bit-identical to run(RefSource&) over the same stream.
     */
    TimedRun run(const trace::PreparedTrace &prepared);

    /**
     * Replay a stored (out-of-core) trace spilled with timed per-CPU
     * streams: each port streams its CPU's chunks through a windowed
     * file cursor, so memory stays O(nCpus × chunk).  Bit-identical
     * to run(const PreparedTrace&) over the same stream.
     */
    TimedRun run(const trace::StoredTrace &stored);

  private:
    /** std::runtime_error when @p nUnits exceed the engine's. */
    void requireCapacity(unsigned nUnits) const;
    TimedRun
    runStreams(const std::vector<trace::PreparedCpuStream> &streams,
               mem::BlockNames names);
    /** Size and bind the engine from the stream's block @p names,
     *  one port per cursor, then the cycle loop every entry point
     *  shares. */
    TimedRun runCursors(
        const std::vector<std::unique_ptr<trace::CpuRefCursor>> &cursors,
        mem::BlockNames names);

    TimedBusConfig _cfg;
    std::unique_ptr<coherence::CoherenceEngine> _engine;
};

} // namespace dirsim::timing

#endif // DIRSIM_TIMING_TIMED_BUS_HH
