/**
 * @file
 * Synthetic multiprocessor workload: configuration and the RefSource
 * that drives process engines through a CPU scheduler.
 *
 * This is the repository's substitute for the multiprocessor ATUM
 * traces of the paper (Section 4.4): it produces an interleaved
 * per-CPU reference stream with CPU and process identifiers, real
 * test-and-test-and-set lock ordering, optional process migration, and
 * ~10 % operating-system activity.
 */

#ifndef DIRSIM_GEN_WORKLOAD_HH
#define DIRSIM_GEN_WORKLOAD_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "gen/address_space.hh"
#include "gen/process.hh"
#include "gen/rng.hh"
#include "trace/ref_source.hh"
#include "trace/trace.hh"

namespace dirsim::gen
{

/** Complete description of one synthetic workload. */
struct WorkloadConfig
{
    std::string name = "generic";
    std::uint64_t totalRefs = 1'000'000;
    std::uint64_t seed = 0x15CA1988; // ISCA 1988.

    AddressSpaceConfig space;
    BehaviorConfig behavior;

    /**
     * References a CPU executes between scheduling decisions.  Only
     * relevant when processes outnumber CPUs or migration is enabled.
     */
    std::uint64_t quantumRefs = 50'000;
    /**
     * Probability that a quantum boundary migrates the process to a
     * different CPU rather than resuming it in place.  The paper notes
     * its traces contain few migrations; presets keep this small.
     */
    double migrationRate = 0.0;
};

/** Generates the reference stream for a WorkloadConfig. */
class WorkloadSource final : public trace::RefSource
{
  public:
    /**
     * @throws std::invalid_argument naming the field when @p cfg
     *         cannot be generated: no CPU, more CPUs than processes,
     *         more CPUs or processes than a record's 8-bit cpu or
     *         16-bit pid holds, a zero code, word or migratory-object
     *         size, or a positive category weight over an empty
     *         region (shared-write slots, migratory objects, locks).
     */
    explicit WorkloadSource(WorkloadConfig cfg);

    /** nextBatch() of one record. */
    bool next(trace::TraceRecord &record) override;
    /** The generator loop: keeps the RNG state in a local for the
     *  whole batch, so the batching is invisible in the records. */
    std::size_t nextBatch(trace::TraceRecord *out,
                          std::size_t max) override;
    void rewind() override;

    /** Trace metadata (name, CPUs, lock addresses). */
    trace::TraceMeta meta() const;
    /** Lock/migratory state (for tests and diagnostics). */
    const SharedState &sharedState() const { return _shared; }

  private:
    void reset();
    /** Rotate / migrate the process running on @p cpu. */
    void reschedule(unsigned cpu, Rng &rng);

    WorkloadConfig _cfg;
    AddressSpace _space;
    BehaviorSamplers _samplers;
    Rng _rng;
    SharedState _shared;
    std::vector<std::unique_ptr<ProcessEngine>> _processes;

    /** Process index currently on each CPU. */
    std::vector<std::size_t> _procOnCpu;
    /** FIFO of runnable process indices not currently on a CPU.  A
     *  deque: reschedule() pops the front every quantum, which on a
     *  vector is an O(n) erase — quadratic over a many-process run. */
    std::deque<std::size_t> _readyQueue;
    /** Remaining references in each CPU's quantum. */
    std::vector<std::uint64_t> _quantumLeft;

    std::uint64_t _emitted = 0;
    unsigned _nextCpu = 0;
};

/**
 * Convenience: materialise a workload into a MemoryTrace.
 */
trace::MemoryTrace generateTrace(const WorkloadConfig &cfg);

} // namespace dirsim::gen

#endif // DIRSIM_GEN_WORKLOAD_HH
