/**
 * @file
 * Contention study: driving the timed bus subsystem end to end.
 *
 * Walks through what the discrete-event bus adds over the paper's
 * static accounting:
 *
 *   1. The zero-contention anchor — with one CPU the timed run's bus
 *      cycles equal the static cost model exactly, integer for
 *      integer (the property tests/timing_test.cc enforces).
 *   2. Utilization and queueing delay as the CPU count grows, on the
 *      pipelined and the non-pipelined bus.
 *   3. The arbitration disciplines at a saturated bus: a per-CPU
 *      stall table showing fixed priority starving the high-index
 *      CPUs while FCFS and round-robin spread the wait.
 *
 * The pipelined runs of 2 and 3 come from analysis::contentionStudy,
 * the study behind reproduce_paper's ext_contention_* exhibits; this
 * walk adds the non-pipelined bus and the full per-CPU stall table.
 *
 * Usage: contention_study [maxCpus] [refsPerCpu]
 *        (maxCpus in [2, 32], default 8; refsPerCpu in
 *        [1000, 1000000], default 20000)
 */

#include <iostream>
#include <memory>
#include <vector>

#include "analysis/extensions.hh"
#include "cli/parse.hh"
#include "coherence/inval_engine.hh"
#include "gen/workloads.hh"
#include "sim/cost_model.hh"
#include "stats/table.hh"
#include "timing/timed_bus.hh"
#include "timing/transactions.hh"

namespace
{

using namespace dirsim;

std::unique_ptr<coherence::CoherenceEngine>
invalEngine(unsigned units)
{
    coherence::InvalEngineConfig cfg;
    cfg.nUnits = units;
    return std::make_unique<coherence::InvalEngine>(cfg);
}

timing::TimedRun
runOne(sim::Scheme scheme, const timing::TimedBusModel &bus,
       timing::Discipline d, const gen::WorkloadConfig &workload)
{
    timing::TimedBusConfig cfg;
    cfg.scheme = scheme;
    cfg.bus = bus;
    cfg.discipline = d;
    timing::TimedBusSim sim(cfg,
                            invalEngine(workload.space.nProcesses));
    gen::WorkloadSource source(workload);
    return sim.run(source);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dirsim;

    unsigned max_cpus = 8;
    std::uint64_t refs_per_cpu = 20'000;
    if (argc > 1)
        max_cpus = cli::parseUnsignedInRange(argv[1], "maxCpus", 2, 32);
    if (argc > 2)
        refs_per_cpu = cli::parseUnsignedInRange(
            argv[2], "refsPerCpu", 1'000, 1'000'000);

    const auto pipe = timing::timedPipelinedBus();
    const auto nonpipe = timing::timedNonPipelinedBus();

    // 1. Zero-contention anchor: one CPU, timed == static, exactly.
    std::cout << "1. Zero-contention check (Dir0B, one CPU)\n";
    gen::WorkloadConfig solo = gen::scaledConfig(1, refs_per_cpu);
    const timing::TimedRun anchor = runOne(
        sim::Scheme::Dir0B, pipe, timing::Discipline::FCFS, solo);
    const std::uint64_t expected = timing::staticBusCycles(
        sim::Scheme::Dir0B, anchor.engine, pipe.costs, {});
    std::cout << "   timed bus cycles  " << anchor.busBusyCycles
              << "\n   static bus cycles " << expected << "  ["
              << (anchor.busBusyCycles == expected ? "exact match"
                                                   : "MISMATCH!")
              << "]\n   static model/ref  "
              << sim::computeCost(sim::Scheme::Dir0B, anchor.engine,
                                  pipe.costs, {})
                     .total()
              << "  timed/ref " << anchor.busCyclesPerRef() << "\n\n";

    // 2. Contention vs CPU count on both bus organisations.
    std::cout << "2. Dir0B under contention (FCFS)\n";
    std::vector<unsigned> counts;
    for (unsigned n = 2; n <= max_cpus; n *= 2)
        counts.push_back(n);
    const analysis::ContentionStudy study =
        analysis::contentionStudy(counts, max_cpus, refs_per_cpu);
    std::vector<timing::TimedRun> nonpipe_runs;
    for (const unsigned n : counts)
        nonpipe_runs.push_back(
            runOne(sim::Scheme::Dir0B, nonpipe, timing::Discipline::FCFS,
                   gen::scaledConfig(n, refs_per_cpu * n)));

    std::vector<std::string> headers = {"Bus"};
    for (const unsigned n : counts)
        headers.push_back("n=" + std::to_string(n));
    stats::TextTable util("Bus utilization", headers);
    stats::TextTable slow(
        "Effective cycles per reference (CPU view, stall included)",
        headers);
    // Dir0B is the study's first scheme row.
    const timing::TimedRun *const by_bus[] = {study.scaling.data(),
                                              nonpipe_runs.data()};
    for (const timing::TimedRun *runs : by_bus) {
        std::vector<std::string> urow = {runs->bus};
        std::vector<std::string> srow = {runs->bus};
        for (std::size_t c = 0; c < counts.size(); ++c) {
            urow.push_back(
                stats::TextTable::num(runs[c].busUtilization()));
            srow.push_back(
                stats::TextTable::num(runs[c].effectiveCyclesPerRef()));
        }
        util.addRow(urow);
        slow.addRow(srow);
    }
    std::cout << util.toString() << "\n"
              << slow.toString() << "\n";

    // 3. Disciplines at the largest machine: who eats the stall.
    std::cout << "3. Arbitration disciplines (WTI, " << max_cpus
              << " CPUs, pipelined bus)\n";
    const std::vector<timing::TimedRun> &druns = study.arbitration;
    std::vector<std::string> dheaders = {"CPU"};
    for (const auto &run : druns)
        dheaders.push_back(run.discipline);
    stats::TextTable stalls("Per-CPU stall fraction", dheaders);
    for (unsigned c = 0; c < max_cpus; ++c) {
        std::vector<std::string> row = {std::to_string(c)};
        for (const auto &run : druns)
            row.push_back(
                stats::TextTable::num(run.cpus[c].stallFraction()));
        stalls.addRow(row);
    }
    std::cout << stalls.toString() << "\n";
    for (const auto &run : druns)
        std::cout << "   " << run.discipline << ": utilization "
                  << stats::TextTable::num(run.busUtilization())
                  << ", mean queue delay "
                  << stats::TextTable::num(run.meanQueueDelay())
                  << ", p95 "
                  << stats::TextTable::num(run.p95QueueDelay())
                  << " cycles\n";
    std::cout << "\nFixed priority starves the high-index CPUs; FCFS "
                 "and round-robin\nspread the same total stall "
                 "evenly.  Bus-busy cycles still match the\nstatic "
                 "model's aggregate for every run above.\n";
    return 0;
}
