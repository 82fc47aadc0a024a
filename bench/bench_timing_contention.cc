/**
 * @file
 * Timed-bus contention exhibit: what the paper's static tables hide.
 *
 * The static cost model prices traffic as frequency × cycles with an
 * always-free bus.  The timed subsystem replays the same streams
 * through a bus with real occupancy and arbitration, making queueing
 * visible.  This bench prints:
 *
 *  - bus utilization and queueing delay versus CPU count, per scheme
 *    (utilization climbs monotonically toward saturation);
 *  - the three arbitration disciplines at a saturated bus, where
 *    FCFS and round-robin spread the stall evenly and fixed priority
 *    starves the high-index CPUs.
 *
 * The timed sweep fans out with `--jobs N` (same knob as the other
 * sweep benches); results are bit-identical across worker counts.
 */

#include "bench_common.hh"

#include "coherence/dragon_engine.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "gen/workloads.hh"
#include "stats/table.hh"
#include "timing/sweep.hh"
#include "timing/timed_bus.hh"

namespace
{

using namespace dirsim;

const std::vector<sim::Scheme> contentionSchemes = {
    sim::Scheme::Dir0B, sim::Scheme::Dir1NB, sim::Scheme::Dragon,
    sim::Scheme::WTI};

constexpr std::uint64_t refsPerCpu = 20'000;

timing::TimedSweepPoint
pointFor(sim::Scheme scheme, unsigned nCpus, timing::Discipline d)
{
    const gen::WorkloadConfig workload =
        gen::scaledConfig(nCpus, refsPerCpu * nCpus);
    timing::TimedSweepPoint point;
    point.name = sim::schemeName(scheme) + "@" +
                 std::to_string(nCpus) + "/" +
                 timing::disciplineName(d);
    point.config.scheme = scheme;
    point.config.bus = timing::timedPipelinedBus();
    point.config.discipline = d;
    point.engine = [scheme, units = workload.space.nProcesses] {
        switch (sim::engineKindFor(scheme)) {
          case sim::EngineKind::Limited:
            return std::unique_ptr<coherence::CoherenceEngine>(
                std::make_unique<coherence::LimitedEngine>(units, 1));
          case sim::EngineKind::Dragon:
            return std::unique_ptr<coherence::CoherenceEngine>(
                std::make_unique<coherence::DragonEngine>(units));
          default: {
            coherence::InvalEngineConfig cfg;
            cfg.nUnits = units;
            return std::unique_ptr<coherence::CoherenceEngine>(
                std::make_unique<coherence::InvalEngine>(cfg));
          }
        }
    };
    point.source = [workload] {
        return std::make_unique<gen::WorkloadSource>(workload);
    };
    return point;
}

std::string
exhibit()
{
    const std::vector<unsigned> cpuCounts = {2, 4, 8, 16};

    // One sweep for the whole matrix, fanned out per --jobs.
    std::vector<timing::TimedSweepPoint> points;
    for (const sim::Scheme scheme : contentionSchemes)
        for (const unsigned n : cpuCounts)
            points.push_back(
                pointFor(scheme, n, timing::Discipline::FCFS));
    for (const auto d :
         {timing::Discipline::FCFS, timing::Discipline::RoundRobin,
          timing::Discipline::FixedPriority})
        points.push_back(pointFor(sim::Scheme::WTI, 8, d));

    bench::WallTimer timer;
    const auto runs =
        timing::runTimedSweep(points, bench::sweepJobs());
    const double sweep_s = timer.seconds();

    std::ostringstream os;

    std::vector<std::string> headers = {"Scheme"};
    for (const unsigned n : cpuCounts)
        headers.push_back("n=" + std::to_string(n));
    stats::TextTable util(
        "Timed pipelined bus: utilization (fraction of makespan busy)",
        headers);
    stats::TextTable delay(
        "Mean queueing delay per bus transaction (cycles)", headers);
    std::size_t r = 0;
    for (const sim::Scheme scheme : contentionSchemes) {
        std::vector<std::string> urow = {sim::schemeName(scheme)};
        std::vector<std::string> drow = {sim::schemeName(scheme)};
        for (std::size_t c = 0; c < cpuCounts.size(); ++c, ++r) {
            urow.push_back(
                stats::TextTable::num(runs[r].busUtilization()));
            drow.push_back(
                stats::TextTable::num(runs[r].meanQueueDelay()));
        }
        util.addRow(urow);
        delay.addRow(drow);
    }
    os << util.toString() << "\n" << delay.toString() << "\n";

    stats::TextTable disc(
        "Arbitration at a saturated bus (WTI, 8 CPUs): who eats the "
        "stall",
        {"Discipline", "Util", "Mean delay", "p95 delay",
         "Stall cpu0", "Stall cpu7"});
    for (; r < runs.size(); ++r) {
        const timing::TimedRun &run = runs[r];
        disc.addRow(
            {run.discipline,
             stats::TextTable::num(run.busUtilization()),
             stats::TextTable::num(run.meanQueueDelay()),
             stats::TextTable::num(run.p95QueueDelay()),
             stats::TextTable::num(run.cpus.front().stallFraction()),
             stats::TextTable::num(run.cpus.back().stallFraction())});
    }
    os << disc.toString() << "\n";
    os << "[sweep] " << points.size() << " timed runs in " << sweep_s
       << " s (--jobs " << bench::sweepJobs() << ")\n";
    return os.str();
}

void
BM_TimedBusRun(benchmark::State &state)
{
    const gen::WorkloadConfig workload = gen::scaledConfig(4, 40'000);
    for (auto _ : state) {
        timing::TimedBusConfig cfg;
        cfg.scheme = sim::Scheme::Dir0B;
        cfg.bus = timing::timedPipelinedBus();
        coherence::InvalEngineConfig ecfg;
        ecfg.nUnits = workload.space.nProcesses;
        timing::TimedBusSim sim(
            cfg, std::make_unique<coherence::InvalEngine>(ecfg));
        gen::WorkloadSource source(workload);
        benchmark::DoNotOptimize(sim.run(source).busBusyCycles);
    }
}
BENCHMARK(BM_TimedBusRun)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    dirsim::bench::parseJobs(&argc, argv);
    return dirsim::bench::runBench(argc, argv, exhibit());
}
