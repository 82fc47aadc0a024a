/**
 * @file
 * Reproduces Figure 1: the histogram of the number of caches that
 * must be invalidated on a write to a previously-clean block.  The
 * paper's headline: over 85 % of such writes invalidate at most one
 * cache, which is what motivates limited-pointer directories.
 */

#include "bench_common.hh"

#include "coherence/inval_engine.hh"
#include "gen/workload.hh"
#include "trace/block_numbering.hh"

namespace
{

using namespace dirsim;

void
BM_FanoutCollection(benchmark::State &state)
{
    gen::WorkloadConfig cfg = gen::thorConfig();
    cfg.totalRefs = 150'000;
    const auto trace = gen::generateTrace(cfg);
    // Engines index their state by dense block id: number the data
    // blocks in first-touch order once, outside the timed loop.
    trace::BlockNumbering numbering;
    std::vector<std::uint32_t> ids;
    for (const auto &rec : trace.records())
        ids.push_back(rec.isInstr() ? 0
                                    : numbering.number(static_cast<
                                          std::uint32_t>(rec.addr / 16)));
    for (auto _ : state) {
        coherence::InvalEngineConfig ecfg;
        ecfg.nUnits = 4;
        coherence::InvalEngine engine(ecfg);
        const auto &records = trace.records();
        for (std::size_t i = 0; i < records.size(); ++i)
            engine.access(records[i].pid, records[i].type, ids[i]);
        benchmark::DoNotOptimize(
            engine.results().whClnFanout.totalSamples());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_FanoutCollection);

} // namespace

int
main(int argc, char **argv)
{
    using namespace dirsim;
    const analysis::Figure1 fig =
        analysis::figure1(bench::standardEval());
    return bench::runBench(
        argc, argv,
        analysis::renderFigure1(fig, bench::standardCpus + 1)
            .toString());
}
