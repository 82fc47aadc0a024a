/**
 * @file
 * One-shot reproduction driver: runs the complete evaluation — every
 * table and figure of the paper plus the extension studies — and
 * writes each exhibit as both aligned text and CSV into an output
 * directory, so the whole paper can be regenerated (and plotted) with
 * a single command.
 *
 * Usage: reproduce_paper [outdir] [--full] [--jobs N] [flags below]
 *   outdir   defaults to ./results
 *   --full   full-size (~3.2M reference) traces
 *   --jobs N fan simulation sweeps out over N worker threads
 *            (0 = one per hardware thread; default 1 = one job on
 *            the calling thread); every job count gives
 *            bit-identical exhibits
 *   --trace-cache-dir PATH    persist prepared traces as out-of-core
 *            store files under PATH and replay them streamed; a
 *            second run (even in another process) reuses the files
 *            and skips all generate/prepare work
 *   --trace-cache-budget MiB  disk-cache byte budget (default 4096)
 *   --stream-chunk-refs N     refs per streamed chunk (default
 *            1048576; smaller = lower replay RSS)
 *   --repo-stats   print trace-repository hit/miss/spill counters
 *            at the end of the run
 *   --schemes CSV  restrict the Section 6 DiriNB pointer sweep to
 *            the named configurations (dir1nb..dir8nb, in the order
 *            given); an unknown name is a hard error
 *
 * Any other flag, or a second output directory, is a usage error
 * (exit 2) before any work starts.
 */

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "analysis/evaluation.hh"
#include "cli/parse.hh"
#include "analysis/exhibits.hh"
#include "analysis/analytical.hh"
#include "analysis/extensions.hh"
#include "analysis/system_perf.hh"
#include "gen/workloads.hh"
#include "sim/trace_repo.hh"
#include "trace/store.hh"

namespace
{

using namespace dirsim;

std::filesystem::path outDir;

void
emit(const std::string &name, const stats::TextTable &table)
{
    std::cout << table.toString() << "\n";
    std::ofstream txt(outDir / (name + ".txt"));
    txt << table.toString();
    std::ofstream csv(outDir / (name + ".csv"));
    csv << table.toCsv();
    if (!txt || !csv)
        throw std::runtime_error("cannot write exhibit " + name);
}

} // namespace

int
main(int argc, char **argv)
{
    bool full_size = false;
    unsigned jobs = 1;
    std::string cacheDir;
    std::uint64_t cacheBudgetMiB = 4096;
    std::uint64_t streamChunkRefs = trace::kDefaultChunkRefs;
    bool repoStats = false;
    // Section 6 sweeps Dir1NB..Dir4NB by default (the paper's range);
    // --schemes replaces the list from the dirXnb vocabulary.
    std::vector<unsigned> sweepPointers = {1, 2, 3, 4};
    outDir = "results";
    bool outDirGiven = false;
    const auto usage = [](const std::string &error) {
        std::cerr << "error: " << error << "\n"
                  << "usage: reproduce_paper [outdir] [--full] "
                     "[--jobs N] [--trace-cache-dir PATH] "
                     "[--trace-cache-budget MiB] "
                     "[--stream-chunk-refs N] [--repo-stats] "
                     "[--schemes CSV]\n";
        std::exit(2);
    };
    const auto want = [&](int &a, const char *flag) -> const char * {
        if (a + 1 >= argc) {
            std::cerr << "error: " << flag << " requires a value\n";
            std::exit(2);
        }
        return argv[++a];
    };
    for (int a = 1; a < argc; ++a) {
        if (std::strcmp(argv[a], "--full") == 0) {
            full_size = true;
        } else if (std::strcmp(argv[a], "--jobs") == 0) {
            jobs = cli::parseUnsigned(want(a, "--jobs"), "--jobs");
        } else if (std::strncmp(argv[a], "--jobs=", 7) == 0) {
            jobs = cli::parseUnsigned(argv[a] + 7, "--jobs");
        } else if (std::strcmp(argv[a], "--trace-cache-dir") == 0) {
            cacheDir = want(a, "--trace-cache-dir");
        } else if (std::strcmp(argv[a], "--trace-cache-budget") ==
                   0) {
            cacheBudgetMiB = cli::parseUnsignedInRange(
                want(a, "--trace-cache-budget"),
                "--trace-cache-budget", 1, 16u * 1024 * 1024);
        } else if (std::strcmp(argv[a], "--stream-chunk-refs") == 0) {
            streamChunkRefs = cli::parseUnsignedInRange(
                want(a, "--stream-chunk-refs"), "--stream-chunk-refs",
                1, 1u << 31);
        } else if (std::strcmp(argv[a], "--repo-stats") == 0) {
            repoStats = true;
        } else if (std::strcmp(argv[a], "--schemes") == 0) {
            const std::vector<std::string> allowed = {
                "dir1nb", "dir2nb", "dir3nb", "dir4nb",
                "dir5nb", "dir6nb", "dir7nb", "dir8nb"};
            sweepPointers.clear();
            for (const std::string &name : cli::parseNameList(
                     want(a, "--schemes"), "--schemes", allowed))
                sweepPointers.push_back(
                    static_cast<unsigned>(name[3] - '0'));
        } else if (argv[a][0] == '-') {
            usage(std::string("unknown flag '") + argv[a] + "'");
        } else if (outDirGiven) {
            usage(std::string("unexpected argument '") + argv[a] +
                  "' (output directory already given as '" +
                  outDir.string() + "')");
        } else {
            outDir = argv[a];
            outDirGiven = true;
        }
    }
    // Every evaluation below (including the ones inside the extension
    // studies) picks this up and fans out over the sweep engine.
    analysis::setDefaultEvalJobs(jobs);
    if (!cacheDir.empty()) {
        sim::DiskCacheConfig disk;
        disk.dir = cacheDir;
        disk.budgetBytes = cacheBudgetMiB * 1024 * 1024;
        disk.chunkRefs = streamChunkRefs;
        sim::TraceRepository::global().setDiskCache(disk);
        // Stream warm/spilled store files instead of materialising
        // prepared traces; results are bit-identical either way.
        analysis::setDefaultStreamReplay(true);
        std::cout << "Trace cache: " << cacheDir << " (budget "
                  << cacheBudgetMiB << " MiB, chunk "
                  << streamChunkRefs << " refs)\n";
    }
    std::filesystem::create_directories(outDir);
    std::cout << "Writing exhibits to " << outDir << "/ (sweep jobs: "
              << jobs << ") ...\n\n";
    const auto wall_start = std::chrono::steady_clock::now();

    const auto workloads = gen::standardWorkloads(full_size);

    emit("table1", analysis::table1());
    emit("table2", analysis::table2());
    emit("table3",
         analysis::table3(analysis::characterizeWorkloads(workloads)));

    const analysis::Evaluation eval =
        analysis::evaluateWorkloads(workloads);
    emit("table4", analysis::table4(eval));
    emit("figure1",
         analysis::renderFigure1(analysis::figure1(eval), 5));
    emit("figure2", analysis::figure2(eval));
    emit("figure3", analysis::figure3(eval));
    emit("table5", analysis::table5(eval));
    emit("figure4", analysis::figure4(eval));
    emit("figure5", analysis::figure5(eval));
    emit("sec51_overhead",
         analysis::section51(eval, {0.0, 1.0, 2.0, 4.0}));

    {
        analysis::EvalOptions opts;
        opts.dropLockTests = true;
        const analysis::Evaluation no_locks =
            analysis::evaluateWorkloads(workloads, opts);
        emit("sec52_spinlocks", analysis::section52(eval, no_locks));
    }

    emit("sec6_alternatives",
         analysis::renderSection6(analysis::section6(eval, 8.0), 8.0));
    emit("sec6_dirinb_sweep",
         analysis::limitedSweepTable(
             analysis::limitedSweep(workloads, sweepPointers),
             sweepPointers));
    emit("sec6_storage", analysis::section6Storage({4, 8, 16, 32, 64}));
    emit("ext_directory_messages",
         analysis::renderDirectoryMessages(
             analysis::directoryMessageStudy(full_size)));

    // System limit (Section 5 closing paragraph).
    {
        std::vector<analysis::SystemEstimate> estimates;
        for (const auto &sc : analysis::schemeCosts(eval.average)) {
            estimates.push_back(analysis::systemEstimate(
                sc.pipelined, analysis::MachineParams{}));
        }
        emit("sec5_system_limit",
             analysis::renderSystemLimits(estimates, {4, 8, 16, 32}));
    }
    emit("sec5_berkeley",
         analysis::section5Berkeley(
             eval, analysis::berkeleyResults(workloads)));

    // Extension studies.
    emit("ext_scaling",
         analysis::renderScaling(analysis::scalingStudy({2, 4, 8, 16})));
    emit("ext_finite_cache",
         analysis::renderFiniteCache(analysis::finiteCacheStudy(
             {8 * 1024, 16 * 1024, 32 * 1024, 128 * 1024, 512 * 1024,
              1024 * 1024, 2048 * 1024},
             full_size)));
    emit("ext_sharing_domain",
         analysis::renderSharingDomain(
             analysis::sharingDomainStudy(0.02, full_size)));
    emit("ext_network",
         analysis::renderNetwork(
             analysis::networkStudy({2, 4, 8, 16, 32, 64})));
    emit("ext_home_locality",
         analysis::renderHomeLocality(
             analysis::homeLocalityStudy({2, 4, 8, 16, 32})));
    emit("ext_analytical",
         analysis::renderAnalytical(
             analysis::analyticalStudy(workloads)));
    emit("ext_ablations_block_size",
         analysis::renderBlockSize(
             analysis::blockSizeStudy({4, 8, 16, 32, 64})));
    emit("ext_ablations_lock_layout",
         analysis::renderLockLayout(analysis::lockLayoutStudy()));
    emit("ext_ablations_migration",
         analysis::renderMigration(
             analysis::migrationStudy({0.0, 0.05, 0.25})));
    {
        const auto points = analysis::dirCacheStudy(
            workloads, {128, 512, 2048, 8192, 0});
        emit("ext_dir_cache", analysis::renderDirCache(points));
        emit("ext_dir_cache_locality",
             analysis::renderDirCacheLocality(points));
    }
    {
        const analysis::ContentionStudy contention =
            analysis::contentionStudy({2, 4, 8, 16}, 8, 20'000);
        emit("ext_contention_utilization",
             analysis::renderUtilization(contention));
        emit("ext_contention_delay",
             analysis::renderQueueDelay(contention));
        emit("ext_contention_arbitration",
             analysis::renderArbitration(contention));
    }

    const double wall_s =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    std::cout << "Done: " << outDir << "/ contains every exhibit as "
              << ".txt and .csv (" << wall_s << " s wall clock, "
              << jobs << " sweep job" << (jobs == 1 ? "" : "s")
              << ")\n";
    if (repoStats)
        std::cout << "Repo stats: "
                  << sim::TraceRepository::global().stats().summary()
                  << "\n";
    return 0;
}
