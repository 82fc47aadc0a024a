/**
 * @file
 * Tests for the parallel evaluation path and its supporting fixes.
 *
 * The central property: analysis::runMatrix fanned out across worker
 * threads is *bit-identical* to running the same engines serially —
 * same event counts, same histograms, same auxiliary counters, for
 * every protocol engine.  Alongside: thread-pool basics,
 * submission-ordered collection (sim::runOrdered), error
 * propagation, the fail-clean Simulator capacity check, and the
 * text-trace range-check regression.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <sstream>
#include <thread>

#include "analysis/evaluation.hh"
#include "coherence/berkeley_engine.hh"
#include "coherence/dragon_engine.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "gen/workload.hh"
#include "gen/workloads.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "util/thread_pool.hh"
#include "trace/io.hh"
#include "trace/trace.hh"

namespace
{

using namespace dirsim;

/** The protocol engines under test, buildable by name. */
const std::vector<std::string> protocolNames = {
    "inval", "dir1nb", "dir2nb", "dragon", "berkeley"};

std::unique_ptr<coherence::CoherenceEngine>
makeEngine(const std::string &protocol, unsigned units)
{
    if (protocol == "inval") {
        coherence::InvalEngineConfig cfg;
        cfg.nUnits = units;
        return std::make_unique<coherence::InvalEngine>(cfg);
    }
    if (protocol == "dir1nb")
        return std::make_unique<coherence::LimitedEngine>(units, 1);
    if (protocol == "dir2nb")
        return std::make_unique<coherence::LimitedEngine>(units, 2);
    if (protocol == "dragon")
        return std::make_unique<coherence::DragonEngine>(units);
    if (protocol == "berkeley")
        return std::make_unique<coherence::BerkeleyEngine>(units);
    throw std::logic_error("unknown protocol " + protocol);
}

/** Small but non-trivial versions of the three standard workloads. */
std::vector<gen::WorkloadConfig>
smallWorkloads()
{
    auto cfgs = gen::standardWorkloads();
    for (auto &cfg : cfgs)
        cfg.totalRefs = 40'000;
    return cfgs;
}

TEST(ThreadPoolTest, RunsEveryTask)
{
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.numThreads(), 4u);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
}

/**
 * Tasks must not throw (thread_pool.hh's contract).  A task that does
 * must die loudly — message on stderr, then abort — instead of the
 * bare std::terminate an escaping exception used to trigger.
 */
TEST(ThreadPoolDeathTest, ThrowingTaskAbortsWithMessage)
{
    EXPECT_DEATH(
        {
            util::ThreadPool pool(1);
            pool.submit(
                [] { throw std::runtime_error("boom"); });
            pool.wait();
        },
        "task threw 'boom'; tasks must not throw");
}

TEST(ThreadPoolTest, WaitIsReusable)
{
    util::ThreadPool pool(2);
    std::atomic<int> counter{0};
    pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 1);
    pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 2);
}

TEST(RunOrderedTest, ZeroTasksReturnEmpty)
{
    const std::vector<std::function<int()>> tasks;
    EXPECT_TRUE(sim::runOrdered<int>(4, tasks).empty());
}

/** More workers than tasks: results still land in submission order. */
TEST(RunOrderedTest, MoreJobsThanTasks)
{
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 3; ++i)
        tasks.push_back([i] { return i * 10; });
    const std::vector<int> results = sim::runOrdered<int>(8, tasks);
    ASSERT_EQ(results.size(), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(results[static_cast<std::size_t>(i)], i * 10);
}

/**
 * When several tasks throw, the earliest-submitted failure is the one
 * rethrown — not whichever completed first — and only after every
 * task has run.
 */
TEST(RunOrderedTest, RethrowsEarliestSubmittedFailure)
{
    std::atomic<int> ran{0};
    std::vector<std::function<int()>> tasks;
    tasks.push_back([&ran] {
        ++ran;
        return 0;
    });
    tasks.push_back([&ran]() -> int {
        ++ran;
        throw std::runtime_error("first failure");
    });
    tasks.push_back([&ran]() -> int {
        ++ran;
        throw std::logic_error("second failure");
    });
    tasks.push_back([&ran] {
        ++ran;
        return 3;
    });
    try {
        sim::runOrdered<int>(2, tasks);
        FAIL() << "expected the earliest failure to be rethrown";
    } catch (const std::runtime_error &err) {
        EXPECT_STREQ(err.what(), "first failure");
    }
    EXPECT_EQ(ran.load(), 4);
}

/**
 * One job runs the batch in submission order on the calling thread —
 * no worker thread at all — and keeps the pool path's contract: every
 * task runs, and the earliest-submitted failure is rethrown.
 */
TEST(RunOrdered, SingleJobRunsInlineAndRethrowsEarliest)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::mutex mutex;
    std::vector<int> order;
    std::vector<std::thread::id> threads;
    const auto record = [&](int i) {
        std::lock_guard<std::mutex> lock(mutex);
        order.push_back(i);
        threads.push_back(std::this_thread::get_id());
    };
    std::vector<std::function<int()>> tasks;
    tasks.push_back([&record] {
        record(0);
        return 0;
    });
    tasks.push_back([&record]() -> int {
        record(1);
        throw std::runtime_error("first failure");
    });
    tasks.push_back([&record]() -> int {
        record(2);
        throw std::logic_error("second failure");
    });
    tasks.push_back([&record] {
        record(3);
        return 3;
    });
    try {
        sim::runOrdered<int>(1, tasks);
        FAIL() << "expected the earliest failure to be rethrown";
    } catch (const std::runtime_error &err) {
        EXPECT_STREQ(err.what(), "first failure");
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    ASSERT_EQ(threads.size(), 4u);
    for (const std::thread::id id : threads)
        EXPECT_EQ(id, caller);
}

/**
 * analysis::runMatrix at 8 jobs versus the serial Simulator path, for
 * every protocol engine: each workload's five engines replay its
 * shared prepared trace in one job.
 */
TEST(SweepTest, BitIdenticalToSerialForEveryProtocol)
{
    const auto cfgs = smallWorkloads();

    // Serial reference: one Simulator per workload carrying all the
    // protocol engines in one pass over the raw generator.
    std::vector<std::vector<coherence::EngineResults>> serial;
    for (const auto &cfg : cfgs) {
        sim::Simulator simulator;
        for (const auto &protocol : protocolNames)
            simulator.addEngine(
                makeEngine(protocol, cfg.space.nProcesses));
        gen::WorkloadSource source(cfg);
        simulator.run(source);
        std::vector<coherence::EngineResults> results;
        for (std::size_t e = 0; e < simulator.numEngines(); ++e)
            results.push_back(simulator.engine(e).results());
        serial.push_back(std::move(results));
    }

    std::vector<analysis::EngineSpec> specs;
    for (const auto &protocol : protocolNames) {
        specs.push_back({[protocol](unsigned units) {
            return makeEngine(protocol, units);
        }});
    }
    analysis::EvalOptions opts;
    opts.jobs = 8;
    const auto matrix = analysis::runMatrix(cfgs, opts, specs);

    ASSERT_EQ(matrix.size(), cfgs.size());
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        ASSERT_EQ(matrix[c].size(), protocolNames.size());
        for (std::size_t p = 0; p < protocolNames.size(); ++p) {
            EXPECT_TRUE(matrix[c][p] == serial[c][p])
                << "parallel results diverged for " << cfgs[c].name
                << "/" << protocolNames[p];
        }
    }
}

/** An engine too narrow for a workload fails the whole matrix. */
TEST(SweepTest, PropagatesJobFailure)
{
    const std::vector<analysis::EngineSpec> specs = {
        {[](unsigned) {
            // Fewer units than the workloads' process counts.
            return makeEngine("dragon", 2);
        }}};
    analysis::EvalOptions opts;
    opts.jobs = 2;
    EXPECT_THROW(analysis::runMatrix(smallWorkloads(), opts, specs),
                 std::runtime_error);
}

/** The analysis-layer parallel path equals its serial path exactly. */
TEST(SweepTest, ParallelEvaluationMatchesSerial)
{
    const auto cfgs = smallWorkloads();

    analysis::EvalOptions serial_opts;
    serial_opts.jobs = 1;
    const analysis::Evaluation serial =
        analysis::evaluateWorkloads(cfgs, serial_opts);

    analysis::EvalOptions parallel_opts;
    parallel_opts.jobs = 8;
    const analysis::Evaluation parallel =
        analysis::evaluateWorkloads(cfgs, parallel_opts);

    ASSERT_EQ(serial.traces.size(), parallel.traces.size());
    for (std::size_t c = 0; c < serial.traces.size(); ++c) {
        EXPECT_EQ(serial.traces[c].trace, parallel.traces[c].trace);
        EXPECT_TRUE(serial.traces[c].inval == parallel.traces[c].inval);
        EXPECT_TRUE(serial.traces[c].dir1nb ==
                    parallel.traces[c].dir1nb);
        EXPECT_TRUE(serial.traces[c].dragon ==
                    parallel.traces[c].dragon);
    }
    EXPECT_TRUE(serial.average.inval == parallel.average.inval);
    EXPECT_TRUE(serial.average.dir1nb == parallel.average.dir1nb);
    EXPECT_TRUE(serial.average.dragon == parallel.average.dragon);
}

/** Same for the lock-test-filtered (Section 5.2) evaluation. */
TEST(SweepTest, ParallelFilteredEvaluationMatchesSerial)
{
    const std::vector<gen::WorkloadConfig> cfgs = {smallWorkloads()[0]};

    analysis::EvalOptions serial_opts;
    serial_opts.jobs = 1;
    serial_opts.dropLockTests = true;
    const analysis::Evaluation serial =
        analysis::evaluateWorkloads(cfgs, serial_opts);

    analysis::EvalOptions parallel_opts;
    parallel_opts.jobs = 4;
    parallel_opts.dropLockTests = true;
    const analysis::Evaluation parallel =
        analysis::evaluateWorkloads(cfgs, parallel_opts);

    EXPECT_TRUE(serial.average.inval == parallel.average.inval);
    EXPECT_TRUE(serial.average.dragon == parallel.average.dragon);
}

TEST(SweepTest, ParallelLimitedSweepMatchesSerial)
{
    const auto cfgs = smallWorkloads();
    const std::vector<unsigned> pointers = {1, 2, 4};

    analysis::EvalOptions serial_opts;
    serial_opts.jobs = 1;
    const auto serial =
        analysis::limitedSweep(cfgs, pointers, serial_opts);

    analysis::EvalOptions parallel_opts;
    parallel_opts.jobs = 8;
    const auto parallel =
        analysis::limitedSweep(cfgs, pointers, parallel_opts);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t e = 0; e < serial.size(); ++e)
        EXPECT_TRUE(serial[e] == parallel[e]);
}

/**
 * A run that overflows an engine's unit capacity must leave every
 * engine unmutated (the old driver threw mid-stream and left the
 * engines with mutually inconsistent partial counts).
 */
TEST(SimulatorTest, FailedRunMutatesNothing)
{
    trace::MemoryTrace trace;
    for (unsigned pid = 0; pid < 8; ++pid) {
        trace::TraceRecord rec;
        rec.addr = 0x1000 + 16 * pid;
        rec.pid = static_cast<std::uint16_t>(pid);
        rec.cpu = static_cast<std::uint8_t>(pid % 4);
        rec.type = trace::RefType::Write;
        trace.append(rec);
    }

    sim::Simulator simulator;
    auto &big = simulator.addEngine(makeEngine("inval", 8));
    auto &small = simulator.addEngine(makeEngine("dragon", 4));

    trace::MemoryTraceSource source(trace);
    EXPECT_THROW(simulator.run(source), std::runtime_error);

    // Both engines reset — not just the one that overflowed.
    EXPECT_EQ(big.results().events.totalRefs(), 0u);
    EXPECT_EQ(small.results().events.totalRefs(), 0u);
    EXPECT_EQ(simulator.unitsSeen(), 0u);

    // The simulator stays usable: a fitting trace runs afterwards.
    trace::MemoryTrace small_trace;
    for (unsigned pid = 0; pid < 4; ++pid) {
        trace::TraceRecord rec;
        rec.addr = 0x2000 + 16 * pid;
        rec.pid = static_cast<std::uint16_t>(pid);
        rec.type = trace::RefType::Read;
        small_trace.append(rec);
    }
    trace::MemoryTraceSource retry(small_trace);
    EXPECT_EQ(simulator.run(retry), 4u);
    EXPECT_EQ(big.results().events.totalRefs(), 4u);
    EXPECT_EQ(small.results().events.totalRefs(), 4u);
}

/**
 * An address past the 32-bit block index, two batches into the
 * stream, fails the same way: the engines drop the first batch they
 * already replayed, and the next run numbers blocks from scratch.
 */
TEST(SimulatorTest, WideAddressFailsCleanAfterEarlierBatches)
{
    trace::MemoryTrace trace;
    for (unsigned i = 0; i < 5000; ++i) {
        trace::TraceRecord rec;
        rec.addr = 0x1000 + 16 * (i % 64);
        rec.pid = static_cast<std::uint16_t>(i % 2);
        rec.type = i % 3 == 0 ? trace::RefType::Instr
                              : trace::RefType::Read;
        trace.append(rec);
    }
    trace::TraceRecord wide;
    wide.addr = std::uint64_t{1} << 40;
    wide.type = trace::RefType::Write;
    trace.append(wide);

    sim::Simulator simulator;
    auto &engine = simulator.addEngine(makeEngine("inval", 2));
    trace::MemoryTraceSource source(trace);
    EXPECT_THROW(simulator.run(source), std::runtime_error);
    EXPECT_EQ(engine.results().events.totalRefs(), 0u);
    EXPECT_EQ(simulator.unitsSeen(), 0u);

    trace::MemoryTrace fits;
    trace::TraceRecord rec;
    rec.addr = 0x2000;
    rec.pid = 1;
    rec.type = trace::RefType::Write;
    fits.append(rec);
    trace::MemoryTraceSource retry(fits);
    EXPECT_EQ(simulator.run(retry), 1u);
    EXPECT_EQ(simulator.unitsSeen(), 1u);
    EXPECT_EQ(engine.results().events.totalRefs(), 1u);
    EXPECT_EQ(engine.blocksTracked(), 1u);
}

/** Regression: readText must reject values wider than record fields. */
TEST(TraceIoTest, ReadTextRejectsOutOfRangeFields)
{
    const auto parse = [](const std::string &text) {
        std::istringstream is(text);
        return trace::readText(is);
    };

    // cpu is 8-bit: 256 used to silently become cpu 0.
    EXPECT_THROW(parse("256 0 R 0x10 0\n"), std::runtime_error);
    // pid is 16-bit: 65536 used to silently become pid 0.
    EXPECT_THROW(parse("0 65536 R 0x10 0\n"), std::runtime_error);
    // flags is 8-bit.
    EXPECT_THROW(parse("0 0 R 0x10 256\n"), std::runtime_error);
    // Negative values must not wrap into valid records.
    EXPECT_THROW(parse("-1 0 R 0x10 0\n"), std::runtime_error);
    EXPECT_THROW(parse("0 -2 R 0x10 0\n"), std::runtime_error);

    // Boundary values still parse exactly.
    const trace::MemoryTrace trace = parse("255 65535 W 0xff 3\n");
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace[0].cpu, 255u);
    EXPECT_EQ(trace[0].pid, 65535u);
    EXPECT_EQ(trace[0].flags, 3u);
    EXPECT_TRUE(trace[0].isWrite());
}

/** Records must stay inside the header's declared cpu/pid counts. */
TEST(TraceIoTest, ReadTextRejectsRecordsOutsideDeclaredCounts)
{
    const auto parse = [](const std::string &text) {
        std::istringstream is(text);
        return trace::readText(is);
    };

    EXPECT_THROW(parse("# ncpus 2\n2 0 R 0x10 0\n"),
                 std::runtime_error);
    EXPECT_THROW(parse("# nprocesses 4\n0 4 R 0x10 0\n"),
                 std::runtime_error);
    // Header lines bound the ids wherever they appear in the file.
    EXPECT_THROW(parse("3 0 R 0x10 0\n# ncpus 2\n"),
                 std::runtime_error);

    // In-range records parse; undeclared counts stay unchecked.
    EXPECT_EQ(parse("# ncpus 2\n1 7 R 0x10 0\n").size(), 1u);
    EXPECT_EQ(parse("200 0 R 0x10 0\n").size(), 1u);
}

/** Batched replay must deliver the identical record stream. */
TEST(TraceIoTest, NextBatchMatchesNext)
{
    const gen::WorkloadConfig cfg = smallWorkloads()[0];
    const trace::MemoryTrace trace = gen::generateTrace(cfg);

    trace::MemoryTraceSource one_by_one(trace);
    trace::MemoryTraceSource batched(trace);
    std::vector<trace::TraceRecord> batch(1000);
    std::size_t total = 0;
    std::size_t n;
    while ((n = batched.nextBatch(batch.data(), batch.size())) != 0) {
        for (std::size_t i = 0; i < n; ++i) {
            trace::TraceRecord rec;
            ASSERT_TRUE(one_by_one.next(rec));
            EXPECT_TRUE(rec == batch[i]);
        }
        total += n;
    }
    trace::TraceRecord rec;
    EXPECT_FALSE(one_by_one.next(rec));
    EXPECT_EQ(total, trace.size());
}

} // namespace
