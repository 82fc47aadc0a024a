/**
 * @file
 * Parallel sweep engine for protocol×workload×configuration runs.
 *
 * The paper's evaluation is embarrassingly parallel: every
 * (protocol engine, trace) pair is an independent state model run
 * (Section 4.1), so a full reproduction — four protocols × three
 * workloads × the sensitivity sweeps — fans out across threads with
 * no coupling at all.  A SweepPoint describes one such run: a factory
 * for the engines it owns and its reference stream — a shared
 * immutable PreparedTrace (read-only, so zero-copy across threads), a
 * span-cursor factory over a stored trace, or a RefSource factory.
 *
 * Results are collected under a mutex and returned in submission
 * order, so a parallel sweep is bit-identical to running the same
 * points serially — the test suite holds SweepRunner to exactly that.
 */

#ifndef DIRSIM_SIM_SWEEP_HH
#define DIRSIM_SIM_SWEEP_HH

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "coherence/engine.hh"
#include "sim/simulator.hh"
#include "trace/ref_source.hh"
#include "util/thread_pool.hh"

namespace dirsim::sim
{

/**
 * Run independent tasks on a util::ThreadPool and return their
 * results in submission order.
 *
 * This is the deterministic-collection core shared by SweepRunner,
 * the analysis layer's trace fetch and timing::runTimedSweep: result
 * slots are pre-sized so completion order cannot reorder output,
 * every write lands under one mutex, and if tasks throw, the
 * earliest-submitted failure is rethrown after all tasks have
 * completed.  With one job (or at most one task) the tasks run in
 * order on the calling thread, with the same collection and rethrow:
 * no worker thread, so a serial run allocates from the caller's
 * malloc arena like any other serial code.  @p Result must be
 * default-constructible and movable.
 *
 * @param jobs Worker threads as given to util::ThreadPool (0 = one
 *             per hardware thread); never more than one per task.
 */
template <typename Result>
std::vector<Result>
runOrdered(unsigned jobs,
           const std::vector<std::function<Result()>> &tasks)
{
    std::vector<Result> results(tasks.size());
    std::vector<std::exception_ptr> errors(tasks.size());
    std::mutex collect;
    const auto runTask = [&results, &errors, &collect, &tasks](
                             std::size_t i) {
        Result res{};
        std::exception_ptr error;
        try {
            res = tasks[i]();
        } catch (...) {
            error = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(collect);
        results[i] = std::move(res);
        errors[i] = error;
    };

    const std::size_t threads = std::min<std::size_t>(
        util::ThreadPool::resolveThreads(jobs), tasks.size());
    if (threads <= 1) {
        for (std::size_t i = 0; i < tasks.size(); ++i)
            runTask(i);
    } else {
        util::ThreadPool pool(static_cast<unsigned>(threads));
        for (std::size_t i = 0; i < tasks.size(); ++i)
            pool.submit([&runTask, i] { runTask(i); });
        pool.wait();
    }

    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    return results;
}

/** One independent simulation job in a sweep. */
struct SweepPoint
{
    std::string name; //!< Label carried through to the result.
    SimConfig sim;    //!< Driver configuration for this point.

    /**
     * Builds the engines this point runs.  Invoked on the worker
     * thread; the engines it returns are owned by the job and freed
     * when the job completes, so the factory must not hand out
     * engines shared with other points.
     */
    std::function<std::vector<std::unique_ptr<coherence::CoherenceEngine>>()>
        engines;

    /**
     * Builds the reference stream.  Invoked on the worker thread.
     * To share one trace across points, capture a `const MemoryTrace*`
     * and return a MemoryTraceSource over it — replay never mutates
     * the trace.  To regenerate instead, capture a WorkloadConfig and
     * return a WorkloadSource (deterministic from its seed).  Leave
     * unset when @ref prepared supplies the stream.
     */
    std::function<std::unique_ptr<trace::RefSource>()> source;

    /**
     * Already-decoded stream to replay instead of @ref source —
     * bit-identical results, no per-record decode (typically from
     * sim::TraceRepository, shared across every point of a sweep).
     * When both are set, the prepared trace wins.
     */
    std::shared_ptr<const trace::PreparedTrace> prepared;

    /**
     * Builds a PreparedSpanSource to replay instead of @ref prepared
     * or @ref source — the out-of-core path.  Invoked on the worker
     * thread: each job gets its own cursor (cursors carry mutable
     * window state), typically trace::StoredTrace::spanCursor() over
     * a store shared by every point.  Takes precedence over both
     * other stream fields.
     */
    std::function<std::unique_ptr<trace::PreparedSpanSource>()> spans;

    /**
     * Fusion group key.  Consecutive add()ed points carrying the same
     * non-empty key and an equal sim config run as ONE job: a single
     * Simulator owns every member's engines and replays the group's
     * stream once, fused (sim/fused_replay.hh) — the scheme axis of a
     * sweep collapses into one column pass per workload.  Results are
     * still one SweepPointResult per point, in submission order,
     * bit-identical to unfused execution (engines are independent
     * state models; span interleaving is invisible to them).
     *
     * Contract: every point of a group must describe the same
     * reference stream — the runner replays the FIRST member's
     * stream for the whole group.  Empty key (the default) keeps the
     * point standalone.
     */
    std::string fuseKey;

    /**
     * Multi-configuration collapse hint.  Nonzero → this point's
     * engine is a plain DiriNB LimitedEngine (no directory cache)
     * with this pointer count over @ref multiUnits caches, and the
     * runner may run it as one lane of a shared
     * coherence::MultiLimitedEngine together with the other such
     * cells of its fusion group: one block-table lookup per reference
     * serves every pointer count, results fanned back to their cells
     * (bit-identical to independent engines — the differential suite
     * holds it to that).  The @ref engines factory must still build
     * the equivalent independent engine; it is the fallback used
     * when the group ends up with fewer than two collapsible cells
     * or the unit counts disagree.  Zero (the default) always uses
     * the factory.
     */
    unsigned multiPointers = 0;
    /** Unit count for @ref multiPointers; required nonzero with it. */
    unsigned multiUnits = 0;
};

/** Outcome of one SweepPoint. */
struct SweepPointResult
{
    std::string name;
    std::uint64_t refs = 0; //!< References processed.
    /** One result per engine, in the factory's order. */
    std::vector<coherence::EngineResults> engines;
};

/**
 * Fans SweepPoints out across a thread pool.
 *
 * Usage: add() every point, then run() once.  Points execute on
 * worker threads (each job builds, runs and destroys its own engines
 * and source); results come back in submission order regardless of
 * completion order.  If any point throws, run() completes the
 * remaining points and rethrows the earliest-submitted failure.
 */
class SweepRunner
{
  public:
    /** @param jobs Worker threads; 0 = one per hardware thread. */
    explicit SweepRunner(unsigned jobs = 0);

    /** Queue a point; returns its index into run()'s result vector. */
    std::size_t add(SweepPoint point);

    /**
     * Run every queued point to completion.
     *
     * @return One SweepPointResult per add(), in submission order.
     */
    std::vector<SweepPointResult> run();

    /** Worker threads the runner will use. */
    unsigned jobs() const { return _jobs; }
    std::size_t numPoints() const { return _points.size(); }

    /**
     * Points per job as run() would fuse them, in submission order
     * (test/diagnostic hook: all-ones means no fusion will happen).
     */
    std::vector<std::size_t> plannedGroupSizes() const;

    /**
     * Per fusion group (same order as plannedGroupSizes()), the
     * number of points that will collapse into one shared
     * MultiLimitedEngine — 0 when the group runs every point's own
     * engine factory (fewer than two multiPointers cells, or
     * disagreeing multiUnits).
     */
    std::vector<std::size_t> plannedMultiLanes() const;

  private:
    unsigned _jobs;
    std::vector<SweepPoint> _points;
};

} // namespace dirsim::sim

#endif // DIRSIM_SIM_SWEEP_HH
