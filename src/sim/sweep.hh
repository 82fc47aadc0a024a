/**
 * @file
 * Deterministic parallel collection: sim::runOrdered.
 *
 * The paper's evaluation is embarrassingly parallel: every
 * (protocol engine, trace) pair is an independent state model run
 * (Section 4.1), so a full reproduction — four protocols × three
 * workloads × the sensitivity sweeps — fans out across threads with
 * no coupling at all.  runOrdered runs such independent tasks on a
 * thread pool and returns their results in submission order, so a
 * parallel run is bit-identical to the same tasks run serially.  The
 * workload×engine matrix (analysis::runMatrix), the directory-cache
 * study and the timed contention study each hand it one task per
 * independent run.
 */

#ifndef DIRSIM_SIM_SWEEP_HH
#define DIRSIM_SIM_SWEEP_HH

#include <algorithm>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

#include "util/thread_pool.hh"

namespace dirsim::sim
{

/**
 * Run independent tasks on a util::ThreadPool and return their
 * results in submission order.
 *
 * Result slots are pre-sized so completion order cannot reorder
 * output, every write lands under one mutex, and if tasks throw, the
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

} // namespace dirsim::sim

#endif // DIRSIM_SIM_SWEEP_HH
