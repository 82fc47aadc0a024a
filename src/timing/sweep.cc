#include "timing/sweep.hh"

#include <stdexcept>

#include "sim/sweep.hh"

namespace dirsim::timing
{

std::vector<TimedRun>
runTimedSweep(const std::vector<TimedSweepPoint> &points, unsigned jobs)
{
    std::vector<std::function<TimedRun()>> tasks;
    tasks.reserve(points.size());
    for (const TimedSweepPoint &point : points) {
        if (!point.engine || (!point.source && !point.prepared))
            throw std::invalid_argument(
                "runTimedSweep: point '" + point.name +
                "' needs an engine factory and a source factory or "
                "prepared trace");
        tasks.push_back([&point] {
            TimedBusSim sim(point.config, point.engine());
            TimedRun run;
            if (point.prepared) {
                run = sim.run(*point.prepared);
            } else {
                const auto source = point.source();
                run = sim.run(*source);
            }
            run.name = point.name;
            return run;
        });
    }
    return sim::runOrdered<TimedRun>(jobs, tasks);
}

} // namespace dirsim::timing
