#include "sim/sweep.hh"

#include <cstddef>
#include <stdexcept>

#include "coherence/multi_limited_engine.hh"

namespace dirsim::sim
{

namespace
{

constexpr std::size_t kNoLane = static_cast<std::size_t>(-1);

/** A fusion group's multi-configuration collapse plan. */
struct CollapsePlan
{
    /** Pointer counts of the collapsible cells, submission order. */
    std::vector<unsigned> lanePointers;
    unsigned units = 0;
    bool collapse = false;
};

/**
 * Decide whether the group [begin, end) collapses its DiriNB cells
 * into one MultiLimitedEngine: at least two cells carry a
 * multiPointers hint and all of them agree on the unit count.
 */
CollapsePlan
planCollapse(const std::vector<SweepPoint> &points, std::size_t begin,
             std::size_t end)
{
    CollapsePlan plan;
    bool unitsAgree = true;
    for (std::size_t i = begin; i < end; ++i) {
        const SweepPoint &point = points[i];
        if (point.multiPointers == 0)
            continue;
        if (point.multiUnits == 0)
            throw std::invalid_argument(
                "SweepRunner: multiPointers needs multiUnits");
        if (plan.lanePointers.empty())
            plan.units = point.multiUnits;
        else if (point.multiUnits != plan.units)
            unitsAgree = false;
        plan.lanePointers.push_back(point.multiPointers);
    }
    plan.collapse = unitsAgree && plan.lanePointers.size() >= 2;
    return plan;
}

} // namespace

SweepRunner::SweepRunner(unsigned jobs)
    : _jobs(util::ThreadPool::resolveThreads(jobs))
{
}

std::size_t
SweepRunner::add(SweepPoint point)
{
    if (!point.engines ||
        (!point.source && !point.prepared && !point.spans))
        throw std::invalid_argument(
            "SweepRunner: point needs an engine factory and a source "
            "factory, prepared trace or span-source factory");
    _points.push_back(std::move(point));
    return _points.size() - 1;
}

std::vector<std::size_t>
SweepRunner::plannedGroupSizes() const
{
    // Fusable: consecutive points sharing a non-empty fuseKey and an
    // equal sim config (one Simulator must serve the whole group).
    std::vector<std::size_t> sizes;
    for (std::size_t i = 0; i < _points.size();) {
        std::size_t end = i + 1;
        if (!_points[i].fuseKey.empty()) {
            while (end < _points.size() &&
                   _points[end].fuseKey == _points[i].fuseKey &&
                   _points[end].sim == _points[i].sim)
                ++end;
        }
        sizes.push_back(end - i);
        i = end;
    }
    return sizes;
}

std::vector<std::size_t>
SweepRunner::plannedMultiLanes() const
{
    std::vector<std::size_t> lanes;
    std::size_t begin = 0;
    for (const std::size_t size : plannedGroupSizes()) {
        const CollapsePlan plan =
            planCollapse(_points, begin, begin + size);
        lanes.push_back(plan.collapse ? plan.lanePointers.size() : 0);
        begin += size;
    }
    return lanes;
}

std::vector<SweepPointResult>
SweepRunner::run()
{
    // Each fusion group becomes one task; runOrdered() provides the
    // deterministic submission-ordered collection, so a parallel
    // sweep is bit-identical to a serial one.  A group's Simulator
    // owns every member's engines and replays the lead point's
    // stream once for all of them, in one fused pass;
    // ungrouped points are just groups of one.
    const std::vector<std::size_t> sizes = plannedGroupSizes();
    std::vector<std::function<std::vector<SweepPointResult>()>> tasks;
    tasks.reserve(sizes.size());
    std::size_t begin = 0;
    for (const std::size_t size : sizes) {
        const std::size_t end = begin + size;
        tasks.push_back([this, begin, end] {
            const SweepPoint &lead = _points[begin];
            Simulator simulator(lead.sim);
            // Multi-configuration collapse: the group's DiriNB cells
            // (multiPointers hints) become lanes of one shared
            // MultiLimitedEngine — one block-table lookup per
            // reference for the whole pointer-count row.  Everyone
            // else (and every cell when the plan falls back) builds
            // its own engines.
            const CollapsePlan plan =
                planCollapse(_points, begin, end);
            coherence::MultiLimitedEngine *multi = nullptr;
            std::vector<std::size_t> lane(end - begin, kNoLane);
            std::vector<std::vector<std::size_t>> slots(end - begin);
            std::size_t nextSlot = 0;
            std::size_t nextLane = 0;
            for (std::size_t i = begin; i < end; ++i) {
                if (plan.collapse && _points[i].multiPointers != 0) {
                    if (!multi) {
                        auto engine = std::make_unique<
                            coherence::MultiLimitedEngine>(
                            plan.units, plan.lanePointers);
                        multi = engine.get();
                        simulator.addEngine(std::move(engine));
                        ++nextSlot;
                    }
                    lane[i - begin] = nextLane++;
                    continue;
                }
                auto engines = _points[i].engines();
                for (auto &engine : engines) {
                    simulator.addEngine(std::move(engine));
                    slots[i - begin].push_back(nextSlot++);
                }
            }
            std::uint64_t refs;
            if (lead.spans) {
                const auto spans = lead.spans();
                refs = simulator.run(*spans);
            } else if (lead.prepared) {
                refs = simulator.run(*lead.prepared);
            } else {
                const auto source = lead.source();
                refs = simulator.run(*source);
            }
            std::vector<SweepPointResult> out(end - begin);
            for (std::size_t i = begin; i < end; ++i) {
                SweepPointResult &res = out[i - begin];
                res.name = _points[i].name;
                res.refs = refs;
                if (lane[i - begin] != kNoLane) {
                    res.engines.push_back(
                        multi->laneResults(lane[i - begin]));
                    continue;
                }
                res.engines.reserve(slots[i - begin].size());
                for (const std::size_t slot : slots[i - begin])
                    res.engines.push_back(
                        simulator.engine(slot).results());
            }
            return out;
        });
        begin = end;
    }
    std::vector<SweepPointResult> results;
    results.reserve(_points.size());
    for (auto &group :
         runOrdered<std::vector<SweepPointResult>>(_jobs, tasks)) {
        for (SweepPointResult &res : group)
            results.push_back(std::move(res));
    }
    return results;
}

} // namespace dirsim::sim
