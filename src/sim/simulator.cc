#include "sim/simulator.hh"

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace dirsim::sim
{

Simulator::Simulator(const SimConfig &cfg) : _cfg(cfg) {}

coherence::CoherenceEngine &
Simulator::addEngine(std::unique_ptr<coherence::CoherenceEngine> engine)
{
    _engines.push_back(std::move(engine));
    return *_engines.back();
}

std::uint64_t
Simulator::run(trace::RefSource &source)
{
    // The capacity shared by every engine.  The lowering numbers a
    // whole batch before handing any of it out, so a batch that takes
    // the units past it is rejected before any engine sees it, and
    // resetting the engines undoes the earlier batches.
    const coherence::CoherenceEngine *smallest = smallestEngine();
    const unsigned capacity = smallest != nullptr
                                  ? smallest->numUnits()
                                  : std::numeric_limits<unsigned>::max();
    const std::vector<coherence::CoherenceEngine *> engines =
        enginePointers();
    if (!_lowering) {
        trace::PrepareOptions opts;
        opts.blockBytes = _cfg.blockBytes;
        opts.domain = _cfg.domain;
        _lowering.emplace("", opts);
    }
    trace::StreamLowering &lowering = *_lowering;
    // A failed run leaves no partially-accumulated state behind.
    const auto fail = [this](const std::string &what) {
        for (auto &engine : _engines)
            engine->reset();
        _lowering.reset();
        throw std::runtime_error("Simulator: " + what);
    };

    std::uint64_t processed = 0;
    for (;;) {
        const std::uint64_t instrBefore = lowering.instrRefs();
        try {
            if (!lowering.next(source))
                break;
        } catch (const std::invalid_argument &err) {
            // Past 256 units (more than any engine holds) or a block
            // index past 32 bits.
            fail(err.what());
        }
        if (lowering.numUnits() > capacity)
            fail("trace uses more sharing units than engine '" +
                 smallest->results().name + "' supports");
        const std::uint64_t nInstr = lowering.instrRefs() - instrBefore;
        // The names table grows (and may move) as blocks are
        // numbered, so the engines are bound afresh for every batch.
        const coherence::BlockNamesBinding names(engines,
                                                 lowering.names());
        const trace::PreparedSpan data = lowering.data();
        for (coherence::CoherenceEngine *engine : engines) {
            if (nInstr != 0)
                engine->recordInstrs(nInstr);
            engine->accessPrepared(data);
        }
        processed += nInstr + data.n;
    }
    return processed;
}

std::uint64_t
Simulator::run(const trace::PreparedTrace &prepared)
{
    trace::PreparedTraceSpans spans(prepared);
    return run(spans);
}

std::uint64_t
Simulator::run(trace::PreparedSpanSource &spans)
{
    const trace::PrepareOptions &opts = spans.options();
    if (opts.blockBytes != _cfg.blockBytes ||
        opts.domain != _cfg.domain)
        throw std::invalid_argument(
            "Simulator: prepared stream '" + spans.name() +
            "' was decoded for a different block size or sharing "
            "domain than this simulator");

    // Unlike the streaming path, the unit count is known up front, so
    // the capacity check happens before any engine sees anything — a
    // failed run mutates nothing.
    const coherence::CoherenceEngine *smallest = smallestEngine();
    if (smallest != nullptr && spans.numUnits() > smallest->numUnits())
        throw std::runtime_error(
            "Simulator: trace uses more sharing units than engine '" +
            smallest->results().name + "' supports");

    if (spans.numUnits() > _preparedUnits)
        _preparedUnits = spans.numUnits();

    return FusedReplay().run(spans, enginePointers()).totalRefs();
}

std::vector<coherence::CoherenceEngine *>
Simulator::enginePointers() const
{
    std::vector<coherence::CoherenceEngine *> engines;
    engines.reserve(_engines.size());
    for (const auto &engine : _engines)
        engines.push_back(engine.get());
    return engines;
}

const coherence::CoherenceEngine *
Simulator::smallestEngine() const
{
    const coherence::CoherenceEngine *smallest = nullptr;
    for (const auto &engine : _engines)
        if (smallest == nullptr ||
            engine->numUnits() < smallest->numUnits())
            smallest = engine.get();
    return smallest;
}

} // namespace dirsim::sim
