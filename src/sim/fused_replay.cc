#include "sim/fused_replay.hh"

#include <chrono>
#include <stdexcept>
#include <string>

namespace dirsim::sim
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Hand @p span to every engine, timing each when asked. */
inline void
dispatchSpan(const trace::PreparedSpan &span,
             const std::vector<coherence::CoherenceEngine *> &engines,
             std::vector<double> *seconds)
{
    if (seconds == nullptr) {
        for (coherence::CoherenceEngine *engine : engines)
            engine->accessPrepared(span);
        return;
    }
    for (std::size_t e = 0; e < engines.size(); ++e) {
        const auto t0 = Clock::now();
        engines[e]->accessPrepared(span);
        (*seconds)[e] +=
            std::chrono::duration<double>(Clock::now() - t0).count();
    }
}

} // namespace

FusedReplayRun
FusedReplay::run(
    trace::PreparedSpanSource &spans,
    const std::vector<coherence::CoherenceEngine *> &engines) const
{
    FusedReplayRun out;
    out.instrRefs = spans.instrRefs();
    std::vector<double> seconds(
        _opts.timeEngines ? engines.size() : 0, 0.0);
    std::vector<double> *timing =
        _opts.timeEngines ? &seconds : nullptr;

    const coherence::BlockNamesBinding names(engines, spans.blockNames());
    for (coherence::CoherenceEngine *engine : engines) {
        engine->reserveBlocks(spans.numBlocks());
        if (out.instrRefs != 0)
            engine->recordInstrs(out.instrRefs);
    }

    spans.rewind();
    trace::PreparedSpan span;
    std::uint64_t data = 0;
    while (spans.nextSpan(span)) {
        if (span.n == 0)
            continue;
        dispatchSpan(span, engines, timing);
        data += span.n;
    }
    if (data != spans.dataRefs())
        throw std::runtime_error(
            "FusedReplay: prepared stream '" + spans.name() +
            "' yielded " + std::to_string(data) +
            " data references but its summary declares " +
            std::to_string(spans.dataRefs()));
    out.dataRefs = data;
    out.engineSeconds = std::move(seconds);
    return out;
}

} // namespace dirsim::sim
