#include "sim/fused_replay.hh"

#include <stdexcept>
#include <string>

#include "sim/repeat_filter.hh"

namespace dirsim::sim
{

FusedReplayRun
FusedReplay::run(
    trace::PreparedSpanSource &spans,
    const std::vector<coherence::CoherenceEngine *> &engines) const
{
    FusedReplayRun out;
    out.instrRefs = spans.instrRefs();
    DispatchSeconds seconds;
    seconds.engines.assign(_opts.timeEngines ? engines.size() : 0, 0.0);
    DispatchSeconds *timing = _opts.timeEngines ? &seconds : nullptr;

    const coherence::BlockNamesBinding names(engines, spans.blockNames());
    RepeatReadFilter filter(engines);
    filter.reserveBlocks(spans.numBlocks());
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
        filter.dispatch(span, timing);
        data += span.n;
    }
    if (data != spans.dataRefs())
        throw std::runtime_error(
            "FusedReplay: prepared stream '" + spans.name() +
            "' yielded " + std::to_string(data) +
            " data references but its summary declares " +
            std::to_string(spans.dataRefs()));
    out.dataRefs = data;
    out.engineSeconds = std::move(seconds.engines);
    out.filterSeconds = seconds.filter;
    return out;
}

} // namespace dirsim::sim
