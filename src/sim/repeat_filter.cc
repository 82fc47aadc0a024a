#include "sim/repeat_filter.hh"

#include <algorithm>

#include "trace/record.hh"

namespace dirsim::sim
{

RepeatReadFilter::RepeatReadFilter(
    const std::vector<coherence::CoherenceEngine *> &engines)
    : _engines(engines)
{
    for (std::size_t e = 0; e < engines.size(); ++e)
        (engines[e]->repeatReadsHit() ? _filtered : _every).push_back(e);
}

void
RepeatReadFilter::reserveBlocks(std::uint64_t blocks)
{
    if (!_filtered.empty() && blocks > _last.size())
        _last.resize(blocks, kNobody);
}

std::size_t
RepeatReadFilter::compact(const trace::PreparedSpan &in, std::size_t n)
{
    std::uint16_t *last = _last.data();
    std::size_t blocks = _last.size();
    std::uint32_t *block = _block.data();
    std::uint8_t *unit = _unit.data();
    std::uint8_t *typeFlags = _typeFlags.data();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t b = in.block[i];
        if (b >= blocks) [[unlikely]] {
            // Cheaper than a max pass over the strip: the branch is
            // never taken once the table covers the stream.
            reserveBlocks(std::uint64_t(b) + 1);
            last = _last.data();
            blocks = _last.size();
        }
        const std::uint8_t u = in.unit[i];
        const std::uint8_t tf = in.typeFlags[i];
        const bool repeat =
            (trace::packedRefType(tf) == trace::RefType::Read) &
            (last[b] == u);
        last[b] = u;
        block[kept] = b;
        unit[kept] = u;
        typeFlags[kept] = tf;
        kept += !repeat;
    }
    return kept;
}

void
RepeatReadFilter::dispatch(const trace::PreparedSpan &span)
{
    for (const std::size_t e : _every)
        _engines[e]->accessPrepared(span);
    if (_filtered.empty() || span.n == 0)
        return;

    const std::size_t capacity = std::min(kStripRefs, span.n);
    if (_block.size() < capacity) {
        _block.resize(capacity);
        _unit.resize(capacity);
        _typeFlags.resize(capacity);
    }
    for (std::size_t base = 0; base < span.n; base += kStripRefs) {
        const std::size_t n = std::min(kStripRefs, span.n - base);
        const trace::PreparedSpan in{span.block + base, span.unit + base,
                                     span.typeFlags + base, n};
        const std::size_t kept = compact(in, n);
        const trace::PreparedSpan strip{_block.data(), _unit.data(),
                                        _typeFlags.data(), kept};
        for (const std::size_t e : _filtered) {
            _engines[e]->recordRepeatReads(n - kept);
            if (kept != 0)
                _engines[e]->accessPrepared(strip);
        }
    }
}

} // namespace dirsim::sim
