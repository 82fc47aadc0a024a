#include "trace/trace.hh"

#include <algorithm>
#include <cstring>

namespace dirsim::trace
{

std::size_t
MemoryTrace::fillFrom(RefSource &source, std::size_t limit)
{
    // One virtual call per batch; a batching source fills each batch
    // in its own tight loop.
    constexpr std::size_t batchRecords = 4096;
    std::vector<TraceRecord> batch(batchRecords);
    std::size_t added = 0;
    for (;;) {
        const std::size_t want =
            limit == 0 ? batchRecords
                       : std::min(batchRecords, limit - added);
        const std::size_t got =
            want == 0 ? 0 : source.nextBatch(batch.data(), want);
        if (got == 0)
            return added;
        _records.insert(_records.end(), batch.begin(),
                        batch.begin() + static_cast<std::ptrdiff_t>(got));
        added += got;
    }
}

bool
MemoryTraceSource::next(TraceRecord &record)
{
    if (_pos >= _trace.size())
        return false;
    record = _trace[_pos++];
    return true;
}

std::size_t
MemoryTraceSource::nextBatch(TraceRecord *out, std::size_t max)
{
    const std::size_t n = std::min(max, _trace.size() - _pos);
    if (n != 0)
        std::memcpy(out, _trace.records().data() + _pos,
                    n * sizeof(TraceRecord));
    _pos += n;
    return n;
}

} // namespace dirsim::trace
