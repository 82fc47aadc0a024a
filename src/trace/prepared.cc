#include "trace/prepared.hh"

#include <algorithm>

#include "trace/lowering.hh"

namespace dirsim::trace
{

namespace
{

template <typename T>
void
append(util::AlignedVector<T> &column, const T *data, std::size_t n)
{
    column.insert(column.end(), data, data + n);
}

} // namespace

PreparedTrace
PreparedTrace::build(RefSource &source, std::string name,
                     const PrepareOptions &opts)
{
    PreparedTrace out;
    out._name = std::move(name);
    out._opts = opts;
    // Release the lowering (its batch arrays and the numbering's slot
    // table) before the trims below, so their exact-size copies can
    // reuse that memory instead of growing the heap.
    {
        StreamLowering lower(out._name, opts);
        while (lower.next(source)) {
            const PreparedSpan data = lower.data();
            append(out._block, data.block, data.n);
            append(out._unit, data.unit, data.n);
            append(out._typeFlags, data.typeFlags, data.n);
            if (opts.timedStreams)
                lower.appendToCpuStreams(out._cpuStreams);
        }
        out._instrRefs = lower.instrRefs();
        out._nUnits = lower.numUnits();
        out._nCpus = lower.numCpus();
        out._names = lower.takeNames();
    }
    // Exact capacity: byteSize() feeds the repository's LRU budget.
    out._names.shrink_to_fit();
    out._block.shrink_to_fit();
    out._unit.shrink_to_fit();
    out._typeFlags.shrink_to_fit();
    for (PreparedCpuStream &s : out._cpuStreams) {
        s.block.shrink_to_fit();
        s.unit.shrink_to_fit();
        s.typeFlags.shrink_to_fit();
    }
    return out;
}

PreparedTrace
PreparedTrace::build(const MemoryTrace &trace,
                     const PrepareOptions &opts)
{
    MemoryTraceSource source(trace);
    return build(source, trace.meta().name, opts);
}

bool
PreparedTraceSpans::nextSpan(PreparedSpan &span)
{
    const std::size_t total = _trace->dataRefs();
    if (_done || (_pos >= total && total != 0))
        return false;
    const std::size_t n =
        _window == 0 ? total
                     : std::min(_window, total - _pos);
    span.block = _trace->blockData() + _pos;
    span.unit = _trace->unitData() + _pos;
    span.typeFlags = _trace->typeFlagsData() + _pos;
    span.n = n;
    _pos += n;
    // An empty trace yields exactly one empty span, then ends.
    _done = total == 0 || _pos >= total;
    return true;
}

std::size_t
PreparedTrace::byteSize() const
{
    std::size_t bytes = sizeof(*this);
    bytes += _block.capacity() * sizeof(std::uint32_t);
    bytes += _unit.capacity() + _typeFlags.capacity();
    bytes += _names.capacity() * sizeof(std::uint32_t);
    for (const PreparedCpuStream &s : _cpuStreams) {
        bytes += s.block.capacity() * sizeof(std::uint32_t);
        bytes += s.unit.capacity() + s.typeFlags.capacity();
    }
    return bytes;
}

} // namespace dirsim::trace
