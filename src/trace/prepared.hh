/**
 * @file
 * Decode-once prepared traces: the SoA replay format.
 *
 * The paper replays one interleaved reference stream through every
 * protocol (Section 4.1), yet the raw replay path re-decodes every
 * 16-byte TraceRecord — block shift, unit mapping, instruction strip,
 * flag tests — once per (workload × scheme) sweep point.  A
 * PreparedTrace pays that decode exactly once: records are lowered to
 * structure-of-arrays columns (32-bit block index, 8-bit dense unit
 * index, packed type+flags byte — ~6 bytes per reference instead of
 * 16), instruction fetches are stripped into a single bulk count, and
 * the data references become one dense contiguous scan that
 * CoherenceEngine::accessPrepared consumes directly.
 *
 * Determinism is the contract that makes this safe: the decode uses
 * the same mem::BlockMapper and sim::UnitMapper first-seen numbering
 * as sim::Simulator and timing::TimedBusSim, over the same
 * (optionally lock-test-filtered) record order, so replaying the
 * prepared stream is bit-identical to replaying the raw trace — the
 * golden digest suite enforces this for every scheme × workload.
 *
 * Decoding parallelises: PreparedTraceBuilder plans the output layout
 * in one serial scan (freezing the unit numbering and per-chunk write
 * offsets), after which decodeChunk() calls write disjoint ranges and
 * may run on any threads in any order — the merge is deterministic by
 * construction.  sim::TraceRepository drives this and memoizes the
 * result per workload.
 */

#ifndef DIRSIM_TRACE_PREPARED_HH
#define DIRSIM_TRACE_PREPARED_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

// Header-only; pulls in no sim library code.  Sharing SharingDomain
// and unitKey() is the point: prepared unit numbering must match
// what the raw replay path's UnitMapper would compute.
#include "sim/unit_map.hh"
#include "trace/record.hh"
#include "trace/trace.hh"
#include "util/simd.hh"

namespace dirsim::trace
{

/** Decode parameters a PreparedTrace is specialised for. */
struct PrepareOptions
{
    unsigned blockBytes = 16; //!< The paper's 4-word block.
    sim::SharingDomain domain = sim::SharingDomain::Process;
    /** Drop spin-lock test reads (Section 5.2's filtered rerun). */
    bool dropLockTests = false;
    /**
     * Also build per-CPU streams (instruction fetches included) for
     * timed-bus replay.  Off by default: the timed columns roughly
     * double the footprint and only timing::TimedBusSim reads them.
     */
    bool timedStreams = false;

    bool operator==(const PrepareOptions &) const = default;
};

/**
 * One CPU's slice of the stream in SoA form, for timed replay.
 * Unlike the interleaved data columns, these keep instruction
 * fetches: the timed bus charges CPU cycles per reference, so the
 * instr/data interleaving is part of the timing model.
 */
struct PreparedCpuStream
{
    util::AlignedVector<std::uint32_t> block;
    util::AlignedVector<std::uint8_t> unit;
    util::AlignedVector<std::uint8_t> typeFlags;

    std::size_t size() const { return block.size(); }
};

// The SoA columns are the prepared format's wire layout; replay does
// raw pointer arithmetic over them.
static_assert(sizeof(std::uint32_t) == 4 && sizeof(std::uint8_t) == 1,
              "prepared SoA element widths are load-bearing");

// util/simd.hh cannot include trace headers (layering), so it hard-
// codes the packed byte's type field; pin the two constants together.
static_assert(packedTypeMask == util::kTypeLaneMask,
              "util::kTypeLaneMask must match the packed type field");

class PreparedTraceBuilder;
class StoredTrace;

/**
 * One contiguous window of prepared reference columns: parallel
 * arrays of block index, dense unit index and packed type+flags byte.
 * The chunk-iterator replay path (sim::Simulator over a
 * PreparedSpanSource) consumes a *sequence* of these instead of one
 * trace-length slice, so the backing storage only ever needs to keep
 * one window resident — the out-of-core store (trace/store.hh) serves
 * spans straight out of a windowed file mapping.  A CpuRefCursor
 * hands out windows of one CPU's timed stream in the same shape
 * (instruction fetches included there).
 */
struct PreparedSpan
{
    const std::uint32_t *block = nullptr;
    const std::uint8_t *unit = nullptr;
    const std::uint8_t *typeFlags = nullptr;
    std::size_t n = 0;
};

/**
 * A forward iterator over the spans of one prepared reference stream,
 * plus the stream-level summary replay drivers validate against.
 *
 * Contract: the concatenation of the spans nextSpan() yields, in
 * order, is exactly the stream's data-reference columns; a span's
 * pointers stay valid until the next nextSpan()/rewind() call (the
 * out-of-core cursor recycles its window).  Engines are stateful
 * across spans, so replaying a span sequence is bit-identical to
 * replaying one contiguous slice — span boundaries are invisible to
 * the coherence model.
 */
class PreparedSpanSource
{
  public:
    virtual ~PreparedSpanSource() = default;

    /** @name Stream summary (mirrors PreparedTrace's accessors). */
    /** @{ */
    virtual const std::string &name() const = 0;
    virtual const PrepareOptions &options() const = 0;
    virtual std::uint64_t instrRefs() const = 0;
    virtual std::uint64_t dataRefs() const = 0;
    virtual unsigned numUnits() const = 0;
    virtual unsigned numCpus() const = 0;
    std::uint64_t totalRefs() const { return instrRefs() + dataRefs(); }
    /** @} */

    /**
     * Produce the next span.
     * @retval true @p span was filled (n may legitimately be 0 only
     *         for an empty stream's single span — sources never yield
     *         empty spans between non-empty ones).
     * @retval false End of stream; @p span is untouched.
     */
    virtual bool nextSpan(PreparedSpan &span) = 0;

    /** Restart the span sequence from the beginning. */
    virtual void rewind() = 0;
};

/**
 * Sequential reader over one CPU's timed stream (instruction fetches
 * included), the per-CPU analogue of PreparedSpanSource: each call
 * hands out the next window of SoA columns.  The timed bus keeps one
 * per port and walks each window with pointer reads.
 */
class CpuRefCursor
{
  public:
    virtual ~CpuRefCursor() = default;

    /**
     * Produce the next window; its pointers stay valid until the next
     * call.
     * @retval false End of stream (and on every later call); @p window
     *         is untouched.
     */
    virtual bool nextWindow(PreparedSpan &window) = 0;
};

/** CpuRefCursor over an in-memory PreparedCpuStream: one window
 *  holding the whole stream. */
class PreparedCpuStreamCursor final : public CpuRefCursor
{
  public:
    /** @param stream Stream to walk; must outlive the cursor. */
    explicit PreparedCpuStreamCursor(const PreparedCpuStream &stream)
        : _stream(&stream)
    {
    }

    bool
    nextWindow(PreparedSpan &window) override
    {
        if (_done)
            return false;
        _done = true;
        window = PreparedSpan{_stream->block.data(),
                              _stream->unit.data(),
                              _stream->typeFlags.data(),
                              _stream->size()};
        return true;
    }

  private:
    const PreparedCpuStream *_stream;
    bool _done = false;
};

/**
 * An immutable decoded trace.  Build one with build() (serial) or via
 * PreparedTraceBuilder (parallel chunk decode); afterwards the object
 * is read-only and safe to share across threads.
 */
class PreparedTrace
{
  public:
    /** Decode @p trace in one serial pass. */
    static PreparedTrace build(const MemoryTrace &trace,
                               const PrepareOptions &opts = {});

    /**
     * Assemble a trace from already-finished columns — the exit of
     * the direct generate→prepare pipeline (gen/direct_prepare.cc),
     * which fills the columns without ever materialising a
     * MemoryTrace.
     *
     * Caller contract (the class invariants build() establishes): the
     * three columns are equal-length and ordered exactly as the
     * stream's kept data references; @p unit holds first-seen dense
     * indices below @p nUnits; @p nUnits and @p nCpus are at most 256.
     * No per-CPU timed streams (use the builder for those).
     */
    static PreparedTrace
    fromColumns(std::string name, const PrepareOptions &opts,
                std::uint64_t instrRefs, unsigned nUnits,
                unsigned nCpus,
                util::AlignedVector<std::uint32_t> block,
                util::AlignedVector<std::uint8_t> unit,
                util::AlignedVector<std::uint8_t> typeFlags);

    const std::string &name() const { return _name; }
    const PrepareOptions &options() const { return _opts; }

    /** Kept references (instruction + data) after filtering. */
    std::uint64_t totalRefs() const { return _instrRefs + dataRefs(); }
    /** Instruction fetches, reported in bulk to each engine. */
    std::uint64_t instrRefs() const { return _instrRefs; }
    /** Data references — the length of the SoA columns. */
    std::size_t dataRefs() const { return _block.size(); }

    /** Distinct sharing units (dense indices [0, numUnits)). */
    unsigned numUnits() const { return _nUnits; }
    /** Distinct CPUs (dense first-seen indices [0, numCpus)). */
    unsigned numCpus() const { return _nCpus; }

    /** @name Interleaved data-reference columns (global order). */
    /** @{ */
    const std::uint32_t *blockData() const { return _block.data(); }
    const std::uint8_t *unitData() const { return _unit.data(); }
    const std::uint8_t *typeFlagsData() const
    {
        return _typeFlags.data();
    }
    /** @} */

    /** Per-CPU streams were decoded (PrepareOptions::timedStreams). */
    bool hasTimedStreams() const { return !_cpuStreams.empty(); }
    /** Per-CPU streams, indexed by dense first-seen CPU order. */
    const std::vector<PreparedCpuStream> &cpuStreams() const
    {
        return _cpuStreams;
    }

    /** Heap bytes held by the decoded columns (repository budget). */
    std::size_t byteSize() const;

  private:
    friend class PreparedTraceBuilder;
    friend class StoredTrace; //!< Rebuilds a trace from disk columns.
    PreparedTrace() = default;

    std::string _name;
    PrepareOptions _opts;
    std::uint64_t _instrRefs = 0;
    unsigned _nUnits = 0;
    unsigned _nCpus = 0;
    util::AlignedVector<std::uint32_t> _block;
    util::AlignedVector<std::uint8_t> _unit;
    util::AlignedVector<std::uint8_t> _typeFlags;
    std::vector<PreparedCpuStream> _cpuStreams;
};

/**
 * PreparedSpanSource view of an in-memory PreparedTrace.
 *
 * With windowRefs == 0 the whole column set is one span (the shape
 * Simulator::run(const PreparedTrace&) consumes); a non-zero window
 * slices the same columns into consecutive spans of at most that many
 * references.  The windowed form exists so tests can prove span
 * boundaries are invisible to the engines without any file I/O, and
 * so huge in-memory traces can exercise the exact code path the
 * out-of-core store uses.
 */
class PreparedTraceSpans final : public PreparedSpanSource
{
  public:
    /** @param trace Trace to view; must outlive the span source. */
    explicit PreparedTraceSpans(const PreparedTrace &trace,
                                std::size_t windowRefs = 0)
        : _trace(&trace), _window(windowRefs)
    {
    }

    const std::string &name() const override { return _trace->name(); }
    const PrepareOptions &options() const override
    {
        return _trace->options();
    }
    std::uint64_t instrRefs() const override
    {
        return _trace->instrRefs();
    }
    std::uint64_t dataRefs() const override
    {
        return _trace->dataRefs();
    }
    unsigned numUnits() const override { return _trace->numUnits(); }
    unsigned numCpus() const override { return _trace->numCpus(); }

    bool nextSpan(PreparedSpan &span) override;
    void rewind() override { _pos = 0; _done = false; }

  private:
    const PreparedTrace *_trace;
    std::size_t _window;
    std::size_t _pos = 0;
    bool _done = false; //!< Empty traces still yield one empty span.
};

/**
 * Two-phase decoder: a serial planning scan in the constructor
 * (freezes unit numbering, validates widths, computes every chunk's
 * write offsets), then decodeChunk() for each chunk in [0,
 * numChunks()) — concurrently if desired, each chunk writes a
 * disjoint range — then finish() to take the result.
 *
 * @throws std::invalid_argument from the constructor when the trace
 *         does not fit the prepared widths: more than 256 sharing
 *         units or CPUs (8-bit unit column), or a block index
 *         exceeding 32 bits at the chosen block size.
 */
class PreparedTraceBuilder
{
  public:
    PreparedTraceBuilder(const MemoryTrace &trace,
                         const PrepareOptions &opts = {});

    std::size_t numChunks() const { return _chunks.size(); }

    /** Decode chunk @p chunk; distinct chunks may run concurrently. */
    void decodeChunk(std::size_t chunk);

    /** Take the decoded trace; every chunk must have been decoded. */
    PreparedTrace finish();

  private:
    struct ChunkPlan
    {
        std::size_t rawBegin = 0; //!< First raw record of the chunk.
        std::size_t rawEnd = 0;   //!< One past the last raw record.
        std::size_t dataOffset = 0; //!< Write offset into the columns.
        /** Per-CPU write offsets (timedStreams only). */
        std::vector<std::size_t> cpuOffset;
    };

    const MemoryTrace &_trace;
    PreparedTrace _out;
    /** unitKey(rec, domain) -> dense unit index; frozen after plan. */
    std::vector<std::int32_t> _unitOf;
    /** rec.cpu -> dense CPU index; frozen after plan. */
    std::vector<std::int32_t> _cpuOf;
    std::vector<ChunkPlan> _chunks;
    std::atomic<std::size_t> _decoded{0};
    bool _finished = false;
};

} // namespace dirsim::trace

#endif // DIRSIM_TRACE_PREPARED_HH
