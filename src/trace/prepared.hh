/**
 * @file
 * Decode-once prepared traces: the SoA replay format.
 *
 * The paper replays one interleaved reference stream through every
 * protocol (Section 4.1), yet the raw replay path re-decodes every
 * 16-byte TraceRecord — block shift, unit mapping, instruction strip,
 * flag tests — once per (workload × scheme) sweep point.  A
 * PreparedTrace pays that decode exactly once: records are lowered to
 * structure-of-arrays columns (32-bit dense block id, 8-bit dense unit
 * index, packed type+flags byte — ~6 bytes per reference instead of
 * 16), instruction fetches are stripped into a single bulk count, and
 * the data references become one dense contiguous scan that
 * CoherenceEngine::accessPrepared consumes directly.
 *
 * Block identity is decoded once too.  The block column holds dense
 * first-touch ids in [0, numBlocks()) (trace/block_numbering.hh), so
 * every engine indexes its per-block state by the id without hashing
 * and sizes it exactly from numBlocks(); blockNames() maps each id
 * back to its raw block index for the places the model uses the
 * address itself (mem::BlockNames).
 *
 * Determinism is the contract that makes this safe: sim::Simulator
 * and timing::TimedBusSim stream raw records through the same
 * lowering (mem::BlockMapper, first-touch block numbering, first-seen
 * unit numbering) over the same record order, so replaying the
 * prepared stream is bit-identical to replaying the raw trace — the
 * golden digest suite enforces this for every scheme × workload.
 *
 * Decoding is one pass on the calling thread: trace::StreamLowering
 * (trace/lowering.hh) lowers a RefSource batch by batch, and build()
 * appends each batch to the columns.  sim::TraceRepository drives
 * this for generated workloads and memoizes the result per workload.
 */

#ifndef DIRSIM_TRACE_PREPARED_HH
#define DIRSIM_TRACE_PREPARED_HH

#include <cstdint>
#include <string>
#include <vector>

// Header-only; pulls in no sim library code: SharingDomain and
// unitKey() pick the record field a unit is numbered from.
#include "mem/block.hh"
#include "sim/unit_map.hh"
#include "trace/record.hh"
#include "trace/ref_source.hh"
#include "trace/span.hh"
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
 * instr/data interleaving is part of the timing model.  Data entries
 * carry the trace's dense block ids; instruction entries carry 0,
 * since no engine reads an instruction's block.
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

class StoredTrace;

/**
 * A forward iterator over the spans (trace/span.hh) of one prepared
 * reference stream, plus the stream-level summary replay drivers
 * validate against.  Replay consumes a *sequence* of spans instead
 * of one trace-length slice, so the backing storage only ever needs
 * to keep one window resident: the out-of-core store (trace/store.hh)
 * serves spans straight out of a windowed file mapping.
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
    /** Raw block index of every dense block id of the stream. */
    virtual mem::BlockNames blockNames() const = 0;
    std::uint64_t totalRefs() const { return instrRefs() + dataRefs(); }
    /** Distinct blocks: every block id lies in [0, numBlocks()). */
    std::uint64_t numBlocks() const { return blockNames().size(); }
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
 * An immutable decoded trace.  Build one with build(); afterwards the
 * object is read-only and safe to share across threads.
 */
class PreparedTrace
{
  public:
    /**
     * Decode @p source in one pass on the calling thread (the
     * lowering of trace/lowering.hh).  Every column is exactly sized:
     * byteSize() feeds the repository's LRU budget.
     *
     * @param name The trace's name (and in error messages).
     * @throws std::invalid_argument when the stream does not fit the
     *         prepared widths: more than 256 sharing units (8-bit
     *         unit column), or a block index exceeding 32 bits at the
     *         chosen block size.
     */
    static PreparedTrace build(RefSource &source, std::string name,
                               const PrepareOptions &opts = {});

    /** Decode @p trace: build() over its records. */
    static PreparedTrace build(const MemoryTrace &trace,
                               const PrepareOptions &opts = {});

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

    /** Distinct blocks: every block id lies in [0, numBlocks()). */
    std::uint64_t numBlocks() const { return _names.size(); }
    /** Raw block index of every dense block id. */
    mem::BlockNames blockNames() const { return _names; }

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

    /** Heap bytes held by the decoded columns and the block names
     *  (repository budget). */
    std::size_t byteSize() const;

  private:
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
    std::vector<std::uint32_t> _names;
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
    mem::BlockNames blockNames() const override
    {
        return _trace->blockNames();
    }

    bool nextSpan(PreparedSpan &span) override;
    void rewind() override { _pos = 0; _done = false; }

  private:
    const PreparedTrace *_trace;
    std::size_t _window;
    std::size_t _pos = 0;
    bool _done = false; //!< Empty traces still yield one empty span.
};

} // namespace dirsim::trace

#endif // DIRSIM_TRACE_PREPARED_HH
