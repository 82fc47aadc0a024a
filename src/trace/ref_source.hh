/**
 * @file
 * Abstract source of trace records.
 *
 * The simulator, trace writers and characterisers all consume a
 * RefSource, so synthetic workloads can be simulated directly without
 * ever materialising a multi-million-record trace, while recorded
 * traces stream from disk through the same interface.
 */

#ifndef DIRSIM_TRACE_REF_SOURCE_HH
#define DIRSIM_TRACE_REF_SOURCE_HH

#include <cstddef>
#include <cstdint>

#include "trace/record.hh"

namespace dirsim::trace
{

/** A forward-only stream of TraceRecords. */
class RefSource
{
  public:
    virtual ~RefSource() = default;

    /**
     * Produce the next record.
     *
     * @param record Output; untouched when the stream is exhausted.
     * @retval true A record was produced.
     * @retval false End of stream.
     */
    virtual bool next(TraceRecord &record) = 0;

    /**
     * Produce up to @p max records into @p out.
     *
     * The default implementation loops next(); materialised sources
     * override it to copy contiguous runs, so batch consumers (the
     * simulation drivers) pay one virtual call per batch instead of
     * one per record.
     *
     * @return Number of records produced; 0 means end of stream.
     */
    virtual std::size_t
    nextBatch(TraceRecord *out, std::size_t max)
    {
        std::size_t n = 0;
        while (n < max && next(out[n]))
            ++n;
        return n;
    }

    /** Rewind to the beginning so the stream can be replayed. */
    virtual void rewind() = 0;
};

} // namespace dirsim::trace

#endif // DIRSIM_TRACE_REF_SOURCE_HH
