/**
 * @file
 * Per-CPU request port for the timed bus.
 *
 * A RequestPort reads one CPU's slice of the reference stream, holds
 * the in-flight RefCharge while the CPU is stalled, and keeps the
 * stall/finish accounting that becomes the TimedRun's per-CPU
 * statistics.  The port is a passive state machine — TimedBusSim
 * drives it from the event loop:
 *
 *   Running --(gap of k fetches)--> Running, k cycles later
 *   Running --(data ref needs the bus)--> Stalled(issue txn 1)
 *   Stalled --(txn complete, more txns)--> Stalled(issue next)
 *   Stalled --(last txn complete)--> Running
 *
 * The port hands out data references only.  Each carries its gap:
 * the instruction fetches just before it, which in an infinite cache
 * change nothing but the Instr count and take one cycle each, so the
 * CPU retires them by sleeping (retireFetches()) and the stream's
 * trailing fetches before it finishes.  The issuing processor does
 * not proceed past a chargeable reference until every one of its bus
 * tenures has been granted and completed — the blocking-processor
 * model both service-discipline papers assume.
 */

#ifndef DIRSIM_TIMING_PORT_HH
#define DIRSIM_TIMING_PORT_HH

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "mem/block.hh"
#include "timing/transactions.hh"
#include "trace/prepared.hh"
#include "trace/record.hh"

namespace dirsim::timing
{

/** Per-CPU timing statistics of one TimedRun. */
struct CpuTimedStats
{
    std::uint64_t refs = 0;         //!< References executed.
    std::uint64_t transactions = 0; //!< Bus tenures issued.
    /** Cycles from issuing a chargeable reference to resuming after
     *  its last transaction (queueing + service + off-bus waits). */
    std::uint64_t stallCycles = 0;
    std::uint64_t finishCycle = 0;  //!< Cycle the last reference retired.

    /** Fraction of this CPU's active time spent stalled on the bus. */
    double
    stallFraction() const
    {
        return finishCycle == 0
                   ? 0.0
                   : static_cast<double>(stallCycles) /
                         static_cast<double>(finishCycle);
    }

    bool operator==(const CpuTimedStats &other) const = default;
};

/** One data reference of a port's stream (never an Instr). */
struct PortRef
{
    unsigned unit;       //!< Engine sharing-domain index.
    trace::RefType type;
    mem::BlockId block;
};

/**
 * Most instruction fetches one wake-up retires.  A longer gap takes
 * several wake-ups, so no CPU sleeps more than this (plus one
 * reference or memory wait) ahead: that bounds the timed bus's ring
 * of per-cycle wake-up slots, which 62 keeps at 64 slots on the
 * non-pipelined bus and 128 on the pipelined one.
 */
inline constexpr unsigned kMaxFetchSkip = 62;

/**
 * One CPU's interface to the timed bus (see file header).
 *
 * The port reads its stream one window at a time from a
 * trace::CpuRefCursor — the whole stream for an in-memory
 * PreparedCpuStream, one chunk for a trace::StoredTrace — and
 * compacts each window, kChunk references at a time, into a buffer
 * of data references tagged with their gaps.  The compaction writes
 * every reference and advances by whether it is data, so it never
 * branches on the reference type, and the cursor's virtual call is
 * paid per window, not per reference.  The cursor must outlive the
 * port.
 */
class RequestPort
{
  public:
    RequestPort(unsigned cpu, trace::CpuRefCursor &cursor)
        : _cpu(cpu), _cursor(&cursor)
    {
        refill();
    }

    unsigned cpu() const { return _cpu; }

    /**
     * Retire up to kMaxFetchSkip of the instruction fetches due
     * before the next data reference (or the stream's end), one
     * cycle each.
     * @return The fetches retired: the cycles the CPU sleeps.  0 when
     *         the next data reference, or the end, is due now.
     */
    unsigned
    retireFetches()
    {
        const auto k = static_cast<unsigned>(
            std::min<std::uint64_t>(_gap, kMaxFetchSkip));
        _gap -= k;
        _fetches += k;
        _stats.refs += k;
        return k;
    }

    /** A data reference remains (its gap may still be pending). */
    bool hasMoreRefs() const { return _head < _count; }

    /** Consume the next data reference (hasMoreRefs() must hold and
     *  retireFetches() have returned 0).  Returned by value: taking
     *  the buffer's last entry refills the buffer. */
    PortRef
    takeRef()
    {
        assert(_gap == 0 && _head < _count);
        const Entry &e = _buf[_head];
        const PortRef ref{e.unit, static_cast<trace::RefType>(e.type),
                          e.block};
        ++_stats.refs;
        if (++_head == _count)
            refill();
        else
            _gap = _buf[_head].gap;
        return ref;
    }

    /**
     * Begin a stall: the reference consumed at cycle @p now produced
     * @p charge (must be non-empty).  Transactions are then drained
     * with nextTxn() / hasPendingTxn().
     */
    void
    beginStall(const RefCharge &charge, std::uint64_t now)
    {
        assert(!charge.empty());
        assert(!hasPendingTxn() && "previous charge not drained");
        _charge = charge;
        _txnNext = 0;
        _stallStart = now;
    }

    /** A transaction is still waiting to be issued. */
    bool hasPendingTxn() const { return _txnNext < _charge.count; }

    /** Issue the next transaction of the in-flight charge. */
    const TxnCharge &
    nextTxn()
    {
        assert(hasPendingTxn());
        ++_stats.transactions;
        return _charge.txns[_txnNext++];
    }

    /** End the stall at cycle @p now (all transactions completed). */
    void
    endStall(std::uint64_t now)
    {
        assert(!hasPendingTxn());
        _stats.stallCycles += now - _stallStart;
    }

    /** Record that this CPU retired its whole stream at @p now. */
    void finish(std::uint64_t now) { _stats.finishCycle = now; }

    const CpuTimedStats &stats() const { return _stats; }
    /** Instruction fetches retired so far. */
    std::uint64_t fetches() const { return _fetches; }

  private:
    /** A buffered data reference and the fetches just before it
     *  (since the previous data reference of the same compaction). */
    struct Entry
    {
        std::uint32_t block;
        std::uint32_t gap;
        std::uint8_t unit;
        std::uint8_t type;
    };

    /** References one compaction reads: enough to amortise the
     *  refill, few enough that 16 CPUs' buffers (12 KiB each) stay
     *  in L2. */
    static constexpr std::size_t kChunk = 1024;

    /**
     * Compact the stream's next data references into the buffer and
     * set the gap before the first: the fetches after the previous
     * buffer's last entry plus those before the first new one.  At
     * the stream's end the buffer stays empty and the gap holds the
     * trailing fetches.
     */
    void
    refill()
    {
        _head = _count = 0;
        std::uint64_t gap = std::exchange(_tail, 0);
        while (_next < _window.n || nextWindow()) {
            const std::size_t n = std::min(_window.n - _next, kChunk);
            const std::uint32_t *block = _window.block + _next;
            const std::uint8_t *unit = _window.unit + _next;
            const std::uint8_t *typeFlags = _window.typeFlags + _next;
            _next += n;
            // Each entry is written at the cursor, which moves on
            // only past a data reference: a fetch's entry is
            // overwritten by the next reference.  The cursor stays
            // at or below the input index, so it never passes kChunk.
            std::size_t w = 0;
            std::uint32_t run = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const auto type = static_cast<std::uint8_t>(
                    typeFlags[i] & trace::packedTypeMask);
                const std::uint32_t isData =
                    type != static_cast<std::uint8_t>(trace::RefType::Instr);
                _buf[w] = Entry{block[i], run, unit[i], type};
                w += isData;
                run = (run + 1) & (isData - 1); // 0 after a data ref.
            }
            if (w != 0) {
                _count = w;
                _tail = run;
                _gap = gap + _buf[0].gap;
                return;
            }
            gap += run;
        }
        _gap = gap;
    }

    /** Pull the next window; false at the stream's end. */
    bool
    nextWindow()
    {
        _next = 0;
        if (_cursor->nextWindow(_window))
            return true;
        _window.n = 0;
        return false;
    }

    unsigned _cpu;
    trace::CpuRefCursor *_cursor;
    trace::PreparedSpan _window;
    std::size_t _next = 0;

    std::array<Entry, kChunk> _buf{};
    std::size_t _head = 0;
    std::size_t _count = 0;
    /** Fetches still due before _buf[_head] (or the stream's end). */
    std::uint64_t _gap = 0;
    /** Fetches after the buffer's last entry, owed to the next. */
    std::uint64_t _tail = 0;
    std::uint64_t _fetches = 0;

    RefCharge _charge;
    unsigned _txnNext = 0;
    std::uint64_t _stallStart = 0;

    CpuTimedStats _stats;
};

} // namespace dirsim::timing

#endif // DIRSIM_TIMING_PORT_HH
