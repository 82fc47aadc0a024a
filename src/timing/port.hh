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
 *   Running --(ref needs the bus)--> Stalled(issue txn 1)
 *   Stalled --(txn complete, more txns)--> Stalled(issue next)
 *   Stalled --(last txn complete)--> Running
 *
 * The issuing processor does not proceed past a chargeable reference
 * until every one of its bus tenures has been granted and completed —
 * the blocking-processor model both service-discipline papers assume.
 */

#ifndef DIRSIM_TIMING_PORT_HH
#define DIRSIM_TIMING_PORT_HH

#include <cassert>
#include <cstdint>

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

/** One pre-classified reference of a port's stream. */
struct PortRef
{
    unsigned unit;       //!< Engine sharing-domain index.
    trace::RefType type;
    mem::BlockId block;
};

/**
 * One CPU's interface to the timed bus (see file header).
 *
 * The port reads its stream one window at a time from a
 * trace::CpuRefCursor — the whole stream for an in-memory
 * PreparedCpuStream, one chunk for a trace::StoredTrace — and walks
 * each window with plain pointer reads, so the cursor's virtual call
 * is paid per window, not per reference.  The cursor must outlive
 * the port.
 */
class RequestPort
{
  public:
    RequestPort(unsigned cpu, trace::CpuRefCursor &cursor)
        : _cpu(cpu), _cursor(&cursor)
    {
    }

    unsigned cpu() const { return _cpu; }

    /** References remain to execute (may pull the next window). */
    bool
    hasMoreRefs()
    {
        return _next < _window.n || nextWindow();
    }

    /** Consume the next reference (hasMoreRefs() must hold). */
    PortRef
    takeRef()
    {
        assert(_next < _window.n);
        ++_stats.refs;
        const std::size_t i = _next++;
        return PortRef{_window.unit[i],
                       trace::packedRefType(_window.typeFlags[i]),
                       _window.block[i]};
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

  private:
    /** Pull the next non-empty window; false at the stream's end. */
    bool
    nextWindow()
    {
        while (_cursor->nextWindow(_window)) {
            _next = 0;
            if (_window.n != 0)
                return true;
        }
        return false;
    }

    unsigned _cpu;
    trace::CpuRefCursor *_cursor;
    trace::PreparedSpan _window;
    std::size_t _next = 0;

    RefCharge _charge;
    unsigned _txnNext = 0;
    std::uint64_t _stallStart = 0;

    CpuTimedStats _stats;
};

} // namespace dirsim::timing

#endif // DIRSIM_TIMING_PORT_HH
