#include "timing/timed_bus.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "sim/unit_map.hh"
#include "timing/transactions.hh"
#include "trace/block_numbering.hh"
#include "trace/store.hh"

namespace dirsim::timing
{

namespace
{

/**
 * The CPU wake-ups of the next few cycles: a ring of per-cycle CPU
 * bitsets, one bit per CPU (several words: a trace may carry up to
 * 256 CPUs).  Each CPU has at most one pending wake-up, at most
 * @p horizon cycles ahead, so a ring of more than @p horizon slots
 * never holds two live cycles in one slot.
 */
class WakeRing
{
  public:
    WakeRing(unsigned nCpus, unsigned horizon)
        : _words((nCpus + 63) / 64),
          _slotMask(std::bit_ceil(std::uint64_t(horizon) + 1) - 1),
          _bits(std::size_t(_slotMask + 1) * _words, 0),
          _counts(_slotMask + 1, 0)
    {
    }

    /** Wake @p cpu at @p cycle (within the horizon of now). */
    void
    schedule(unsigned cpu, std::uint64_t cycle)
    {
        const std::size_t slot = cycle & _slotMask;
        std::uint64_t &word = _bits[slot * _words + cpu / 64];
        assert(!((word >> (cpu % 64)) & 1) && "one wake-up per CPU");
        word |= std::uint64_t(1) << (cpu % 64);
        ++_counts[slot];
        ++_pending;
    }

    /** Call @p wake for every CPU due at @p cycle, lowest first.  A
     *  wake may schedule later cycles, never @p cycle itself. */
    template <typename Wake>
    void
    drain(std::uint64_t cycle, Wake &&wake)
    {
        const std::size_t slot = cycle & _slotMask;
        if (_counts[slot] == 0)
            return;
        _pending -= _counts[slot];
        _counts[slot] = 0;
        std::uint64_t *words = &_bits[slot * _words];
        for (unsigned w = 0; w < _words; ++w) {
            for (std::uint64_t bits = std::exchange(words[w], 0);
                 bits != 0; bits &= bits - 1)
                wake(w * 64 + unsigned(std::countr_zero(bits)));
        }
    }

    bool empty() const { return _pending == 0; }

    /** The first cycle after @p now with a wake-up (not empty()). */
    std::uint64_t
    next(std::uint64_t now) const
    {
        assert(!empty());
        std::uint64_t cycle = now + 1;
        while (_counts[cycle & _slotMask] == 0)
            ++cycle;
        return cycle;
    }

  private:
    unsigned _words;
    std::size_t _slotMask;
    std::vector<std::uint64_t> _bits;
    std::vector<unsigned> _counts;
    std::size_t _pending = 0;
};

} // namespace

TimedBusModel
timedPipelinedBus(const bus::BusPrimitives &prim)
{
    // Separate address/data paths release the bus during the memory
    // access; the requester still waits for the data.
    return TimedBusModel{bus::pipelinedBus(prim), prim.waitMemory};
}

TimedBusModel
timedNonPipelinedBus(const bus::BusPrimitives &prim)
{
    // The multiplexed bus is held during the access, so the wait is
    // already part of the occupancy.
    return TimedBusModel{bus::nonPipelinedBus(prim), 0};
}

double
TimedRun::busUtilization() const
{
    return makespan == 0 ? 0.0
                         : static_cast<double>(busBusyCycles) /
                               static_cast<double>(makespan);
}

double
TimedRun::busCyclesPerRef() const
{
    return refs == 0 ? 0.0
                     : static_cast<double>(busBusyCycles) /
                           static_cast<double>(refs);
}

double
TimedRun::effectiveCyclesPerRef() const
{
    if (refs == 0)
        return 0.0;
    std::uint64_t active = 0;
    for (const CpuTimedStats &cpu : cpus)
        active += cpu.finishCycle;
    return static_cast<double>(active) / static_cast<double>(refs);
}

bool
TimedRun::identicalTo(const TimedRun &other) const
{
    return scheme == other.scheme && bus == other.bus &&
           discipline == other.discipline && name == other.name &&
           nCpus == other.nCpus && refs == other.refs &&
           makespan == other.makespan &&
           busBusyCycles == other.busBusyCycles &&
           transactions == other.transactions &&
           queueDelay == other.queueDelay && cpus == other.cpus &&
           engine == other.engine;
}

TimedBusSim::TimedBusSim(
    const TimedBusConfig &cfg,
    std::unique_ptr<coherence::CoherenceEngine> engine)
    : _cfg(cfg), _engine(std::move(engine))
{
    if (!_engine)
        throw std::invalid_argument("TimedBusSim: engine is null");
}

TimedBusSim::~TimedBusSim() = default;

TimedRun
TimedBusSim::run(trace::RefSource &source)
{
    // A demux failure must not leave a previous run's results behind.
    _engine->reset();

    // Demux the stream into per-CPU SoA columns — the same shape a
    // prepared trace's timed streams carry — mapping sharing units
    // with the same UnitMapper sim::Simulator uses (so timed and
    // untimed runs agree on unit numbering) and numbering data blocks
    // in first-touch order like the prepared builders (instruction
    // entries carry block 0).  Port demux always keys by CPU,
    // whatever the sharing domain.  Unit capacity is checked here,
    // before the engine sees any reference.
    std::vector<trace::PreparedCpuStream> streams;
    sim::UnitMapper cpuMap(sim::SharingDomain::Processor);
    sim::UnitMapper unitMap(_cfg.sim.domain);
    trace::BlockNumbering blocks;
    const mem::BlockMapper toBlock(_cfg.sim.blockBytes);
    const unsigned capacity = _engine->numUnits();

    constexpr std::size_t batchRecords = 4096;
    std::vector<trace::TraceRecord> records(batchRecords);
    std::size_t n;
    while ((n = source.nextBatch(records.data(), batchRecords)) != 0) {
        for (std::size_t i = 0; i < n; ++i) {
            const trace::TraceRecord &rec = records[i];
            const unsigned unit = unitMap.map(rec);
            if (unit >= capacity)
                throw std::runtime_error(
                    "TimedBusSim: trace uses more sharing units than "
                    "engine '" + _engine->results().name +
                    "' supports");
            const mem::BlockId block = toBlock(rec.addr);
            if (block > 0xffffffffULL)
                throw std::runtime_error(
                    "TimedBusSim: block index exceeds the 32-bit "
                    "port-stream column");
            const unsigned cpu = cpuMap.map(rec);
            if (cpu == streams.size())
                streams.emplace_back();
            trace::PreparedCpuStream &stream = streams[cpu];
            stream.block.push_back(
                rec.isInstr()
                    ? 0
                    : blocks.number(static_cast<std::uint32_t>(block)));
            stream.unit.push_back(static_cast<std::uint8_t>(unit));
            stream.typeFlags.push_back(
                trace::packTypeFlags(rec.type, rec.flags));
        }
    }
    return runStreams(streams, blocks.names());
}

TimedRun
TimedBusSim::run(const trace::PreparedTrace &prepared)
{
    if (!prepared.hasTimedStreams())
        throw std::invalid_argument(
            "TimedBusSim: prepared trace '" + prepared.name() +
            "' was decoded without timed per-CPU streams");
    const trace::PrepareOptions &opts = prepared.options();
    if (opts.blockBytes != _cfg.sim.blockBytes ||
        opts.domain != _cfg.sim.domain)
        throw std::invalid_argument(
            "TimedBusSim: prepared trace '" + prepared.name() +
            "' was decoded for a different block size or sharing "
            "domain than this run");
    if (prepared.numUnits() > _engine->numUnits())
        throw std::runtime_error(
            "TimedBusSim: trace uses more sharing units than "
            "engine '" + _engine->results().name + "' supports");
    return runStreams(prepared.cpuStreams(), prepared.blockNames());
}

TimedRun
TimedBusSim::run(const trace::StoredTrace &stored)
{
    if (!stored.hasTimedStreams())
        throw std::invalid_argument(
            "TimedBusSim: stored trace '" + stored.name() +
            "' was spilled without timed per-CPU streams");
    const trace::PrepareOptions &opts = stored.options();
    if (opts.blockBytes != _cfg.sim.blockBytes ||
        opts.domain != _cfg.sim.domain)
        throw std::invalid_argument(
            "TimedBusSim: stored trace '" + stored.name() +
            "' was decoded for a different block size or sharing "
            "domain than this run");
    if (stored.numUnits() > _engine->numUnits())
        throw std::runtime_error(
            "TimedBusSim: trace uses more sharing units than "
            "engine '" + _engine->results().name + "' supports");

    // One windowed file cursor per CPU; each keeps exactly one chunk
    // of its stream resident, so a timed replay of an arbitrarily
    // long store runs in O(nCpus × chunk) memory.
    std::vector<std::unique_ptr<trace::CpuRefCursor>> cursors;
    for (unsigned cpu = 0; cpu < stored.numCpus(); ++cpu)
        cursors.push_back(stored.cpuCursor(cpu));
    return runCursors(cursors, stored.blockNames());
}

TimedRun
TimedBusSim::runStreams(
    const std::vector<trace::PreparedCpuStream> &streams,
    mem::BlockNames names)
{
    std::vector<std::unique_ptr<trace::CpuRefCursor>> cursors;
    for (const trace::PreparedCpuStream &stream : streams)
        cursors.push_back(
            std::make_unique<trace::PreparedCpuStreamCursor>(stream));
    return runCursors(cursors, names);
}

TimedRun
TimedBusSim::runCursors(
    const std::vector<std::unique_ptr<trace::CpuRefCursor>> &cursors,
    mem::BlockNames names)
{
    // Validates the cost options before anything runs.
    TransactionModel model(_cfg.scheme, _cfg.bus.costs, _cfg.costOpts);
    _engine->reset();
    _engine->reserveBlocks(names.size());
    coherence::CoherenceEngine *const engine = _engine.get();
    const coherence::BlockNamesBinding binding({&engine, 1}, names);

    const unsigned nCpus = static_cast<unsigned>(cursors.size());
    TimedRun result;
    result.scheme =
        sim::schemeName(_cfg.scheme, _cfg.costOpts.nPointers);
    result.bus = _cfg.bus.costs.name;
    result.discipline = disciplineName(_cfg.discipline);
    result.nCpus = nCpus;
    if (nCpus == 0) {
        result.engine = _engine->results();
        return result;
    }

    std::vector<RequestPort> ports;
    ports.reserve(nCpus);
    for (unsigned cpu = 0; cpu < nCpus; ++cpu)
        ports.emplace_back(cpu, *cursors[cpu]);
    const auto arbiter = BusArbiter::make(_cfg.discipline, nCpus);
    const unsigned memExtra = _cfg.bus.memExtraLatency;

    // --- The cycle loop ----------------------------------------------
    WakeRing ring(nCpus, std::max(kCyclesPerRef, memExtra));
    std::vector<BusRequest> waiters;
    bool busBusy = false;
    std::uint64_t busDone = 0;
    unsigned busHolder = 0;
    bool busUsesMemory = false;
    std::uint64_t reqSeq = 0;
    std::uint64_t now = 0;

    // Queue the next tenure of @p port's in-flight charge; the grant
    // phase at the end of the current cycle considers it.
    const auto issue = [&](RequestPort &port) {
        const TxnCharge &txn = port.nextTxn();
        waiters.push_back(BusRequest{port.cpu(), now, reqSeq++,
                                     txn.busCycles, txn.usesMemory});
    };

    // A woken CPU either issues the next tenure of a stalled
    // reference or executes its next reference.
    const auto wake = [&](unsigned cpu) {
        RequestPort &port = ports[cpu];
        if (port.hasPendingTxn()) {
            issue(port);
            return;
        }
        if (!port.hasMoreRefs()) {
            port.finish(now);
            return;
        }
        const PortRef ref = port.takeRef();
        const RefCharge &charge =
            model.charge(_engine->access(ref.unit, ref.type, ref.block));
        if (charge.empty()) {
            ring.schedule(cpu, now + kCyclesPerRef);
            return;
        }
        port.beginStall(charge, now);
        issue(port);
    };

    for (unsigned cpu = 0; cpu < nCpus; ++cpu)
        ring.schedule(cpu, 0);
    for (;;) {
        // The completion comes first, so a freed bus and the requests
        // arriving on the same cycle meet in one grant phase.
        if (busBusy && busDone == now) {
            busBusy = false;
            // Pipelined buses: the requester sees the data only after
            // the off-bus memory wait.
            const std::uint64_t done =
                now + (busUsesMemory ? memExtra : 0);
            RequestPort &port = ports[busHolder];
            if (!port.hasPendingTxn())
                port.endStall(done);
            ring.schedule(busHolder, done);
        }
        ring.drain(now, wake);

        if (!busBusy && !waiters.empty()) {
            const std::size_t pick = arbiter->pick(waiters);
            assert(pick < waiters.size());
            const BusRequest req = waiters[pick];
            waiters.erase(waiters.begin() +
                          static_cast<std::ptrdiff_t>(pick));
            arbiter->granted(req.cpu);
            result.queueDelay.sample(
                static_cast<std::size_t>(now - req.arrival));
            ++result.transactions;
            result.busBusyCycles += req.busCycles;
            busBusy = true;
            busDone = now + req.busCycles;
            busHolder = req.cpu;
            busUsesMemory = req.usesMemory;
        }

        // On to the next cycle with work: the bus completion or the
        // first pending wake-up, whichever comes sooner.
        if (ring.empty() && !busBusy)
            break;
        now = ring.empty() ? busDone
              : busBusy    ? std::min(busDone, ring.next(now))
                           : ring.next(now);
    }
    assert(waiters.empty());

    for (const RequestPort &port : ports) {
        const CpuTimedStats &stats = port.stats();
        result.refs += stats.refs;
        result.makespan = std::max(result.makespan, stats.finishCycle);
        result.cpus.push_back(stats);
    }
    result.engine = _engine->results();
    return result;
}

} // namespace dirsim::timing
