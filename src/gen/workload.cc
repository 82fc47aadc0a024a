#include "gen/workload.hh"

#include <stdexcept>

namespace dirsim::gen
{

namespace
{

/** Reject what the generator cannot run: each check guards an out-of-
 *  bounds index, a division by zero or a silently wrapped record
 *  field further down. */
void
validate(const WorkloadConfig &cfg)
{
    const AddressSpaceConfig &sp = cfg.space;
    const BehaviorConfig &bh = cfg.behavior;
    const auto reject = [&cfg](const std::string &what) {
        throw std::invalid_argument("WorkloadSource: workload '" +
                                    cfg.name + "': " + what);
    };
    if (sp.nCpus == 0)
        reject("space.nCpus must be at least 1");
    if (sp.nCpus > sp.nProcesses)
        reject("space.nCpus (" + std::to_string(sp.nCpus) +
               ") exceeds space.nProcesses (" +
               std::to_string(sp.nProcesses) +
               "); every CPU needs a process");
    if (sp.nCpus > 256)
        reject("space.nCpus (" + std::to_string(sp.nCpus) +
               ") exceeds the 256 a record's 8-bit cpu holds");
    if (sp.nProcesses > 65536)
        reject("space.nProcesses (" + std::to_string(sp.nProcesses) +
               ") exceeds the 65536 a record's 16-bit pid holds");
    if (sp.codeBlocksPerProc == 0)
        reject("space.codeBlocksPerProc must be at least 1");
    if (sp.wordBytes == 0)
        reject("space.wordBytes must be at least 1");
    if (sp.blocksPerMigratoryObject == 0)
        reject("space.blocksPerMigratoryObject must be at least 1");
    if (bh.wSharedWrite > 0.0 && sp.sharedWriteBlocks == 0)
        reject("behavior.wSharedWrite is positive but "
               "space.sharedWriteBlocks is 0");
    if (bh.wMigratory > 0.0 && sp.migratoryObjects == 0)
        reject("behavior.wMigratory is positive but "
               "space.migratoryObjects is 0");
    if (bh.wLockAttempt > 0.0 && sp.nLocks == 0)
        reject("behavior.wLockAttempt is positive but space.nLocks "
               "is 0");
}

} // namespace

WorkloadSource::WorkloadSource(WorkloadConfig cfg)
    : _cfg(std::move(cfg)), _space(_cfg.space),
      _samplers(_cfg.behavior), _rng(_cfg.seed)
{
    validate(_cfg);
    reset();
}

void
WorkloadSource::reset()
{
    _rng = Rng(_cfg.seed);
    _shared = SharedState{};
    for (std::uint32_t l = 0; l < _cfg.space.nLocks; ++l)
        _shared.locks.add(_space.lockAddr(l));
    _shared.migratoryOwner.assign(_cfg.space.migratoryObjects, 0xffff);

    _processes.clear();
    for (unsigned p = 0; p < _cfg.space.nProcesses; ++p) {
        _processes.push_back(std::make_unique<ProcessEngine>(
            static_cast<std::uint16_t>(p), _cfg.behavior, _samplers,
            _space, _shared));
    }

    _procOnCpu.clear();
    _readyQueue.clear();
    for (unsigned c = 0; c < _cfg.space.nCpus; ++c)
        _procOnCpu.push_back(c);
    for (std::size_t p = _cfg.space.nCpus; p < _processes.size(); ++p)
        _readyQueue.push_back(p);
    _quantumLeft.assign(_cfg.space.nCpus, _cfg.quantumRefs);

    _emitted = 0;
    _nextCpu = 0;
}

void
WorkloadSource::rewind()
{
    reset();
}

void
WorkloadSource::reschedule(unsigned cpu, Rng &rng)
{
    _quantumLeft[cpu] = _cfg.quantumRefs;
    if (!_readyQueue.empty()) {
        // Time-slice: descheduled process goes to the back of the
        // ready queue.  Whether this migrates the process depends on
        // which CPU next picks it up.
        const std::size_t incoming = _readyQueue.front();
        _readyQueue.pop_front();
        _readyQueue.push_back(_procOnCpu[cpu]);
        _procOnCpu[cpu] = incoming;
        return;
    }
    if (_cfg.migrationRate > 0.0 && rng.chance(_cfg.migrationRate) &&
        _cfg.space.nCpus > 1) {
        // Swap with a random other CPU: both processes migrate.
        unsigned other = static_cast<unsigned>(
            rng.nextBelow(_cfg.space.nCpus - 1));
        if (other >= cpu)
            ++other;
        std::swap(_procOnCpu[cpu], _procOnCpu[other]);
    }
}

bool
WorkloadSource::next(trace::TraceRecord &record)
{
    return nextBatch(&record, 1) != 0;
}

std::size_t
WorkloadSource::nextBatch(trace::TraceRecord *out, std::size_t max)
{
    const std::uint64_t left = _cfg.totalRefs - _emitted;
    const std::size_t n = left < max ? static_cast<std::size_t>(left)
                                     : max;
    // The generator loop, with the RNG and the CPU cursor in locals:
    // the step chain inlines here, so the xoshiro state stays in
    // registers for the whole batch.  The once-a-quantum reschedule
    // draws through a copy, so the local's address never escapes.
    Rng rng = _rng;
    unsigned cpu = _nextCpu;
    const unsigned nCpus = _cfg.space.nCpus;
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = _processes[_procOnCpu[cpu]]->step(cpu, rng);
        if (--_quantumLeft[cpu] == 0) {
            Rng drawn = rng;
            reschedule(cpu, drawn);
            rng = drawn;
        }
        if (++cpu == nCpus)
            cpu = 0;
    }
    _rng = rng;
    _nextCpu = cpu;
    _emitted += n;
    return n;
}

trace::TraceMeta
WorkloadSource::meta() const
{
    trace::TraceMeta meta;
    meta.name = _cfg.name;
    meta.nCpus = _cfg.space.nCpus;
    meta.nProcesses = _cfg.space.nProcesses;
    for (std::size_t l = 0; l < _shared.locks.size(); ++l)
        meta.lockAddrs.insert(_shared.locks[l].addr);
    return meta;
}

trace::MemoryTrace
generateTrace(const WorkloadConfig &cfg)
{
    WorkloadSource source(cfg);
    trace::MemoryTrace trace(source.meta());
    trace.reserve(cfg.totalRefs);
    trace.fillFrom(source);
    return trace;
}

} // namespace dirsim::gen
