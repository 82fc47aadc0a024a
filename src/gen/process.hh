/**
 * @file
 * Synthetic process behaviour engine.
 *
 * Each ProcessEngine models one application process as a small state
 * machine that emits one memory reference per scheduling step:
 *
 *  - Normal:  instruction fetches and data references drawn from a
 *             weighted mix of private data, read-mostly shared data,
 *             write-first shared slots, migratory objects (read-modify-
 *             write handed between processes) and lock acquisition
 *             attempts.
 *  - Spinning: a test-and-test-and-set wait loop on a held lock; emits
 *             flagged lock-test reads interleaved with loop
 *             instructions until the lock is observed free, then
 *             attempts the atomic set (a write) on the next step.
 *  - Critical: the lock-protected region; touches protected and
 *             private data, then emits the releasing write.
 *
 * Operating-system activity is interleaved: with probability pSystem a
 * step executes "in the kernel", referencing OS code, per-CPU OS data
 * or (rarely written) OS shared data, flagged FlagSystem.
 *
 * The mix weights below are the calibration knobs used to land the
 * preset workloads near the published Table 3/Table 4 characteristics.
 */

#ifndef DIRSIM_GEN_PROCESS_HH
#define DIRSIM_GEN_PROCESS_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gen/address_space.hh"
#include "gen/lock_set.hh"
#include "gen/rng.hh"
#include "trace/record.hh"

namespace dirsim::gen
{

/** Behaviour mix parameters for synthetic processes. */
struct BehaviorConfig
{
    double pInstr = 0.50;  //!< Instruction-fetch probability per step.
    double pSystem = 0.10; //!< Probability a step runs kernel code.

    /** @name Data reference category weights (user mode, normalised).
     *  @{ */
    double wPrivate = 0.90;
    double wSharedRead = 0.06;
    double wSharedWrite = 0.004;
    double wMigratory = 0.015;
    double wLockAttempt = 0.004;
    /** @} */

    double pPrivateRead = 0.78;    //!< Private touch is a read.
    double pSharedReadWrite = 0.002;//!< Read-mostly touch is a write.
    /**
     * Producer/consumer slots: with this probability the touch is the
     * producer writing one of its own slots (repeatedly rewritten, so
     * an update protocol pays on every write while an invalidation
     * protocol pays only after a consumer read); otherwise it is a
     * consumer read of a random slot.
     */
    double pSharedSlotWrite = 0.90;
    /** Writes per migratory hand-off (read-modify-write burst). */
    std::uint32_t migratoryWriteBurst = 4;

    double pSpinInstr = 0.40;      //!< Spin-loop instruction fraction.
    std::uint32_t critMin = 12;    //!< Min critical-section length.
    std::uint32_t critMax = 48;    //!< Max critical-section length.
    double pCritProtected = 0.60;  //!< Critical data is lock-protected.
    double pCritWrite = 0.30;      //!< Critical data touch is a write.

    double hotLockFrac = 0.85;     //!< Lock picks go to the hot set.
    std::uint32_t nHotLocks = 2;   //!< Size of the hot lock set.

    /** OS data mix. */
    double pOsInstr = 0.55;
    double pOsShared = 0.05;       //!< OS data touch hits shared region.
    double pOsWrite = 0.20;        //!< OS data touch is a write.
};

/**
 * Fixed-point samplers precomputed from one BehaviorConfig.
 *
 * Every probability the step functions consult per reference becomes
 * a FixedChance/FixedWeighted threshold, built once per workload and
 * shared (const) by all of its processes.  Kept outside BehaviorConfig
 * so the config stays a plain value type — it is serialised field by
 * field into the trace repository's cache key.  The draw sequence is
 * provably identical to the double-math it replaces (see rng.hh), so
 * traces stay bit-identical.
 */
struct BehaviorSamplers
{
    explicit BehaviorSamplers(const BehaviorConfig &cfg)
        : system(cfg.pSystem), instr(cfg.pInstr),
          category({cfg.wPrivate, cfg.wSharedRead, cfg.wSharedWrite,
                    cfg.wMigratory, cfg.wLockAttempt}),
          privateRead(cfg.pPrivateRead),
          sharedReadWrite(cfg.pSharedReadWrite),
          sharedSlotWrite(cfg.pSharedSlotWrite),
          spinInstr(cfg.pSpinInstr), critProtected(cfg.pCritProtected),
          critWrite(cfg.pCritWrite), hotLock(cfg.hotLockFrac),
          osInstr(cfg.pOsInstr), osShared(cfg.pOsShared),
          osWrite(cfg.pOsWrite), secondMigratoryBlock(0.5),
          instrBranch(0.1), migratoryRebias(0.7)
    {
    }

    FixedChance system;
    FixedChance instr;
    FixedWeighted category;
    FixedChance privateRead;
    FixedChance sharedReadWrite;
    FixedChance sharedSlotWrite;
    FixedChance spinInstr;
    FixedChance critProtected;
    FixedChance critWrite;
    FixedChance hotLock;
    FixedChance osInstr;
    FixedChance osShared;
    FixedChance osWrite;
    /** The step functions' literal probabilities, precomputed too. */
    FixedChance secondMigratoryBlock;
    FixedChance instrBranch;
    FixedChance migratoryRebias;
};

/** Shared mutable state that all processes of a workload act on. */
struct SharedState
{
    LockSet locks;
    /** Last process to own each migratory object. */
    std::vector<std::uint16_t> migratoryOwner;
};

/** One synthetic process; emits one TraceRecord per step. */
class ProcessEngine
{
  public:
    /**
     * @param pid Process identifier stamped on emitted records.
     * @param cfg Behaviour mix (shared by all processes of a workload).
     * @param samplers Fixed-point samplers built from @p cfg; must
     *        outlive the engine (shared by all of a workload's
     *        processes).
     * @param space Address-space layout; must outlive the engine.
     * @param shared Workload-wide lock/migratory state.
     */
    ProcessEngine(std::uint16_t pid, const BehaviorConfig &cfg,
                  const BehaviorSamplers &samplers,
                  const AddressSpace &space, SharedState &shared);

    /**
     * Emit the next reference for this process.
     *
     * @param cpu CPU the process is currently scheduled on (stamped on
     *            the record and used for per-CPU OS data).
     * @param rng The workload's RNG (one stream for determinism).
     *        Passed per step, not held, so a batch loop can keep the
     *        generator state in a local across the inlined chain.
     */
    trace::TraceRecord step(unsigned cpu, Rng &rng);

    std::uint16_t pid() const { return _pid; }
    /** True while the process is spin-waiting on a lock. */
    bool spinning() const { return _mode == Mode::Spinning; }

  private:
    enum class Mode { Normal, Spinning, Critical };

    trace::TraceRecord stepSystem(unsigned cpu, Rng &rng);
    trace::TraceRecord stepNormal(Rng &rng);
    trace::TraceRecord stepSpinning(Rng &rng);
    trace::TraceRecord stepCritical(Rng &rng);

    trace::TraceRecord instrFetch(Rng &rng);
    static trace::TraceRecord read(std::uint64_t addr,
                                   std::uint8_t flags = 0);
    static trace::TraceRecord write(std::uint64_t addr,
                                    std::uint8_t flags = 0);

    /** Pick a lock index, biased towards the hot set. */
    std::size_t pickLock(Rng &rng);
    /** Pick a migratory object, biased away from self-owned ones. */
    std::uint32_t pickMigratoryObject(Rng &rng);

    const std::uint16_t _pid;
    const BehaviorConfig &_cfg;
    const BehaviorSamplers &_smp;
    const AddressSpace &_space;
    SharedState &_shared;

    Mode _mode = Mode::Normal;
    /** Fetches per pass over the code region (4 per block). */
    const std::uint64_t _pcWrap;
    /** Code-region walker, kept below _pcWrap so a fetch needs no
     *  modulo: the fetched block is _pc / 4. */
    std::uint64_t _pc = 0;
    std::size_t _lock = 0;          //!< Lock being waited on / held.
    bool _sawFree = false;          //!< Spin observed the lock free.
    std::uint32_t _critRemaining = 0;
    /** Pending read-modify-write writes (migratory pattern). */
    std::vector<std::uint64_t> _pendingWrites;
};

// The step chain is defined here and forced inline, so it folds into
// WorkloadSource's batch loop whole: the RNG's address then never
// escapes the loop, and its state stays in registers instead of
// going through memory on every draw.

inline ProcessEngine::ProcessEngine(std::uint16_t pid,
                                    const BehaviorConfig &cfg,
                                    const BehaviorSamplers &samplers,
                                    const AddressSpace &space,
                                    SharedState &shared)
    : _pid(pid), _cfg(cfg), _smp(samplers), _space(space),
      _shared(shared), _pcWrap(space.codeBlocks() * 4)
{
    // Start each process at a distinct point in its code region.
    _pc = (std::uint64_t(pid) * 17) % _pcWrap;
}

[[gnu::always_inline]] inline trace::TraceRecord
ProcessEngine::step(unsigned cpu, Rng &rng)
{
    trace::TraceRecord rec;
    // Kernel entries happen regardless of user-level mode: interrupts
    // and system calls interleave with spinning and critical sections
    // alike.  Lock state is not advanced by a kernel step.
    if (_smp.system(rng)) {
        rec = stepSystem(cpu, rng);
    } else {
        switch (_mode) {
          case Mode::Normal:
            rec = stepNormal(rng);
            break;
          case Mode::Spinning:
            rec = stepSpinning(rng);
            break;
          case Mode::Critical:
            rec = stepCritical(rng);
            break;
        }
    }
    rec.pid = _pid;
    rec.cpu = static_cast<std::uint8_t>(cpu);
    return rec;
}

[[gnu::always_inline]] inline trace::TraceRecord
ProcessEngine::stepSystem(unsigned cpu, Rng &rng)
{
    trace::TraceRecord rec;
    if (_smp.osInstr(rng)) {
        rec = read(_space.osCodeAddr(rng));
        rec.type = trace::RefType::Instr;
    } else {
        const std::uint64_t addr = _smp.osShared(rng)
                                       ? _space.osSharedAddr(rng)
                                       : _space.osPerCpuAddr(cpu, rng);
        rec = _smp.osWrite(rng) ? write(addr) : read(addr);
    }
    rec.flags |= trace::FlagSystem;
    return rec;
}

[[gnu::always_inline]] inline trace::TraceRecord
ProcessEngine::stepNormal(Rng &rng)
{
    if (_smp.instr(rng))
        return instrFetch(rng);

    // Finish read-modify-write sequences before new work.
    if (!_pendingWrites.empty()) {
        const std::uint64_t addr = _pendingWrites.back();
        _pendingWrites.pop_back();
        return write(addr);
    }

    const std::size_t category = _smp.category(rng);
    switch (category) {
      case 0: { // Private data.
        const std::uint64_t addr = _space.privateAddr(_pid, rng);
        return _smp.privateRead(rng) ? read(addr) : write(addr);
      }
      case 1: { // Read-mostly shared data.
        const std::uint64_t addr = _space.sharedReadAddr(rng);
        return _smp.sharedReadWrite(rng) ? write(addr) : read(addr);
      }
      case 2: { // Producer/consumer shared slots.
        if (_smp.sharedSlotWrite(rng))
            return write(_space.sharedWriteOwnAddr(_pid, rng));
        return read(_space.sharedWriteAddr(rng));
      }
      case 3: { // Migratory object: read, then a write burst.
        const std::uint32_t obj = pickMigratoryObject(rng);
        _shared.migratoryOwner[obj] = _pid;
        const std::uint64_t addr = _space.migratoryAddr(obj, 0);
        for (std::uint32_t w = 0; w < _cfg.migratoryWriteBurst; ++w)
            _pendingWrites.push_back(addr);
        if (_space.config().blocksPerMigratoryObject > 1 &&
            _smp.secondMigratoryBlock(rng)) {
            _pendingWrites.push_back(_space.migratoryAddr(obj, 1));
        }
        return read(addr);
      }
      default: { // Lock acquisition attempt.
        _lock = pickLock(rng);
        Lock &lk = _shared.locks[_lock];
        _mode = Mode::Spinning;
        _sawFree = !lk.held;
        ++lk.waiters;
        return read(lk.addr, trace::FlagLockTest);
      }
    }
}

[[gnu::always_inline]] inline trace::TraceRecord
ProcessEngine::stepSpinning(Rng &rng)
{
    Lock &lk = _shared.locks[_lock];
    if (_sawFree) {
        if (!lk.held) {
            // Atomic test-and-set succeeds.
            --lk.waiters;
            _shared.locks.acquire(_lock, _pid);
            _mode = Mode::Critical;
            _critRemaining = static_cast<std::uint32_t>(
                rng.nextInRange(_cfg.critMin, _cfg.critMax));
            return write(lk.addr, trace::FlagLockWrite);
        }
        // Lost the race: another process grabbed it first.
        _sawFree = false;
    }
    // Spin loop body: a test read, interleaved with the loop's own
    // instruction fetches.
    if (_smp.spinInstr(rng))
        return instrFetch(rng);
    _sawFree = !lk.held;
    return read(lk.addr, trace::FlagLockTest);
}

[[gnu::always_inline]] inline trace::TraceRecord
ProcessEngine::stepCritical(Rng &rng)
{
    if (_critRemaining == 0) {
        // Release: a plain write to the lock word.
        _shared.locks.release(_lock);
        _mode = Mode::Normal;
        return write(_shared.locks[_lock].addr, trace::FlagLockWrite);
    }
    --_critRemaining;
    if (_smp.instr(rng))
        return instrFetch(rng);
    const std::uint64_t addr =
        _smp.critProtected(rng)
            ? _space.protectedAddr(static_cast<std::uint32_t>(_lock),
                                   rng)
            : _space.privateAddr(_pid, rng);
    return _smp.critWrite(rng) ? write(addr) : read(addr);
}

[[gnu::always_inline]] inline trace::TraceRecord
ProcessEngine::instrFetch(Rng &rng)
{
    // Sequential fetch with occasional branches back into the region.
    if (_smp.instrBranch(rng))
        _pc = rng.nextBelow(_pcWrap);
    else if (++_pc == _pcWrap)
        _pc = 0;
    trace::TraceRecord rec;
    rec.type = trace::RefType::Instr;
    rec.addr = _space.codeAddr(_pid, _pc / 4);
    return rec;
}

inline trace::TraceRecord
ProcessEngine::read(std::uint64_t addr, std::uint8_t flags)
{
    trace::TraceRecord rec;
    rec.type = trace::RefType::Read;
    rec.addr = addr;
    rec.flags = flags;
    return rec;
}

inline trace::TraceRecord
ProcessEngine::write(std::uint64_t addr, std::uint8_t flags)
{
    trace::TraceRecord rec;
    rec.type = trace::RefType::Write;
    rec.addr = addr;
    rec.flags = flags;
    return rec;
}

[[gnu::always_inline]] inline std::size_t
ProcessEngine::pickLock(Rng &rng)
{
    const std::size_t n_locks = _shared.locks.size();
    const std::size_t n_hot =
        std::min<std::size_t>(_cfg.nHotLocks, n_locks);
    if (n_hot > 0 && _smp.hotLock(rng))
        return rng.nextBelow(n_hot);
    return rng.nextBelow(n_locks);
}

[[gnu::always_inline]] inline std::uint32_t
ProcessEngine::pickMigratoryObject(Rng &rng)
{
    const auto n_objects =
        static_cast<std::uint32_t>(_shared.migratoryOwner.size());
    auto obj = static_cast<std::uint32_t>(rng.nextBelow(n_objects));
    // Bias towards objects last owned by another process so the
    // migratory (dirty hand-off) pattern is exercised.
    if (_shared.migratoryOwner[obj] == _pid && _smp.migratoryRebias(rng))
        obj = static_cast<std::uint32_t>(rng.nextBelow(n_objects));
    return obj;
}

} // namespace dirsim::gen

#endif // DIRSIM_GEN_PROCESS_HH
