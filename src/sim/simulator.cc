#include "sim/simulator.hh"

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace dirsim::sim
{

namespace
{

/** Records fetched per batch; large enough to amortise the virtual
 *  nextBatch() call, small enough to stay in L1/L2. */
constexpr std::size_t batchRecords = 4096;

} // namespace

Simulator::Simulator(const SimConfig &cfg)
    : _cfg(cfg), _unitMap(cfg.domain)
{
}

coherence::CoherenceEngine &
Simulator::addEngine(std::unique_ptr<coherence::CoherenceEngine> engine)
{
    _engines.push_back(std::move(engine));
    return *_engines.back();
}

std::uint64_t
Simulator::run(trace::RefSource &source)
{
    // The capacity shared by every engine; a unit index at or beyond
    // it can reach no engine, so it is checked while mapping units —
    // before the batch is dispatched anywhere.
    unsigned capacity = std::numeric_limits<unsigned>::max();
    const coherence::CoherenceEngine *smallest = nullptr;
    for (const auto &engine : _engines) {
        if (engine->numUnits() < capacity) {
            capacity = engine->numUnits();
            smallest = engine.get();
        }
    }

    std::uint64_t processed = 0;
    const mem::BlockMapper toBlock(_cfg.blockBytes);
    std::vector<trace::TraceRecord> records(batchRecords);
    std::vector<coherence::BlockAccess> batch(batchRecords);
    const std::vector<coherence::CoherenceEngine *> engines =
        enginePointers();
    // A failed run leaves no partially-accumulated state behind.
    const auto fail = [this](const std::string &what) {
        for (auto &engine : _engines)
            engine->reset();
        _unitMap.clear();
        _blocks.clear();
        throw std::runtime_error("Simulator: " + what);
    };
    std::size_t n;
    while ((n = source.nextBatch(records.data(), batchRecords)) != 0) {
        // Map (and validate) the whole batch first: if the trace
        // overflows the smallest engine, no engine has seen any part
        // of this batch yet, and resetting them undoes the prefix.
        // Instruction fetches change no engine state, so they are
        // stripped here and reported in bulk — the unit map still
        // sees every record, keeping first-seen numbering intact.
        // Data blocks are numbered in first-touch order, exactly as
        // the prepared builders number them.
        std::size_t nData = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const trace::TraceRecord &rec = records[i];
            const unsigned unit = _unitMap.map(rec);
            if (unit >= capacity)
                fail("trace uses more sharing units than engine '" +
                     smallest->results().name + "' supports");
            if (rec.type == trace::RefType::Instr)
                continue;
            const mem::BlockId raw = toBlock(rec.addr);
            if (raw > 0xffffffffULL)
                fail("address " + std::to_string(rec.addr) +
                     " exceeds the 32-bit block index at block size " +
                     std::to_string(_cfg.blockBytes));
            batch[nData++] = {unit, rec.type,
                              _blocks.number(std::uint32_t(raw))};
        }
        const std::uint64_t nInstr = n - nData;
        // The names table grows (and may move) as blocks are
        // numbered, so the engines are bound afresh for every batch.
        const coherence::BlockNamesBinding names(engines,
                                                 _blocks.names());
        for (coherence::CoherenceEngine *engine : engines) {
            if (nInstr != 0)
                engine->recordInstrs(nInstr);
            engine->accessBatch(batch.data(), nData);
        }
        processed += n;
    }
    return processed;
}

std::uint64_t
Simulator::run(const trace::PreparedTrace &prepared)
{
    const trace::PrepareOptions &opts = prepared.options();
    if (opts.blockBytes != _cfg.blockBytes ||
        opts.domain != _cfg.domain)
        throw std::invalid_argument(
            "Simulator: prepared trace '" + prepared.name() +
            "' was decoded for a different block size or sharing "
            "domain than this simulator");

    // Unlike the streaming path, the unit count is known up front, so
    // the capacity check happens before any engine sees anything — a
    // failed run mutates nothing.
    unsigned capacity = std::numeric_limits<unsigned>::max();
    const coherence::CoherenceEngine *smallest = nullptr;
    for (const auto &engine : _engines) {
        if (engine->numUnits() < capacity) {
            capacity = engine->numUnits();
            smallest = engine.get();
        }
    }
    if (prepared.numUnits() > capacity)
        throw std::runtime_error(
            "Simulator: trace uses more sharing units than engine '" +
            smallest->results().name + "' supports");

    if (prepared.numUnits() > _preparedUnits)
        _preparedUnits = prepared.numUnits();

    trace::PreparedTraceSpans spans(prepared);
    FusedReplay replay(
        FusedReplayOptions{.stripRefs = _cfg.replayStripRefs});
    return replay.run(spans, enginePointers()).totalRefs();
}

std::uint64_t
Simulator::run(trace::PreparedSpanSource &spans)
{
    const trace::PrepareOptions &opts = spans.options();
    if (opts.blockBytes != _cfg.blockBytes ||
        opts.domain != _cfg.domain)
        throw std::invalid_argument(
            "Simulator: prepared stream '" + spans.name() +
            "' was decoded for a different block size or sharing "
            "domain than this simulator");

    unsigned capacity = std::numeric_limits<unsigned>::max();
    const coherence::CoherenceEngine *smallest = nullptr;
    for (const auto &engine : _engines) {
        if (engine->numUnits() < capacity) {
            capacity = engine->numUnits();
            smallest = engine.get();
        }
    }
    if (spans.numUnits() > capacity)
        throw std::runtime_error(
            "Simulator: trace uses more sharing units than engine '" +
            smallest->results().name + "' supports");

    if (spans.numUnits() > _preparedUnits)
        _preparedUnits = spans.numUnits();

    FusedReplay replay(
        FusedReplayOptions{.stripRefs = _cfg.replayStripRefs});
    return replay.run(spans, enginePointers()).totalRefs();
}

std::vector<coherence::CoherenceEngine *>
Simulator::enginePointers() const
{
    std::vector<coherence::CoherenceEngine *> engines;
    engines.reserve(_engines.size());
    for (const auto &engine : _engines)
        engines.push_back(engine.get());
    return engines;
}

} // namespace dirsim::sim
