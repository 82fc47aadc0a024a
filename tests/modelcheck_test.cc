/**
 * @file
 * Exhaustive model checking of the coherence engines.
 *
 * A deliberately naive, independently written reference specification
 * of each state-change model is replayed against the production
 * engines over *every* reference sequence up to a bounded length
 * (2 units x read/write x 2 blocks = 8 symbols; all 8^6 = 262,144
 * sequences of length 6, plus sampled deeper sequences with 3 units).
 * Divergence in any event classification fails the test, so any
 * behavioural regression in the engines' fast paths is caught by
 * construction rather than by luck.
 *
 * Every sequence is replayed a second time through the entry point
 * behind the exhibits: sim::Simulator over the sequence as one
 * prepared span, so the repeat-read filter and accessPrepared() run
 * exactly as in static replay, and the results must equal what
 * access() gave.  The Outcomes access() returns are summed per
 * sequence too, and the sum must equal the costed fields of the
 * engine's results(), which is what the timed bus prices.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "coherence/dragon_engine.hh"
#include "coherence/inval_engine.hh"
#include "coherence/limited_engine.hh"
#include "coherence/multi_limited_engine.hh"
#include "gen/rng.hh"
#include "sim/simulator.hh"
#include "trace/prepared.hh"

namespace
{

using namespace dirsim;
using coherence::Event;
using trace::RefType;

/**
 * Reference specification of the multiple-clean/single-dirty model,
 * written in the most literal style possible (sets and maps, no
 * bit tricks).
 */
class SpecInval
{
  public:
    explicit SpecInval(unsigned units) : _units(units) {}

    Event
    access(unsigned unit, RefType type, std::uint64_t block)
    {
        auto &holders = _holders[block];
        auto &dirty = _dirty[block];
        const bool seen = _referenced.count(block) > 0;
        _referenced.insert(block);

        if (type == RefType::Read) {
            if (holders.count(unit))
                return Event::RdHit;
            Event event;
            if (!seen) {
                event = Event::RmFirstRef;
            } else if (dirty.has_value()) {
                event = Event::RmBlkDrty;
                dirty.reset(); // flushed; ex-owner keeps a clean copy
            } else if (!holders.empty()) {
                event = Event::RmBlkCln;
            } else {
                event = Event::RmMemory;
            }
            holders.insert(unit);
            return event;
        }

        // Write.
        Event event;
        if (holders.count(unit) && dirty == unit) {
            return Event::WhBlkDrty;
        } else if (holders.count(unit)) {
            event = holders.size() == 1 ? Event::WhBlkClnExcl
                                        : Event::WhBlkClnShared;
        } else if (!seen) {
            event = Event::WmFirstRef;
        } else if (dirty.has_value()) {
            event = Event::WmBlkDrty;
        } else if (!holders.empty()) {
            event = Event::WmBlkCln;
        } else {
            event = Event::WmMemory;
        }
        holders.clear();
        holders.insert(unit);
        dirty = unit;
        return event;
    }

  private:
    unsigned _units;
    std::map<std::uint64_t, std::set<unsigned>> _holders;
    std::map<std::uint64_t, std::optional<unsigned>> _dirty;
    std::set<std::uint64_t> _referenced;
};

/** Reference specification of the Dragon update model. */
class SpecDragon
{
  public:
    Event
    access(unsigned unit, RefType type, std::uint64_t block)
    {
        auto &holders = _holders[block];
        auto &owner = _owner[block];
        const bool seen = _referenced.count(block) > 0;
        _referenced.insert(block);

        if (type == RefType::Read) {
            if (holders.count(unit))
                return Event::RdHit;
            Event event;
            if (!seen)
                event = Event::RmFirstRef;
            else if (owner.has_value())
                event = Event::RmBlkDrty;
            else if (!holders.empty())
                event = Event::RmBlkCln;
            else
                event = Event::RmMemory;
            holders.insert(unit);
            return event;
        }

        Event event;
        if (holders.count(unit)) {
            event = holders.size() == 1 ? Event::WhLocal
                                        : Event::WhDistrib;
        } else if (!seen) {
            event = Event::WmFirstRef;
        } else if (owner.has_value()) {
            event = Event::WmBlkDrty;
        } else if (!holders.empty()) {
            event = Event::WmBlkCln;
        } else {
            event = Event::WmMemory;
        }
        holders.insert(unit);
        owner = unit;
        return event;
    }

  private:
    std::map<std::uint64_t, std::set<unsigned>> _holders;
    std::map<std::uint64_t, std::optional<unsigned>> _owner;
    std::set<std::uint64_t> _referenced;
};

/** Decode symbol s in [0, units*2*blocks) to (unit, type, block). */
struct Symbol
{
    unsigned unit;
    RefType type;
    std::uint64_t block;
};

Symbol
decode(unsigned s, unsigned units, unsigned blocks)
{
    Symbol sym;
    sym.unit = s % units;
    s /= units;
    sym.type = (s % 2) == 0 ? RefType::Read : RefType::Write;
    s /= 2;
    sym.block = s % blocks;
    return sym;
}

/**
 * A symbol sequence as a prepared stream: one span of data
 * references whose dense block ids are the symbols' blocks, each its
 * own raw index.
 */
class SequenceSpans final : public trace::PreparedSpanSource
{
  public:
    SequenceSpans(const std::vector<Symbol> &seq, unsigned units,
                  unsigned blocks)
        : _units(units), _names(blocks)
    {
        for (const Symbol &sym : seq) {
            _block.push_back(static_cast<std::uint32_t>(sym.block));
            _unit.push_back(static_cast<std::uint8_t>(sym.unit));
            _typeFlags.push_back(
                trace::packTypeFlags(sym.type, trace::FlagNone));
        }
        for (unsigned b = 0; b < blocks; ++b)
            _names[b] = b;
    }

    const std::string &name() const override { return _name; }
    const trace::PrepareOptions &options() const override
    {
        return _options;
    }
    std::uint64_t instrRefs() const override { return 0; }
    std::uint64_t dataRefs() const override { return _block.size(); }
    unsigned numUnits() const override { return _units; }
    unsigned numCpus() const override { return _units; }
    mem::BlockNames blockNames() const override { return _names; }

    bool
    nextSpan(trace::PreparedSpan &span) override
    {
        if (_done)
            return false;
        _done = true;
        span = {_block.data(), _unit.data(), _typeFlags.data(),
                _block.size()};
        return true;
    }
    void rewind() override { _done = false; }

  private:
    std::string _name = "sequence";
    trace::PrepareOptions _options;
    unsigned _units;
    std::vector<std::uint32_t> _names;
    std::vector<std::uint32_t> _block;
    std::vector<std::uint8_t> _unit;
    std::vector<std::uint8_t> _typeFlags;
    bool _done = false;
};

/** A sequence replayed through a fresh engine as static replay does:
 *  one sim::Simulator, so the repeat-read filter, then
 *  accessPrepared(). */
template <typename Engine>
class PreparedReplay
{
  public:
    PreparedReplay(Engine engine, const std::vector<Symbol> &seq,
                   unsigned units, unsigned blocks)
        : _engine(static_cast<Engine &>(_simulator.addEngine(
              std::make_unique<Engine>(std::move(engine)))))
    {
        SequenceSpans spans(seq, units, blocks);
        _simulator.run(spans);
    }

    const Engine &engine() const { return _engine; }

  private:
    sim::Simulator _simulator;
    Engine &_engine;
};

/** Add @p o, one reference's Outcome, into @p sum. */
void
addOutcome(coherence::EngineResults &sum, const coherence::Outcome &o)
{
    sum.events.record(o.event());
    if (o.sampled())
        (coherence::isWriteHit(o.event()) ? sum.whClnFanout
                                          : sum.wmClnFanout)
            .sample(o.fanout());
    sum.holderGrowth12 += o.holderGrowth12();
    sum.displacementInvals += o.displacementInvals();
    sum.replacementWriteBacks += o.replacementWriteBacks();
    sum.dirCacheEvictionInvals += o.dirCacheEvictionInvals();
    sum.dirCacheEvictionWriteBacks += o.dirCacheEvictionWriteBacks();
}

/** Whether @p sum, a sequence's summed Outcomes, equals the costed
 *  fields of @p r: every event count, both fanout histograms, and
 *  the growth, displacement, replacement and directory-cache
 *  eviction counters. */
::testing::AssertionResult
outcomesSumToResults(const coherence::EngineResults &sum,
                     const coherence::EngineResults &r)
{
    for (std::size_t e = 0; e < coherence::numEvents; ++e) {
        const auto event = static_cast<Event>(e);
        if (sum.events.count(event) != r.events.count(event))
            return ::testing::AssertionFailure()
                   << coherence::eventName(event) << ": outcomes sum to "
                   << sum.events.count(event) << ", results() holds "
                   << r.events.count(event);
    }
    const std::pair<const char *, bool> fields[] = {
        {"whClnFanout", sum.whClnFanout == r.whClnFanout},
        {"wmClnFanout", sum.wmClnFanout == r.wmClnFanout},
        {"holderGrowth12", sum.holderGrowth12 == r.holderGrowth12},
        {"displacementInvals",
         sum.displacementInvals == r.displacementInvals},
        {"replacementWriteBacks",
         sum.replacementWriteBacks == r.replacementWriteBacks},
        {"dirCacheEvictionInvals",
         sum.dirCacheEvictionInvals == r.dirCacheEvictionInvals},
        {"dirCacheEvictionWriteBacks",
         sum.dirCacheEvictionWriteBacks == r.dirCacheEvictionWriteBacks},
    };
    for (const auto &[field, equal] : fields)
        if (!equal)
            return ::testing::AssertionFailure()
                   << field << ": outcomes and results() differ";
    return ::testing::AssertionSuccess();
}

/** Capture the event an engine records for one access, adding the
 *  Outcome access() returns into @p sum. */
template <typename Engine>
Event
observe(Engine &engine, const Symbol &sym, coherence::EngineResults &sum)
{
    std::array<std::uint64_t, coherence::numEvents> before;
    for (std::size_t e = 0; e < coherence::numEvents; ++e)
        before[e] =
            engine.results().events.count(static_cast<Event>(e));
    addOutcome(sum, engine.access(sym.unit, sym.type, sym.block));
    for (std::size_t e = 0; e < coherence::numEvents; ++e) {
        if (engine.results().events.count(static_cast<Event>(e)) !=
            before[e])
            return static_cast<Event>(e);
    }
    ADD_FAILURE() << "engine recorded no event";
    return Event::Instr;
}

TEST(ModelCheck, InvalEngineExhaustiveLength6)
{
    constexpr unsigned units = 2;
    constexpr unsigned blocks = 2;
    constexpr unsigned alphabet = units * 2 * blocks; // 8
    constexpr unsigned length = 6;
    std::uint64_t total = 1;
    for (unsigned i = 0; i < length; ++i)
        total *= alphabet;

    std::vector<Symbol> syms;
    for (std::uint64_t seq = 0; seq < total; ++seq) {
        coherence::InvalEngineConfig cfg;
        cfg.nUnits = units;
        coherence::InvalEngine engine(cfg);
        SpecInval spec(units);
        syms.clear();
        coherence::EngineResults sum;
        std::uint64_t code = seq;
        for (unsigned step = 0; step < length; ++step) {
            const Symbol sym =
                decode(static_cast<unsigned>(code % alphabet), units,
                       blocks);
            code /= alphabet;
            syms.push_back(sym);
            const Event expected =
                spec.access(sym.unit, sym.type, sym.block);
            const Event got = observe(engine, sym, sum);
            ASSERT_EQ(got, expected)
                << "sequence " << seq << " step " << step << ": spec "
                << coherence::eventName(expected) << ", engine "
                << coherence::eventName(got);
        }
        ASSERT_TRUE(outcomesSumToResults(sum, engine.results()))
            << "sequence " << seq;
        const PreparedReplay prepared(
            coherence::InvalEngine(cfg), syms, units, blocks);
        ASSERT_TRUE(prepared.engine().results() == engine.results())
            << "sequence " << seq << ": prepared replay diverged";
    }
}

TEST(ModelCheck, DragonEngineExhaustiveLength6)
{
    constexpr unsigned units = 2;
    constexpr unsigned blocks = 2;
    constexpr unsigned alphabet = units * 2 * blocks;
    constexpr unsigned length = 6;
    std::uint64_t total = 1;
    for (unsigned i = 0; i < length; ++i)
        total *= alphabet;

    std::vector<Symbol> syms;
    for (std::uint64_t seq = 0; seq < total; ++seq) {
        coherence::DragonEngine engine(units);
        SpecDragon spec;
        syms.clear();
        coherence::EngineResults sum;
        std::uint64_t code = seq;
        for (unsigned step = 0; step < length; ++step) {
            const Symbol sym =
                decode(static_cast<unsigned>(code % alphabet), units,
                       blocks);
            code /= alphabet;
            syms.push_back(sym);
            const Event expected =
                spec.access(sym.unit, sym.type, sym.block);
            const Event got = observe(engine, sym, sum);
            ASSERT_EQ(got, expected)
                << "sequence " << seq << " step " << step;
        }
        ASSERT_TRUE(outcomesSumToResults(sum, engine.results()))
            << "sequence " << seq;
        const PreparedReplay prepared(
            coherence::DragonEngine(units), syms, units, blocks);
        ASSERT_TRUE(prepared.engine().results() == engine.results())
            << "sequence " << seq << ": prepared replay diverged";
    }
}

TEST(ModelCheck, InvalEngineRandomDeepSequencesThreeUnits)
{
    constexpr unsigned units = 3;
    constexpr unsigned blocks = 3;
    gen::Rng rng(0xC0FFEE);
    std::vector<Symbol> syms;
    for (int trial = 0; trial < 2'000; ++trial) {
        coherence::InvalEngineConfig cfg;
        cfg.nUnits = units;
        coherence::InvalEngine engine(cfg);
        SpecInval spec(units);
        syms.clear();
        coherence::EngineResults sum;
        for (int step = 0; step < 40; ++step) {
            Symbol sym;
            sym.unit = static_cast<unsigned>(rng.nextBelow(units));
            sym.type =
                rng.chance(0.4) ? RefType::Write : RefType::Read;
            sym.block = rng.nextBelow(blocks);
            syms.push_back(sym);
            const Event expected =
                spec.access(sym.unit, sym.type, sym.block);
            const Event got = observe(engine, sym, sum);
            ASSERT_EQ(got, expected) << "trial " << trial << " step "
                                     << step;
        }
        ASSERT_TRUE(outcomesSumToResults(sum, engine.results()))
            << "trial " << trial;
        const PreparedReplay prepared(
            coherence::InvalEngine(cfg), syms, units, blocks);
        ASSERT_TRUE(prepared.engine().results() == engine.results())
            << "trial " << trial << ": prepared replay diverged";
    }
}

TEST(ModelCheck, DragonEngineRandomDeepSequencesFourUnits)
{
    constexpr unsigned units = 4;
    constexpr unsigned blocks = 3;
    gen::Rng rng(0xBEEF);
    std::vector<Symbol> syms;
    for (int trial = 0; trial < 2'000; ++trial) {
        coherence::DragonEngine engine(units);
        SpecDragon spec;
        syms.clear();
        coherence::EngineResults sum;
        for (int step = 0; step < 40; ++step) {
            Symbol sym;
            sym.unit = static_cast<unsigned>(rng.nextBelow(units));
            sym.type =
                rng.chance(0.4) ? RefType::Write : RefType::Read;
            sym.block = rng.nextBelow(blocks);
            syms.push_back(sym);
            const Event expected =
                spec.access(sym.unit, sym.type, sym.block);
            const Event got = observe(engine, sym, sum);
            ASSERT_EQ(got, expected) << "trial " << trial << " step "
                                     << step;
        }
        ASSERT_TRUE(outcomesSumToResults(sum, engine.results()))
            << "trial " << trial;
        const PreparedReplay prepared(
            coherence::DragonEngine(units), syms, units, blocks);
        ASSERT_TRUE(prepared.engine().results() == engine.results())
            << "trial " << trial << ": prepared replay diverged";
    }
}

/** Dir1NB reference spec: at most one copy exists. */
TEST(ModelCheck, Dir1NbExhaustiveLength6)
{
    constexpr unsigned units = 2;
    constexpr unsigned blocks = 2;
    constexpr unsigned alphabet = units * 2 * blocks;
    constexpr unsigned length = 6;
    std::uint64_t total = 1;
    for (unsigned i = 0; i < length; ++i)
        total *= alphabet;

    std::vector<Symbol> syms;
    for (std::uint64_t seq = 0; seq < total; ++seq) {
        coherence::LimitedEngine engine(units, 1);
        // Literal single-copy spec.
        std::map<std::uint64_t, std::optional<unsigned>> holder;
        std::map<std::uint64_t, bool> dirty;
        std::set<std::uint64_t> referenced;

        syms.clear();
        coherence::EngineResults sum;
        std::uint64_t code = seq;
        for (unsigned step = 0; step < length; ++step) {
            const Symbol sym =
                decode(static_cast<unsigned>(code % alphabet), units,
                       blocks);
            code /= alphabet;
            syms.push_back(sym);

            Event expected;
            auto &h = holder[sym.block];
            const bool seen = referenced.count(sym.block) > 0;
            referenced.insert(sym.block);
            if (sym.type == RefType::Read) {
                if (h == sym.unit) {
                    expected = Event::RdHit;
                } else {
                    if (!seen)
                        expected = Event::RmFirstRef;
                    else if (dirty[sym.block])
                        expected = Event::RmBlkDrty;
                    else
                        expected = Event::RmBlkCln;
                    h = sym.unit;
                    dirty[sym.block] = false;
                }
            } else {
                if (h == sym.unit) {
                    expected = dirty[sym.block] ? Event::WhBlkDrty
                                                : Event::WhBlkClnExcl;
                } else if (!seen) {
                    expected = Event::WmFirstRef;
                } else {
                    expected = dirty[sym.block] ? Event::WmBlkDrty
                                                : Event::WmBlkCln;
                }
                h = sym.unit;
                dirty[sym.block] = true;
            }
            const Event got = observe(engine, sym, sum);
            ASSERT_EQ(got, expected)
                << "sequence " << seq << " step " << step;
        }
        ASSERT_TRUE(outcomesSumToResults(sum, engine.results()))
            << "sequence " << seq;
        const PreparedReplay prepared(
            coherence::LimitedEngine(units, 1), syms, units, blocks);
        ASSERT_TRUE(prepared.engine().results() == engine.results())
            << "sequence " << seq << ": prepared replay diverged";
    }
}

// --- Multi-configuration lanes ---------------------------------------

/**
 * Reference specification of the general DiriNB model, written in the
 * same literal style as the Dir1NB spec above: an ordered holder list
 * (oldest first, at most i entries), an optional dirty owner, a seen
 * set.  A read miss on a full list displaces the oldest holder; a
 * read miss to a dirty block writes back, and with i == 1 also
 * removes the ex-owner's copy; a write invalidates everyone else.
 * The displacement and 1-to-2 growth counters are tracked so the
 * engine's sharing statistics can be checked exactly, not just the
 * event classification.
 */
class SpecDirINB
{
  public:
    explicit SpecDirINB(unsigned pointers) : _pointers(pointers) {}

    Event
    access(unsigned unit, RefType type, std::uint64_t block)
    {
        auto &holders = _holders[block]; // oldest first
        auto &dirty = _dirty[block];
        const bool seen = _referenced.count(block) > 0;
        const bool holds =
            std::find(holders.begin(), holders.end(), unit) !=
            holders.end();

        if (type == RefType::Read) {
            if (holds)
                return Event::RdHit;
            _referenced.insert(block);
            Event event;
            if (!seen) {
                event = Event::RmFirstRef;
            } else if (dirty.has_value()) {
                event = Event::RmBlkDrty;
                dirty.reset();
                if (_pointers == 1)
                    holders.clear(); // the single copy moves
            } else if (!holders.empty()) {
                event = Event::RmBlkCln;
            } else {
                event = Event::RmMemory;
            }
            if (holders.size() == 1)
                ++holderGrowth12;
            if (holders.size() == _pointers) {
                holders.erase(holders.begin());
                ++displacementInvals;
            }
            holders.push_back(unit);
            return event;
        }

        // Write.
        if (holds && dirty == unit)
            return Event::WhBlkDrty;
        _referenced.insert(block);
        Event event;
        if (holds) {
            event = holders.size() == 1 ? Event::WhBlkClnExcl
                                        : Event::WhBlkClnShared;
        } else if (!seen) {
            event = Event::WmFirstRef;
        } else if (dirty.has_value()) {
            event = Event::WmBlkDrty;
        } else if (!holders.empty()) {
            event = Event::WmBlkCln;
        } else {
            event = Event::WmMemory;
        }
        holders.clear();
        holders.push_back(unit);
        dirty = unit;
        return event;
    }

    std::uint64_t holderGrowth12 = 0;
    std::uint64_t displacementInvals = 0;

  private:
    unsigned _pointers;
    std::map<std::uint64_t, std::vector<unsigned>> _holders;
    std::map<std::uint64_t, std::optional<unsigned>> _dirty;
    std::set<std::uint64_t> _referenced;
};

/** One access through the shared table; the event each lane records.
 *  The Outcome access() returns, lane 0's, goes into @p sum. */
std::vector<Event>
observeLanes(coherence::MultiLimitedEngine &multi, const Symbol &sym,
             coherence::EngineResults &sum)
{
    const std::size_t k = multi.numLanes();
    std::vector<std::array<std::uint64_t, coherence::numEvents>>
        before(k);
    for (std::size_t l = 0; l < k; ++l)
        for (std::size_t e = 0; e < coherence::numEvents; ++e)
            before[l][e] = multi.laneResults(l).events.count(
                static_cast<Event>(e));
    addOutcome(sum, multi.access(sym.unit, sym.type, sym.block));
    std::vector<Event> events(k, Event::Instr);
    for (std::size_t l = 0; l < k; ++l) {
        bool found = false;
        for (std::size_t e = 0; e < coherence::numEvents; ++e) {
            if (multi.laneResults(l).events.count(
                    static_cast<Event>(e)) != before[l][e]) {
                events[l] = static_cast<Event>(e);
                found = true;
                break;
            }
        }
        if (!found)
            ADD_FAILURE() << "lane " << l << " recorded no event";
    }
    return events;
}

/**
 * Every lane of the shared-table engine checked against its own
 * literal DiriNB spec over every length-5 sequence of 3 units × 2
 * blocks (12^5 = 248,832): per-step event equality per lane, plus
 * end-of-sequence equality of the displacement and growth counters.
 * Lanes {1, 2, 3} cover the degenerate single-copy protocol, a
 * displacing middle configuration, and a full-map-equivalent one —
 * side by side over one table, where cross-lane state bleed would be
 * a new failure mode no single-engine test can see.
 */
TEST(ModelCheckMultiConfig, LanesExhaustiveLength5)
{
    constexpr unsigned units = 3;
    constexpr unsigned blocks = 2;
    constexpr unsigned alphabet = units * 2 * blocks; // 12
    constexpr unsigned length = 5;
    const std::vector<unsigned> lanes = {1, 2, 3};
    std::uint64_t total = 1;
    for (unsigned i = 0; i < length; ++i)
        total *= alphabet;

    std::vector<Symbol> syms;
    for (std::uint64_t seq = 0; seq < total; ++seq) {
        coherence::MultiLimitedEngine multi(units, lanes);
        std::vector<SpecDirINB> specs;
        for (const unsigned p : lanes)
            specs.emplace_back(p);
        syms.clear();
        coherence::EngineResults sum;
        std::uint64_t code = seq;
        for (unsigned step = 0; step < length; ++step) {
            const Symbol sym =
                decode(static_cast<unsigned>(code % alphabet), units,
                       blocks);
            code /= alphabet;
            syms.push_back(sym);
            const std::vector<Event> got = observeLanes(multi, sym, sum);
            for (std::size_t l = 0; l < specs.size(); ++l) {
                const Event expected =
                    specs[l].access(sym.unit, sym.type, sym.block);
                ASSERT_EQ(got[l], expected)
                    << "sequence " << seq << " step " << step
                    << " lane dir" << lanes[l] << "nb: spec "
                    << coherence::eventName(expected) << ", engine "
                    << coherence::eventName(got[l]);
            }
        }
        for (std::size_t l = 0; l < specs.size(); ++l) {
            const coherence::EngineResults &r = multi.laneResults(l);
            ASSERT_EQ(r.displacementInvals,
                      specs[l].displacementInvals)
                << "sequence " << seq << " lane dir" << lanes[l]
                << "nb";
            ASSERT_EQ(r.holderGrowth12, specs[l].holderGrowth12)
                << "sequence " << seq << " lane dir" << lanes[l]
                << "nb";
        }
        ASSERT_TRUE(outcomesSumToResults(sum, multi.results()))
            << "sequence " << seq;
        const PreparedReplay prepared(
            coherence::MultiLimitedEngine(units, lanes), syms, units, blocks);
        for (std::size_t l = 0; l < lanes.size(); ++l)
            ASSERT_TRUE(prepared.engine().laneResults(l) ==
                        multi.laneResults(l))
                << "sequence " << seq << " lane dir" << lanes[l]
                << "nb: prepared replay diverged";
    }
}

// --- Finite directory caches -----------------------------------------

/**
 * Reference specification of the inval model with a tiny finite
 * directory cache in front of the directory: a 2-entry, literal-LRU
 * list of blocks with resident entries.  Every directory transaction
 * (anything but a pure RdHit / WhBlkDrty) touches the list; filling
 * it past capacity drops the least-recently-consulted entry, and
 * coherence demands the victim's copies die with it — holders
 * cleared, a dirty owner written back first.  The spec also counts
 * the eviction traffic so the engine's conservation counters can be
 * checked exactly.
 */
class SpecInvalDirCache
{
  public:
    static constexpr unsigned capacity = 2;

    Event
    access(unsigned unit, RefType type, std::uint64_t block)
    {
        auto &holders = _holders[block];
        auto &dirty = _dirty[block];
        const bool seen = _referenced.count(block) > 0;

        // Pure cache hits never reach the directory.
        if (type == RefType::Read && holders.count(unit))
            return Event::RdHit;
        if (type == RefType::Write && holders.count(unit) &&
            dirty == unit)
            return Event::WhBlkDrty;

        touchCache(block);
        _referenced.insert(block);

        if (type == RefType::Read) {
            Event event;
            if (!seen) {
                event = Event::RmFirstRef;
            } else if (dirty.has_value()) {
                event = Event::RmBlkDrty;
                dirty.reset();
            } else if (!holders.empty()) {
                event = Event::RmBlkCln;
            } else {
                event = Event::RmMemory;
            }
            holders.insert(unit);
            return event;
        }

        Event event;
        if (holders.count(unit)) {
            event = holders.size() == 1 ? Event::WhBlkClnExcl
                                        : Event::WhBlkClnShared;
        } else if (!seen) {
            event = Event::WmFirstRef;
        } else if (dirty.has_value()) {
            event = Event::WmBlkDrty;
        } else if (!holders.empty()) {
            event = Event::WmBlkCln;
        } else {
            event = Event::WmMemory;
        }
        holders.clear();
        holders.insert(unit);
        dirty = unit;
        return event;
    }

    const std::set<unsigned> &holders(std::uint64_t block)
    {
        return _holders[block];
    }
    const std::optional<unsigned> &dirtyOwner(std::uint64_t block)
    {
        return _dirty[block];
    }

    std::uint64_t evictions = 0;
    std::uint64_t evictionInvals = 0;
    std::uint64_t evictionWriteBacks = 0;

  private:
    void
    touchCache(std::uint64_t block)
    {
        for (auto it = _lru.begin(); it != _lru.end(); ++it) {
            if (*it == block) { // hit: refresh to MRU
                _lru.erase(it);
                _lru.insert(_lru.begin(), block);
                return;
            }
        }
        if (_lru.size() == capacity) { // full: evict the LRU entry
            const std::uint64_t victim = _lru.back();
            _lru.pop_back();
            ++evictions;
            evictionInvals += _holders[victim].size();
            if (_dirty[victim].has_value()) {
                ++evictionWriteBacks;
                _dirty[victim].reset();
            }
            _holders[victim].clear();
        }
        _lru.insert(_lru.begin(), block);
    }

    std::vector<std::uint64_t> _lru; //!< MRU first, size <= capacity.
    std::map<std::uint64_t, std::set<unsigned>> _holders;
    std::map<std::uint64_t, std::optional<unsigned>> _dirty;
    std::set<std::uint64_t> _referenced;
};

coherence::InvalEngine
invalWithTinyDirCache(unsigned units)
{
    coherence::InvalEngineConfig cfg;
    cfg.nUnits = units;
    cfg.dirCache.enabled = true;
    cfg.dirCache.entries = SpecInvalDirCache::capacity;
    cfg.dirCache.associativity = SpecInvalDirCache::capacity;
    return coherence::InvalEngine(cfg);
}

/**
 * The distilled eviction-coherence scenario: a 2-entry directory
 * cache, 2 CPUs, 3 blocks.  Consulting the directory for blocks 1
 * and 2 evicts block 0's entry, which must kill cpu 0's cached copy
 * — its next read of block 0 must miss (to memory: the entry died
 * clean with no other sharers), never hit stale data.
 */
TEST(ModelCheckDirCache, NoStaleReadAfterEviction)
{
    auto engine = invalWithTinyDirCache(2);
    coherence::EngineResults sum;
    Symbol s0{0, RefType::Read, 0};
    EXPECT_EQ(observe(engine, s0, sum), Event::RmFirstRef);
    EXPECT_EQ(observe(engine, s0, sum), Event::RdHit);

    Symbol s1{1, RefType::Read, 1};
    EXPECT_EQ(observe(engine, s1, sum), Event::RmFirstRef);
    Symbol s2{1, RefType::Read, 2}; // evicts block 0's entry
    EXPECT_EQ(observe(engine, s2, sum), Event::RmFirstRef);
    EXPECT_EQ(engine.results().dirCacheEvictions, 1u);
    EXPECT_EQ(engine.results().dirCacheEvictionInvals, 1u);
    EXPECT_EQ(engine.holders(0), 0u) << "stale copy survived eviction";

    // The re-read is a miss serviced from memory, not a stale RdHit.
    EXPECT_EQ(observe(engine, s0, sum), Event::RmMemory);

    // Dirty variant: a written block's eviction must write back.
    auto dirtyEngine = invalWithTinyDirCache(2);
    coherence::EngineResults dirtySum;
    Symbol w0{0, RefType::Write, 0};
    EXPECT_EQ(observe(dirtyEngine, w0, dirtySum), Event::WmFirstRef);
    EXPECT_EQ(observe(dirtyEngine, s1, dirtySum), Event::RmFirstRef);
    EXPECT_EQ(observe(dirtyEngine, s2, dirtySum), Event::RmFirstRef);
    EXPECT_EQ(dirtyEngine.results().dirCacheEvictionWriteBacks, 1u);
    EXPECT_EQ(dirtyEngine.dirtyOwner(0), -1);
    EXPECT_EQ(observe(dirtyEngine, s0, dirtySum), Event::RmMemory);

    EXPECT_TRUE(outcomesSumToResults(sum, engine.results()));
    EXPECT_TRUE(outcomesSumToResults(dirtySum, dirtyEngine.results()));
}

/**
 * Exhaustive check of the inval engine behind a 2-entry directory
 * cache: 2 units × 3 blocks (so the third block forces evictions),
 * every length-5 sequence (12^5 = 248,832), asserting per-step event
 * equality, per-step holder/owner state equality for every block
 * (i.e. eviction invalidation is neither missed nor overshot), and
 * end-of-sequence conservation of the eviction counters.
 */
TEST(ModelCheckDirCache, InvalEngineExhaustiveLength5)
{
    constexpr unsigned units = 2;
    constexpr unsigned blocks = 3;
    constexpr unsigned alphabet = units * 2 * blocks; // 12
    constexpr unsigned length = 5;
    std::uint64_t total = 1;
    for (unsigned i = 0; i < length; ++i)
        total *= alphabet;

    std::vector<Symbol> syms;
    for (std::uint64_t seq = 0; seq < total; ++seq) {
        auto engine = invalWithTinyDirCache(units);
        SpecInvalDirCache spec;
        syms.clear();
        coherence::EngineResults sum;
        std::uint64_t code = seq;
        for (unsigned step = 0; step < length; ++step) {
            const Symbol sym =
                decode(static_cast<unsigned>(code % alphabet), units,
                       blocks);
            code /= alphabet;
            syms.push_back(sym);
            const Event expected =
                spec.access(sym.unit, sym.type, sym.block);
            const Event got = observe(engine, sym, sum);
            ASSERT_EQ(got, expected)
                << "sequence " << seq << " step " << step << ": spec "
                << coherence::eventName(expected) << ", engine "
                << coherence::eventName(got);

            // Full sharing-state equality across every block.
            for (std::uint64_t b = 0; b < blocks; ++b) {
                std::uint64_t mask = 0;
                for (const unsigned u : spec.holders(b))
                    mask |= 1ULL << u;
                ASSERT_EQ(engine.holders(b), mask)
                    << "sequence " << seq << " step " << step
                    << " block " << b;
                const int owner = spec.dirtyOwner(b).has_value()
                                      ? static_cast<int>(
                                            *spec.dirtyOwner(b))
                                      : -1;
                ASSERT_EQ(engine.dirtyOwner(b), owner)
                    << "sequence " << seq << " step " << step
                    << " block " << b;
            }
        }
        // Eviction-traffic conservation.
        const coherence::EngineResults &r = engine.results();
        ASSERT_EQ(r.dirCacheEvictions, spec.evictions)
            << "sequence " << seq;
        ASSERT_EQ(r.dirCacheEvictionInvals, spec.evictionInvals)
            << "sequence " << seq;
        ASSERT_EQ(r.dirCacheEvictionWriteBacks,
                  spec.evictionWriteBacks)
            << "sequence " << seq;
        ASSERT_TRUE(outcomesSumToResults(sum, engine.results()))
            << "sequence " << seq;
        const PreparedReplay prepared(
            invalWithTinyDirCache(units), syms, units, blocks);
        ASSERT_TRUE(prepared.engine().results() == r)
            << "sequence " << seq << ": prepared replay diverged";
    }
}

/** Deeper random sequences at 3 units × 4 blocks: the cache churns
 *  constantly, so eviction paths dominate. */
TEST(ModelCheckDirCache, InvalEngineRandomDeepSequencesThreeUnits)
{
    constexpr unsigned units = 3;
    constexpr unsigned blocks = 4;
    gen::Rng rng(0xD1CACE);
    std::vector<Symbol> syms;
    for (int trial = 0; trial < 2'000; ++trial) {
        auto engine = invalWithTinyDirCache(units);
        SpecInvalDirCache spec;
        syms.clear();
        coherence::EngineResults sum;
        for (int step = 0; step < 60; ++step) {
            Symbol sym;
            sym.unit = static_cast<unsigned>(rng.nextBelow(units));
            sym.type =
                rng.chance(0.4) ? RefType::Write : RefType::Read;
            sym.block = rng.nextBelow(blocks);
            syms.push_back(sym);
            const Event expected =
                spec.access(sym.unit, sym.type, sym.block);
            const Event got = observe(engine, sym, sum);
            ASSERT_EQ(got, expected) << "trial " << trial << " step "
                                     << step;
        }
        const coherence::EngineResults &r = engine.results();
        ASSERT_GT(r.dirCacheEvictions, 0u) << "trial " << trial;
        ASSERT_EQ(r.dirCacheEvictions, spec.evictions)
            << "trial " << trial;
        ASSERT_EQ(r.dirCacheEvictionInvals, spec.evictionInvals)
            << "trial " << trial;
        ASSERT_EQ(r.dirCacheEvictionWriteBacks,
                  spec.evictionWriteBacks)
            << "trial " << trial;
        ASSERT_TRUE(outcomesSumToResults(sum, engine.results()))
            << "trial " << trial;
        const PreparedReplay prepared(
            invalWithTinyDirCache(units), syms, units, blocks);
        ASSERT_TRUE(prepared.engine().results() == r)
            << "trial " << trial << ": prepared replay diverged";
    }
}

/**
 * The limited (Dir1NB) engine behind the same 2-entry cache, checked
 * exhaustively with a literal single-copy spec extended with the LRU
 * list.  After an eviction the sole copy is gone, so a re-reference
 * goes to memory — a state plain Dir1NB can never reach.
 */
TEST(ModelCheckDirCache, Dir1NbExhaustiveLength5)
{
    constexpr unsigned units = 2;
    constexpr unsigned blocks = 3;
    constexpr unsigned alphabet = units * 2 * blocks;
    constexpr unsigned length = 5;
    constexpr unsigned capacity = 2;
    std::uint64_t total = 1;
    for (unsigned i = 0; i < length; ++i)
        total *= alphabet;

    directory::DirCacheConfig dc;
    dc.enabled = true;
    dc.entries = capacity;
    dc.associativity = capacity;

    std::vector<Symbol> syms;
    for (std::uint64_t seq = 0; seq < total; ++seq) {
        coherence::LimitedEngine engine(units, 1, dc);
        std::map<std::uint64_t, std::optional<unsigned>> holder;
        std::map<std::uint64_t, bool> dirty;
        std::set<std::uint64_t> referenced;
        std::vector<std::uint64_t> lru; // MRU first
        std::uint64_t evictions = 0, invals = 0, writeBacks = 0;

        const auto touchCache = [&](std::uint64_t block) {
            for (auto it = lru.begin(); it != lru.end(); ++it) {
                if (*it == block) {
                    lru.erase(it);
                    lru.insert(lru.begin(), block);
                    return;
                }
            }
            if (lru.size() == capacity) {
                const std::uint64_t victim = lru.back();
                lru.pop_back();
                ++evictions;
                if (holder[victim].has_value())
                    ++invals;
                if (dirty[victim])
                    ++writeBacks;
                holder[victim].reset();
                dirty[victim] = false;
            }
            lru.insert(lru.begin(), block);
        };

        syms.clear();
        coherence::EngineResults sum;
        std::uint64_t code = seq;
        for (unsigned step = 0; step < length; ++step) {
            const Symbol sym =
                decode(static_cast<unsigned>(code % alphabet), units,
                       blocks);
            code /= alphabet;
            syms.push_back(sym);

            Event expected;
            auto &h = holder[sym.block];
            const bool seen = referenced.count(sym.block) > 0;
            if (sym.type == RefType::Read && h == sym.unit) {
                expected = Event::RdHit;
            } else if (sym.type == RefType::Write && h == sym.unit &&
                       dirty[sym.block]) {
                expected = Event::WhBlkDrty;
            } else {
                touchCache(sym.block);
                referenced.insert(sym.block);
                if (sym.type == RefType::Read) {
                    if (!seen)
                        expected = Event::RmFirstRef;
                    else if (dirty[sym.block])
                        expected = Event::RmBlkDrty;
                    else if (h.has_value())
                        expected = Event::RmBlkCln;
                    else
                        expected = Event::RmMemory;
                    h = sym.unit;
                    dirty[sym.block] = false;
                } else {
                    if (h == sym.unit) {
                        expected = Event::WhBlkClnExcl;
                    } else if (!seen) {
                        expected = Event::WmFirstRef;
                    } else if (dirty[sym.block]) {
                        expected = Event::WmBlkDrty;
                    } else if (h.has_value()) {
                        expected = Event::WmBlkCln;
                    } else {
                        expected = Event::WmMemory;
                    }
                    h = sym.unit;
                    dirty[sym.block] = true;
                }
            }
            const Event got = observe(engine, sym, sum);
            ASSERT_EQ(got, expected)
                << "sequence " << seq << " step " << step << ": spec "
                << coherence::eventName(expected) << ", engine "
                << coherence::eventName(got);
        }
        const coherence::EngineResults &r = engine.results();
        ASSERT_EQ(r.dirCacheEvictions, evictions) << "sequence " << seq;
        ASSERT_EQ(r.dirCacheEvictionInvals, invals)
            << "sequence " << seq;
        ASSERT_EQ(r.dirCacheEvictionWriteBacks, writeBacks)
            << "sequence " << seq;
        ASSERT_TRUE(outcomesSumToResults(sum, engine.results()))
            << "sequence " << seq;
        const PreparedReplay prepared(
            coherence::LimitedEngine(units, 1, dc), syms, units, blocks);
        ASSERT_TRUE(prepared.engine().results() == r)
            << "sequence " << seq << ": prepared replay diverged";
    }
}

// --- Finite caches ------------------------------------------------------

/**
 * Reference specification of the inval engine with a finite LRU cache
 * per unit: SpecInval's state model plus, for each unit and set, a
 * literal MRU-first list of the blocks that unit's cache holds.  A
 * unit holds a copy exactly when its list does.  A fill into a full
 * set drops the list's last block, and with it that unit's copy, and
 * writes it back when the copy was the dirty one.  An invalidation
 * erases the block from the list; a hit moves it to the front.
 */
class SpecInvalFinite
{
  public:
    SpecInvalFinite(unsigned sets, unsigned ways)
        : _sets(sets), _ways(ways)
    {
    }

    Event
    access(unsigned unit, RefType type, std::uint64_t block)
    {
        auto &holders = _holders[block];
        auto &dirty = _dirty[block];
        const bool seen = _referenced.count(block) > 0;
        _referenced.insert(block);

        if (type == RefType::Read) {
            if (holders.count(unit)) {
                moveToFront(unit, block);
                return Event::RdHit;
            }
            Event event;
            if (!seen) {
                event = Event::RmFirstRef;
            } else if (dirty.has_value()) {
                event = Event::RmBlkDrty;
                dirty.reset(); // flushed; ex-owner keeps a clean copy
            } else if (!holders.empty()) {
                event = Event::RmBlkCln;
            } else {
                event = Event::RmMemory;
            }
            holders.insert(unit);
            fill(unit, block);
            return event;
        }

        if (holders.count(unit) && dirty == unit) {
            moveToFront(unit, block);
            return Event::WhBlkDrty;
        }
        Event event;
        const bool hit = holders.count(unit) > 0;
        if (hit) {
            event = holders.size() == 1 ? Event::WhBlkClnExcl
                                        : Event::WhBlkClnShared;
        } else if (!seen) {
            event = Event::WmFirstRef;
        } else if (dirty.has_value()) {
            event = Event::WmBlkDrty;
        } else if (!holders.empty()) {
            event = Event::WmBlkCln;
        } else {
            event = Event::WmMemory;
        }
        for (const unsigned other : holders) {
            if (other != unit)
                erase(other, block);
        }
        if (hit)
            moveToFront(unit, block);
        else
            fill(unit, block);
        holders = {unit};
        dirty = unit;
        return event;
    }

    const std::set<unsigned> &holders(std::uint64_t block)
    {
        return _holders[block];
    }
    const std::optional<unsigned> &dirtyOwner(std::uint64_t block)
    {
        return _dirty[block];
    }

    std::uint64_t evictions = 0;
    std::uint64_t writeBacks = 0;

  private:
    std::vector<std::uint64_t> &
    lru(unsigned unit, std::uint64_t block)
    {
        return _lru[{unit, block % _sets}];
    }

    void
    erase(unsigned unit, std::uint64_t block)
    {
        auto &list = lru(unit, block);
        list.erase(std::find(list.begin(), list.end(), block));
    }

    void
    moveToFront(unsigned unit, std::uint64_t block)
    {
        erase(unit, block);
        auto &list = lru(unit, block);
        list.insert(list.begin(), block);
    }

    void
    fill(unsigned unit, std::uint64_t block)
    {
        auto &list = lru(unit, block);
        if (list.size() == _ways) { // full: the LRU block leaves
            const std::uint64_t victim = list.back();
            list.pop_back();
            ++evictions;
            _holders[victim].erase(unit);
            if (_dirty[victim] == unit) {
                ++writeBacks;
                _dirty[victim].reset();
            }
        }
        list.insert(list.begin(), block);
    }

    unsigned _sets;
    unsigned _ways;
    /** MRU first, per (unit, set). */
    std::map<std::pair<unsigned, std::uint64_t>, std::vector<std::uint64_t>>
        _lru;
    std::map<std::uint64_t, std::set<unsigned>> _holders;
    std::map<std::uint64_t, std::optional<unsigned>> _dirty;
    std::set<std::uint64_t> _referenced;
};

/** An inval engine whose per-unit caches have @p sets sets of
 *  @p ways 16-byte blocks, indexed by the block's low bits. */
coherence::InvalEngine
invalWithFiniteCaches(unsigned units, unsigned sets, unsigned ways)
{
    coherence::InvalEngineConfig cfg;
    cfg.nUnits = units;
    cfg.finiteCaches = mem::CacheGeometry{sets * ways * 16, 16, ways};
    return coherence::InvalEngine(cfg);
}

/** Whether @p engine's holder mask and dirty owner of every block in
 *  [0, @p blocks) equal @p spec's. */
::testing::AssertionResult
sameSharingState(const coherence::InvalEngine &engine,
                 SpecInvalFinite &spec, unsigned blocks)
{
    for (std::uint64_t b = 0; b < blocks; ++b) {
        std::uint64_t mask = 0;
        for (const unsigned u : spec.holders(b))
            mask |= 1ULL << u;
        if (engine.holders(b) != mask)
            return ::testing::AssertionFailure()
                   << "block " << b << ": holders " << engine.holders(b)
                   << ", spec " << mask;
        const int owner = spec.dirtyOwner(b).has_value()
                              ? static_cast<int>(*spec.dirtyOwner(b))
                              : -1;
        if (engine.dirtyOwner(b) != owner)
            return ::testing::AssertionFailure()
                   << "block " << b << ": dirty owner "
                   << engine.dirtyOwner(b) << ", spec " << owner;
    }
    return ::testing::AssertionSuccess();
}

/**
 * Exhaustive check of the inval engine with a 1-set, 2-way cache per
 * unit: 2 units × 3 blocks, so the third block in one cache forces a
 * replacement, over every length-5 sequence (12^5 = 248,832).  Each
 * step compares the event, the holder masks and the dirty owners;
 * each sequence ends comparing the replacement counters, then the
 * prepared replay.
 */
TEST(ModelCheckFiniteCache, InvalEngineExhaustiveLength5)
{
    constexpr unsigned units = 2;
    constexpr unsigned blocks = 3;
    constexpr unsigned sets = 1;
    constexpr unsigned ways = 2;
    constexpr unsigned alphabet = units * 2 * blocks; // 12
    constexpr unsigned length = 5;
    std::uint64_t total = 1;
    for (unsigned i = 0; i < length; ++i)
        total *= alphabet;

    std::vector<Symbol> syms;
    std::uint64_t evictions = 0;
    for (std::uint64_t seq = 0; seq < total; ++seq) {
        auto engine = invalWithFiniteCaches(units, sets, ways);
        SpecInvalFinite spec(sets, ways);
        syms.clear();
        coherence::EngineResults sum;
        std::uint64_t code = seq;
        for (unsigned step = 0; step < length; ++step) {
            const Symbol sym =
                decode(static_cast<unsigned>(code % alphabet), units,
                       blocks);
            code /= alphabet;
            syms.push_back(sym);
            const Event expected =
                spec.access(sym.unit, sym.type, sym.block);
            const Event got = observe(engine, sym, sum);
            ASSERT_EQ(got, expected)
                << "sequence " << seq << " step " << step << ": spec "
                << coherence::eventName(expected) << ", engine "
                << coherence::eventName(got);
            ASSERT_TRUE(sameSharingState(engine, spec, blocks))
                << "sequence " << seq << " step " << step;
        }
        const coherence::EngineResults &r = engine.results();
        ASSERT_EQ(r.replacementEvictions, spec.evictions)
            << "sequence " << seq;
        ASSERT_EQ(r.replacementWriteBacks, spec.writeBacks)
            << "sequence " << seq;
        evictions += spec.evictions;
        ASSERT_TRUE(outcomesSumToResults(sum, r)) << "sequence " << seq;
        const PreparedReplay prepared(
            invalWithFiniteCaches(units, sets, ways), syms, units,
            blocks);
        ASSERT_TRUE(prepared.engine().results() == r)
            << "sequence " << seq << ": prepared replay diverged";
    }
    EXPECT_GT(evictions, 0u);
}

/** Seeded deep walks on 3 and 4 units with 2 sets × 2 ways and 6
 *  blocks: every set of every cache overflows, so fills, refreshes,
 *  invalidations and dirty replacements interleave. */
TEST(ModelCheckFiniteCache, InvalEngineRandomDeepSequences)
{
    constexpr unsigned blocks = 6;
    constexpr unsigned sets = 2;
    constexpr unsigned ways = 2;
    gen::Rng rng(0xF1A17E);
    std::vector<Symbol> syms;
    for (const unsigned units : {3u, 4u}) {
        for (int trial = 0; trial < 1'000; ++trial) {
            auto engine = invalWithFiniteCaches(units, sets, ways);
            SpecInvalFinite spec(sets, ways);
            syms.clear();
            coherence::EngineResults sum;
            for (int step = 0; step < 80; ++step) {
                Symbol sym;
                sym.unit = static_cast<unsigned>(rng.nextBelow(units));
                sym.type =
                    rng.chance(0.3) ? RefType::Write : RefType::Read;
                sym.block = rng.nextBelow(blocks);
                syms.push_back(sym);
                const Event expected =
                    spec.access(sym.unit, sym.type, sym.block);
                const Event got = observe(engine, sym, sum);
                ASSERT_EQ(got, expected) << units << " units, trial "
                                         << trial << " step " << step;
                ASSERT_TRUE(sameSharingState(engine, spec, blocks))
                    << units << " units, trial " << trial << " step "
                    << step;
            }
            const coherence::EngineResults &r = engine.results();
            ASSERT_GT(r.replacementEvictions, 0u) << "trial " << trial;
            ASSERT_EQ(r.replacementEvictions, spec.evictions)
                << "trial " << trial;
            ASSERT_EQ(r.replacementWriteBacks, spec.writeBacks)
                << "trial " << trial;
            ASSERT_TRUE(outcomesSumToResults(sum, r)) << "trial " << trial;
            const PreparedReplay prepared(
                invalWithFiniteCaches(units, sets, ways), syms, units,
                blocks);
            ASSERT_TRUE(prepared.engine().results() == r)
                << "trial " << trial << ": prepared replay diverged";
        }
    }
}

} // namespace
