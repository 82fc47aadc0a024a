/**
 * @file
 * Reproductions of the paper's tables and figures.
 *
 * Each function computes one exhibit from evaluation results and (for
 * text output) renders it as a TextTable whose rows mirror the
 * published layout.  Numeric accessors are exposed so tests can assert
 * on the reproduced shapes (orderings, ratios, crossovers) rather than
 * on rendered text.
 */

#ifndef DIRSIM_ANALYSIS_EXHIBITS_HH
#define DIRSIM_ANALYSIS_EXHIBITS_HH

#include <utility>
#include <vector>

#include "analysis/evaluation.hh"
#include "sim/cost_model.hh"
#include "stats/histogram.hh"
#include "stats/table.hh"

namespace dirsim::analysis
{

/** The four protocols of the paper's main comparison, in its order. */
enum class PaperScheme
{
    Dir1NB,
    WTI,
    Dir0B,
    Dragon,
};

/** All four, in paper order. */
const std::vector<PaperScheme> &paperSchemes();

/** Engine results the scheme is costed from. */
const coherence::EngineResults &resultsFor(PaperScheme scheme,
                                           const TraceEvaluation &te);
/** Cost-model scheme id. */
sim::Scheme simSchemeFor(PaperScheme scheme);
/** Display name. */
std::string paperSchemeName(PaperScheme scheme);

/** Pipelined and non-pipelined costs for one scheme (Figure 2 bar). */
struct SchemeCost
{
    std::string name;
    sim::CostBreakdown pipelined;
    sim::CostBreakdown nonPipelined;
};

/** Costs of all four schemes for one trace (or the average). */
std::vector<SchemeCost> schemeCosts(const TraceEvaluation &te,
                                    double overheadQ = 0.0);

/** Table 1: fundamental bus-operation timings. */
stats::TextTable table1();
/** Table 2: per-event bus-cycle costs for both buses. */
stats::TextTable table2();
/** Table 3: trace characteristics. */
stats::TextTable
table3(const std::vector<trace::TraceCharacteristics> &chars);
/** Table 4: event frequencies as percentages of all references. */
stats::TextTable table4(const Evaluation &eval);

/** Figure 1 data: invalidation-fanout histogram at clean writes. */
struct Figure1
{
    stats::Histogram fanout;
    /** Fraction of clean-block writes invalidating <= 1 cache. */
    double fracAtMostOne = 0.0;
};
Figure1 figure1(const Evaluation &eval);
stats::TextTable renderFigure1(const Figure1 &fig, unsigned nCaches);

/** Figure 2: bus cycles/ref per scheme, both buses, trace average. */
stats::TextTable figure2(const Evaluation &eval);
/** Figure 3: as Figure 2 but per individual trace. */
stats::TextTable figure3(const Evaluation &eval);
/** Table 5: breakdown by operation class, pipelined bus. */
stats::TextTable table5(const Evaluation &eval);
/** Figure 4: breakdown as fractions of each scheme's total. */
stats::TextTable figure4(const Evaluation &eval);
/** Figure 5: average bus cycles per bus transaction. */
stats::TextTable figure5(const Evaluation &eval);

/** Section 5.1: cost with q overhead cycles per transaction. */
stats::TextTable section51(const Evaluation &eval,
                           const std::vector<double> &qValues);

/** Section 5.2: spin-lock sensitivity (lock tests kept vs dropped). */
stats::TextTable section52(const Evaluation &withLocks,
                           const Evaluation &withoutLocks);

/** Section 6 scalability analytics. */
struct Section6
{
    double dir0b = 0.0;     //!< Broadcast invalidates (baseline).
    double dirnnbSeq = 0.0; //!< Full map, sequential invalidates.
    double berkeley = 0.0;  //!< Berkeley Ownership estimate.
    double yenfu = 0.0;     //!< Yen-Fu single-bit refinement.
    /** Dir1B linear model: cycles/ref = dir1bBase + dir1bCoef * b. */
    double dir1bBase = 0.0;
    double dir1bCoef = 0.0;
    /** DiriB totals for i = 1..4 at the given broadcast cost. */
    std::vector<std::pair<unsigned, double>> diribTotals;
};
Section6 section6(const Evaluation &eval, double broadcastCost = 8.0);
stats::TextTable renderSection6(const Section6 &sec,
                                double broadcastCost);

/**
 * Section 5 aside: the Berkeley Ownership estimate (Dir0B event
 * frequencies with a free directory probe) against the real
 * ownership engine @p berkeleyOwn (from berkeleyResults()), MESI,
 * Yen-Fu and Dragon, on both buses.
 */
stats::TextTable
section5Berkeley(const Evaluation &eval,
                 const coherence::EngineResults &berkeleyOwn);

/** Section 6: directory storage bits per memory block, one column
 *  per cache count. */
stats::TextTable
section6Storage(const std::vector<unsigned> &cacheCounts);

/** DiriNB sweep rendering (misses vs pointer count). */
stats::TextTable
limitedSweepTable(const std::vector<coherence::EngineResults> &sweep,
                  const std::vector<unsigned> &pointerCounts);

} // namespace dirsim::analysis

#endif // DIRSIM_ANALYSIS_EXHIBITS_HH
