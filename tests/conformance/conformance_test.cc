/**
 * @file
 * Conformance-suite tests: semantic spot checks of the hand-written
 * Px86 litmus results, --jobs byte-determinism of the divergence
 * report, and a golden byte-comparison against the committed report
 * (tests/conformance/golden/conformance_report.txt, located via the
 * PERSIM_CONFORMANCE_GOLDEN environment variable).
 *
 * The spot checks pin the two disagreements the subsystem exists to
 * document — epoch-vs-sfence and clflushopt-reordering/coalescing —
 * as directional set-membership assertions, so an engine change that
 * silently weakens either shows up as a named failure here, not just
 * as a golden diff.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "conformance/litmus.hh"

namespace persim {
namespace {

const std::vector<LitmusResult> &
handwrittenResults()
{
    static const std::vector<LitmusResult> results =
        runConformanceSuite(handwrittenLitmusTests());
    return results;
}

const LitmusResult &
findResult(const std::vector<LitmusResult> &results,
           const std::string &name)
{
    for (const LitmusResult &result : results)
        if (result.name == name)
            return result;
    ADD_FAILURE() << "no litmus result named " << name;
    static const LitmusResult empty;
    return empty;
}

const ModelStates &
findModel(const LitmusResult &result, const std::string &model)
{
    for (const ModelStates &states : result.models)
        if (states.model == model)
            return states;
    ADD_FAILURE() << "no model " << model << " in " << result.name;
    static const ModelStates empty;
    return empty;
}

bool
hasState(const ModelStates &states, const std::string &state)
{
    return std::find(states.states.begin(), states.states.end(),
                     state) != states.states.end();
}

TEST(Conformance, SuiteShapeAndBudget)
{
    const std::vector<LitmusResult> &results = handwrittenResults();
    ASSERT_GE(results.size(), 8u); // ISSUE floor for hand-written tests
    for (const LitmusResult &result : results) {
        EXPECT_GE(result.schedules, 1u) << result.name;
        ASSERT_EQ(result.models.size(), conformanceModels().size())
            << result.name;
        for (const ModelStates &states : result.models) {
            EXPECT_FALSE(states.budget_exhausted)
                << result.name << "/" << states.model;
            EXPECT_TRUE(std::is_sorted(states.states.begin(),
                                       states.states.end()))
                << result.name << "/" << states.model;
            // The all-zero initial state is always a reachable cut.
            EXPECT_FALSE(states.states.empty())
                << result.name << "/" << states.model;
        }
    }
}

// The headline disagreement: sfence alone persists nothing under
// px86, while the epoch reading of sfence acts as a persist barrier
// that orders (and eventually persists) the surrounding stores.
TEST(Conformance, EpochVsSfenceDivergence)
{
    const LitmusResult &result =
        findResult(handwrittenResults(), "epoch_vs_sfence");
    const ModelStates &px86 = findModel(result, "px86");
    const ModelStates &epoch = findModel(result, "epoch-a64");

    // Under px86 only y (flushed+fenced) can be durable; x never is.
    EXPECT_TRUE(hasState(px86, "x=0 y=1"));
    EXPECT_FALSE(hasState(px86, "x=1 y=0"));
    EXPECT_FALSE(hasState(px86, "x=1 y=1"));

    // Epoch persists x at the store and orders it before y.
    EXPECT_FALSE(hasState(epoch, "x=0 y=1"));
    EXPECT_TRUE(hasState(epoch, "x=1 y=1"));
}

// clflush orders before younger stores: y-without-x is forbidden
// under px86 but reachable under barrier-free epoch persistency.
TEST(Conformance, ClflushOrdersYoungerStores)
{
    const LitmusResult &result =
        findResult(handwrittenResults(), "clflush_chain");
    EXPECT_FALSE(hasState(findModel(result, "px86"), "x=0 y=1"));
    EXPECT_TRUE(hasState(findModel(result, "epoch-a64"), "x=0 y=1"));
}

// The clflushopt-reordering side of the same coin: a younger clflush
// may overtake an older unfenced clflushopt, so px86 agrees with
// epoch here and both diverge from strict.
TEST(Conformance, ClflushoptMayBeOvertaken)
{
    const LitmusResult &result =
        findResult(handwrittenResults(), "clflushopt_overtaken");
    EXPECT_TRUE(hasState(findModel(result, "px86"), "x=0 y=1"));
    EXPECT_TRUE(hasState(findModel(result, "epoch-a64"), "x=0 y=1"));
    EXPECT_FALSE(hasState(findModel(result, "strict-a64"), "x=0 y=1"));
}

// Coalescing disagreement: flushing a line between two stores to it
// exposes the intermediate per-line state that epoch's 64-byte
// same-block coalescing hides.
TEST(Conformance, FlushExposesIntermediateLineState)
{
    const LitmusResult &result =
        findResult(handwrittenResults(), "same_line_two_flushes");
    EXPECT_TRUE(hasState(findModel(result, "px86"), "a=1 b=0"));
    EXPECT_FALSE(hasState(findModel(result, "epoch-a64"), "a=1 b=0"));
}

// An unflushed store is never durable under px86.
TEST(Conformance, UnflushedStoreNeverDurable)
{
    const LitmusResult &result =
        findResult(handwrittenResults(), "store_no_flush");
    const ModelStates &px86 = findModel(result, "px86");
    EXPECT_EQ(px86.states, std::vector<std::string>{"x=0"});
    EXPECT_TRUE(hasState(findModel(result, "epoch-a64"), "x=1"));
}

// Durable-before-visible: the consumer inherits the producer's
// clflush through the volatile flag it reads, so px86 is STRONGER
// than barrier-free epoch on the message-passing idiom.
TEST(Conformance, DurableBeforeVisiblePropagation)
{
    const LitmusResult &result =
        findResult(handwrittenResults(), "message_passing_flush");
    EXPECT_FALSE(hasState(findModel(result, "px86"), "x=0 y=1"));
    EXPECT_TRUE(hasState(findModel(result, "epoch-a64"), "x=0 y=1"));
}

// mfence/sfence and clwb/clflushopt are persistency-equivalent, and
// a fenced clflushopt restores epoch-like ordering: px86 agrees with
// epoch on all three rows.
TEST(Conformance, AgreementRows)
{
    for (const char *name :
         {"flushopt_sfence_ordered", "mfence_same_as_sfence",
          "clwb_same_as_clflushopt", "independent_flushes"}) {
        const LitmusResult &result =
            findResult(handwrittenResults(), name);
        EXPECT_EQ(findModel(result, "px86").states,
                  findModel(result, "epoch-a64").states)
            << name;
    }
}

// The seeded persistency race: the consumer reads x while it is
// dirty and persists y without anything ordering x's durability
// first. The PersistRace detector must flag it under every model
// that exhibits the hazard — dirty_read under px86 (TSO made the
// dirty value visible), unordered_persist under the SC-shadow
// models — and the px86 state set must actually contain the
// y-without-x recovery the race warns about.
TEST(Conformance, SeededPersistRaceIsFlagged)
{
    const LitmusResult &result =
        findResult(handwrittenResults(), "dirty_read_race");
    EXPECT_GT(findModel(result, "px86").persist_races, 0u);
    EXPECT_GT(findModel(result, "epoch-a64").persist_races, 0u);
    EXPECT_GT(findModel(result, "strand-a64").persist_races, 0u);
    EXPECT_TRUE(hasState(findModel(result, "px86"), "x=0 y=1"));
}

// Properly synchronized rows must stay race-free: every persist is
// ordered by its own thread's flush+fence chain (agreement rows) or
// the threads touch disjoint lines with no conflicting access
// carrying a stale shadow (independent_flushes under px86).
TEST(Conformance, SynchronizedRowsAreRaceFree)
{
    for (const char *name :
         {"clflush_chain", "flushopt_sfence_ordered",
          "mfence_same_as_sfence", "clwb_same_as_clflushopt",
          "independent_flushes"}) {
        const LitmusResult &result =
            findResult(handwrittenResults(), name);
        for (const ModelStates &states : result.models)
            EXPECT_EQ(states.persist_races, 0u)
                << name << "/" << states.model;
    }
}

// The full suite (hand-written + generated) must produce a
// byte-identical report for every --jobs value.
TEST(Conformance, ReportIsJobsDeterministic)
{
    const std::vector<LitmusTest> tests = allLitmusTests();
    const std::string a =
        formatDivergenceReport(runConformanceSuite(tests, 1));
    const std::string b =
        formatDivergenceReport(runConformanceSuite(tests, 4));
    EXPECT_EQ(a, b);
}

// Byte-compare the generated report against the committed golden.
// Regenerate after an INTENTIONAL semantic change with:
//   conformance_report --out=tests/conformance/golden/conformance_report.txt
TEST(Conformance, GoldenDivergenceReport)
{
    const char *path = std::getenv("PERSIM_CONFORMANCE_GOLDEN");
    ASSERT_NE(path, nullptr)
        << "PERSIM_CONFORMANCE_GOLDEN not set (run via ctest)";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "cannot open golden: " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string golden = buf.str();

    const std::string report =
        formatDivergenceReport(runConformanceSuite(allLitmusTests()));
    ASSERT_EQ(report.size(), golden.size())
        << "report size drifted from golden; if the semantic change "
           "is intentional, regenerate with conformance_report --out=";
    EXPECT_EQ(report, golden);
}

} // namespace
} // namespace persim
