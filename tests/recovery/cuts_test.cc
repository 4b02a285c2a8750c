/**
 * @file
 * Exhaustive crash-cut enumeration tests (src/recovery/cuts.hh): DAG
 * construction from dependence-recorded persist logs, consistent-cut
 * counting, image reconstruction, and counterexample-cut
 * minimization.
 */

#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "recovery/cuts.hh"
#include "tests/support/trace_builder.hh"

namespace persim {
namespace {

using test::paddr;
using test::TraceBuilder;
using test::vaddr;

/** Level-clock analysis with full dependence recording. */
PersistLog
depsLog(const TraceBuilder &builder, const ModelConfig &model)
{
    TimingConfig config;
    config.model = model;
    config.record_deps = true;
    PersistTimingEngine engine(config);
    builder.trace().replay(engine);
    return engine.takeLog();
}

/** Invariant that never fails (pure enumeration). */
RecoveryInvariant
acceptAll()
{
    return [](const MemoryImage &) { return std::string(); };
}

TEST(PersistDag, IndependentPersistsEnumerateAllSubsets)
{
    // Three persists in one epoch: pairwise concurrent, so every
    // subset is a consistent cut.
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)
           .store(0, paddr(1), 2)
           .store(0, paddr(2), 3);
    const auto log = depsLog(builder, ModelConfig::epoch());
    const auto dag = buildPersistDag(log);
    EXPECT_EQ(dag.groupCount(), 3u);

    const auto result = checkAllCuts(log, dag, acceptAll());
    EXPECT_EQ(result.cuts, 8u);
    EXPECT_EQ(result.violations, 0u);
    EXPECT_FALSE(result.budget_exhausted);
}

TEST(PersistDag, BarrierChainEnumeratesOnlyPrefixes)
{
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)
           .barrier(0)
           .store(0, paddr(1), 2)
           .barrier(0)
           .store(0, paddr(2), 3);
    const auto log = depsLog(builder, ModelConfig::epoch());
    const auto dag = buildPersistDag(log);
    ASSERT_EQ(dag.groupCount(), 3u);

    // A totally ordered chain has exactly the prefixes as cuts.
    const auto result = checkAllCuts(log, dag, acceptAll());
    EXPECT_EQ(result.cuts, 4u);
}

TEST(PersistDag, DiamondHasSixCuts)
{
    // A; barrier; B, C (concurrent); barrier; D. Ideals of a diamond:
    // {}, {A}, {A,B}, {A,C}, {A,B,C}, {A,B,C,D}.
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)
           .barrier(0)
           .store(0, paddr(1), 2)
           .store(0, paddr(2), 3)
           .barrier(0)
           .store(0, paddr(3), 4);
    const auto log = depsLog(builder, ModelConfig::epoch());
    const auto dag = buildPersistDag(log);
    ASSERT_EQ(dag.groupCount(), 4u);
    EXPECT_EQ(checkAllCuts(log, dag, acceptAll()).cuts, 6u);
}

TEST(PersistDag, CoalescedPersistsShareOneAtomicGroup)
{
    TraceBuilder builder;
    builder.store(0, paddr(0), 1).store(0, paddr(0), 2);
    const auto log = depsLog(builder, ModelConfig::epoch());
    ASSERT_EQ(log.size(), 2u);
    const auto dag = buildPersistDag(log);
    ASSERT_EQ(dag.groupCount(), 1u);
    EXPECT_EQ(dag.plan.membersOf(0).size(), 2u);

    // The group applies atomically: its cut shows the *last* value.
    const auto image = reconstructImageFromGroups(log, dag, {0});
    EXPECT_EQ(image.load(paddr(0), 8), 2u);
    EXPECT_EQ(checkAllCuts(log, dag, acceptAll()).cuts, 2u);
}

TEST(PersistDag, CrossThreadInheritedDependenceOrdersGroups)
{
    // Conservative publish: consumer's persist must depend on the
    // producer's, so "B without A" is not an enumerable crash state.
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)   // A
           .barrier(0)
           .store(0, vaddr(0), 1)   // flag
           .load(1, vaddr(0))
           .barrier(1)
           .store(1, paddr(1), 2);  // B
    const auto log = depsLog(builder, ModelConfig::epoch());
    const auto dag = buildPersistDag(log);
    ASSERT_EQ(dag.groupCount(), 2u);
    const auto result = checkAllCuts(log, dag, [](const MemoryImage &i) {
        if (i.load(paddr(1), 8) == 2 && i.load(paddr(0), 8) != 1)
            return std::string("B without A");
        return std::string();
    });
    EXPECT_EQ(result.cuts, 3u);
    EXPECT_EQ(result.violations, 0u);
}

TEST(PersistDag, LogWithoutDependenceSetsIsRejected)
{
    TraceBuilder builder;
    builder.store(0, paddr(0), 1).barrier(0).store(0, paddr(1), 2);
    // analyzeLog records bindings only (no record_deps): the ordered
    // second persist has a binding but an empty dependence set.
    const auto log = builder.analyzeLog(ModelConfig::epoch());
    EXPECT_THROW(buildPersistDag(log), FatalError);
}

TEST(PersistDag, RejectsLogWhoseWordOrderDisagreesWithCompletionOrder)
{
    // Two independent persists to one word, the later in the log
    // completing first: group order (completion time) and the
    // observer's log order would leave different bytes in the word,
    // so the checker refuses the log instead of enumerating it.
    PersistLog log(2);
    for (PersistId i = 0; i < 2; ++i) {
        log[i].id = i;
        log[i].addr = paddr(0) + 4 * i;
        log[i].size = static_cast<std::uint8_t>(8 - 4 * i);
        log[i].value = 0x1111 * (i + 1);
        log[i].time = 2.0 - static_cast<double>(i);
    }
    std::ostringstream word;
    word << "word 0x" << std::hex << paddr(0);
    try {
        (void)buildPersistDag(log);
        FAIL() << "the cut checker accepted an out-of-order word";
    } catch (const FatalError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(word.str()), std::string::npos) << what;
        EXPECT_NE(what.find("record 0"), std::string::npos) << what;
        EXPECT_NE(what.find("record 1"), std::string::npos) << what;
    }

    // The same records in completion order are two independent
    // groups: four cuts.
    std::swap(log[0].time, log[1].time);
    const auto dag = buildPersistDag(log);
    EXPECT_EQ(dag.groupCount(), 2u);
    EXPECT_EQ(checkAllCuts(log, dag, acceptAll()).cuts, 4u);
}

TEST(PersistDag, CutBudgetTruncatesButReportsIt)
{
    TraceBuilder builder;
    for (int i = 0; i < 6; ++i)
        builder.store(0, paddr(i), i + 1);
    const auto log = depsLog(builder, ModelConfig::epoch());
    const auto dag = buildPersistDag(log);
    const auto result = checkAllCuts(log, dag, acceptAll(), 10);
    EXPECT_EQ(result.cuts, 10u);
    EXPECT_TRUE(result.budget_exhausted);
}

TEST(PersistDag, EmptyLogHasExactlyTheEmptyCut)
{
    TraceBuilder builder;
    builder.load(0, paddr(0));
    const auto log = depsLog(builder, ModelConfig::epoch());
    ASSERT_TRUE(log.empty());
    const auto dag = buildPersistDag(log);
    EXPECT_EQ(dag.groupCount(), 0u);
    const auto result = checkAllCuts(log, dag, acceptAll());
    EXPECT_EQ(result.cuts, 1u);
}

TEST(MinimizeCut, DropsGroupsIrrelevantToTheViolation)
{
    // X, Y, Z independent; the invariant only cares about X.
    TraceBuilder builder;
    builder.store(0, paddr(0), 7)
           .store(0, paddr(1), 8)
           .store(0, paddr(2), 9);
    const auto log = depsLog(builder, ModelConfig::epoch());
    const auto dag = buildPersistDag(log);
    const RecoveryInvariant invariant = [](const MemoryImage &i) {
        return i.load(paddr(0), 8) == 7 ? "X persisted" : "";
    };
    const auto minimal =
        minimizeViolatingCut(log, dag, invariant, {0, 1, 2});
    ASSERT_EQ(minimal.size(), 1u);
    EXPECT_EQ(minimal[0], dag.plan.group[0]);
}

TEST(MinimizeCut, KeepsPredecessorsNeededForClosure)
{
    // A -> B, invariant fires on B: A cannot be dropped (closure),
    // so the minimal violating cut is {A, B}.
    TraceBuilder builder;
    builder.store(0, paddr(0), 1).barrier(0).store(0, paddr(1), 2);
    const auto log = depsLog(builder, ModelConfig::epoch());
    const auto dag = buildPersistDag(log);
    const RecoveryInvariant invariant = [](const MemoryImage &i) {
        return i.load(paddr(1), 8) == 2 ? "B persisted" : "";
    };
    const auto minimal =
        minimizeViolatingCut(log, dag, invariant, {0, 1});
    EXPECT_EQ(minimal.size(), 2u);
}

TEST(FormatCut, ListsGroupsAndValues)
{
    TraceBuilder builder;
    builder.store(0, paddr(0), 0xab);
    const auto log = depsLog(builder, ModelConfig::epoch());
    const auto dag = buildPersistDag(log);
    const auto text = formatCut(log, dag, {0});
    EXPECT_NE(text.find("1 of 1 atomic persist groups"),
              std::string::npos);
    EXPECT_NE(text.find("value=0xab"), std::string::npos);
}

} // namespace
} // namespace persim
