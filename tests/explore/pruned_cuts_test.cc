/**
 * @file
 * Constraint-guided crash-state pruning tests: checkObservedCuts /
 * observedGroupMask / downwardClosure unit semantics (recovery/
 * cuts.hh) and the Explorer integration (a program's observed cells
 * reach checkCrashStates; withoutObserved drops them for the
 * exhaustive reference). The load-bearing property everywhere:
 * pruned enumeration reaches exactly the observable states of
 * exhaustive enumeration — both directions — while examining far
 * fewer cuts.
 */

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "explore/explore.hh"
#include "explore/programs.hh"
#include "recovery/cuts.hh"
#include "tests/support/trace_builder.hh"

namespace persim {
namespace {

using test::paddr;
using test::TraceBuilder;
using test::vaddr;

PersistLog
depsLog(const TraceBuilder &builder,
        const ModelConfig &model = ModelConfig::epoch())
{
    TimingConfig config;
    config.model = model;
    config.record_deps = true;
    PersistTimingEngine engine(config);
    builder.trace().replay(engine);
    return engine.takeLog();
}

/** Invariant that records the observed cells' states into @p states. */
RecoveryInvariant
collect(std::set<std::string> &states,
        const std::vector<AddrRange> &observed)
{
    return [&states, observed](const MemoryImage &image) {
        std::string state;
        for (const AddrRange &range : observed) {
            if (!state.empty())
                state += ' ';
            state += std::to_string(
                image.load(range.addr,
                           static_cast<unsigned>(range.size)));
        }
        states.insert(std::move(state));
        return std::string();
    };
}

TEST(ObservedCuts, MaskIsByteRangeOverlap)
{
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)
           .store(0, paddr(1), 2)
           .store(0, paddr(2), 3);
    const auto log = depsLog(builder);
    const auto dag = buildPersistDag(log);
    ASSERT_EQ(dag.groupCount(), 3u);

    // A 1-byte window into the middle cell: only its group observed.
    const std::vector<AddrRange> observed{{paddr(1) + 3, 1}};
    const std::vector<char> mask = observedGroupMask(log, dag, observed);
    int observed_count = 0;
    for (char m : mask)
        observed_count += m != 0;
    EXPECT_EQ(observed_count, 1);
}

TEST(ObservedCuts, DownwardClosureOfDiamondTop)
{
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)
           .barrier(0)
           .store(0, paddr(1), 2)
           .store(0, paddr(2), 3)
           .barrier(0)
           .store(0, paddr(3), 4);
    const auto log = depsLog(builder);
    const auto dag = buildPersistDag(log);
    ASSERT_EQ(dag.groupCount(), 4u);

    // The sink depends on everything: its closure is the full set.
    std::uint32_t top = 0;
    for (std::uint32_t g = 0; g < dag.groupCount(); ++g)
        if (log[dag.plan.founder(g)].addr == paddr(3))
            top = g;
    const auto closure = downwardClosure(dag, {top});
    EXPECT_EQ(closure.size(), 4u);
}

TEST(ObservedCuts, IndependentPersistsPruneToObservedSubsets)
{
    // Three concurrent persists, one observed: 8 cuts exhaustively,
    // 2 observable projections — with identical observed state sets.
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)
           .store(0, paddr(1), 2)
           .store(0, paddr(2), 3);
    const auto log = depsLog(builder);
    const auto dag = buildPersistDag(log);
    const std::vector<AddrRange> observed{{paddr(1), 8}};

    std::set<std::string> exhaustive_states;
    const auto exhaustive = checkAllCuts(
        log, dag, collect(exhaustive_states, observed));
    std::set<std::string> pruned_states;
    const auto pruned = checkObservedCuts(
        log, dag, collect(pruned_states, observed), observed);

    EXPECT_EQ(exhaustive.cuts, 8u);
    EXPECT_EQ(pruned.cuts, 2u);
    EXPECT_EQ(pruned_states, exhaustive_states);
    EXPECT_EQ(pruned.violations, 0u);
    EXPECT_FALSE(pruned.budget_exhausted);
}

TEST(ObservedCuts, TransitiveOrderThroughUnobservedGroup)
{
    // A (observed) -> M (unobserved) -> B (observed), a chain through
    // barriers. The pruned enumeration must keep A before B even
    // though the ordering flows through an unobserved middle group:
    // projections are {}, {A}, {A,B} — never B without A.
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)    // A, observed
           .barrier(0)
           .store(0, paddr(1), 2)    // M, unobserved
           .barrier(0)
           .store(0, paddr(2), 3);   // B, observed
    const auto log = depsLog(builder);
    const auto dag = buildPersistDag(log);
    ASSERT_EQ(dag.groupCount(), 3u);
    const std::vector<AddrRange> observed{{paddr(0), 8}, {paddr(2), 8}};

    std::set<std::string> pruned_states;
    const auto pruned = checkObservedCuts(
        log, dag, collect(pruned_states, observed), observed);
    EXPECT_EQ(pruned.cuts, 3u);
    EXPECT_EQ(pruned_states,
              (std::set<std::string>{"0 0", "1 0", "1 3"}));

    std::set<std::string> exhaustive_states;
    checkAllCuts(log, dag, collect(exhaustive_states, observed));
    EXPECT_EQ(pruned_states, exhaustive_states);
}

TEST(ObservedCuts, AllGroupsObservedFallsBackToExhaustive)
{
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)
           .store(0, paddr(1), 2)
           .store(0, paddr(2), 3);
    const auto log = depsLog(builder);
    const auto dag = buildPersistDag(log);
    const std::vector<AddrRange> observed{
        {paddr(0), 8}, {paddr(1), 8}, {paddr(2), 8}};
    const auto pruned =
        checkObservedCuts(log, dag, [](const MemoryImage &) {
            return std::string();
        }, observed);
    EXPECT_EQ(pruned.cuts, 8u);
}

TEST(ObservedCuts, NoObservedPersistsIsOneCheck)
{
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)
           .store(0, paddr(1), 2);
    const auto log = depsLog(builder);
    const auto dag = buildPersistDag(log);
    const std::vector<AddrRange> observed{{paddr(9), 8}};

    std::uint64_t calls = 0;
    const auto pruned =
        checkObservedCuts(log, dag, [&calls](const MemoryImage &image) {
            ++calls;
            EXPECT_EQ(image.load(paddr(9), 8), 0u);
            return std::string();
        }, observed);
    EXPECT_EQ(pruned.cuts, 1u);
    EXPECT_EQ(calls, 1u);
}

TEST(ObservedCuts, ViolationCutIsDownwardClosed)
{
    // Publish bug: B (observed) can persist without A (observed)
    // under barrier-free epoch. The reported counterexample cut must
    // be a genuine consistent cut (closure-expanded), reproducing the
    // violation when reconstructed.
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)    // A
           .store(0, vaddr(0), 1)
           .load(1, vaddr(0))
           .store(1, paddr(2), 1);   // B, unordered with A
    const auto log = depsLog(builder);
    const auto dag = buildPersistDag(log);
    const std::vector<AddrRange> observed{{paddr(0), 8}, {paddr(2), 8}};

    const RecoveryInvariant invariant =
        [](const MemoryImage &image) -> std::string {
        if (image.load(paddr(2), 8) == 1 && image.load(paddr(0), 8) != 1)
            return "B without A";
        return "";
    };
    const auto pruned =
        checkObservedCuts(log, dag, invariant, observed);
    ASSERT_GT(pruned.violations, 0u);
    EXPECT_EQ(pruned.first_violation, "B without A");

    const auto closed =
        downwardClosure(dag, pruned.first_violation_groups);
    EXPECT_EQ(closed, pruned.first_violation_groups);
    const MemoryImage image =
        reconstructImageFromGroups(log, dag, pruned.first_violation_groups);
    EXPECT_FALSE(invariant(image).empty());

    const auto exhaustive = checkAllCuts(log, dag, invariant);
    EXPECT_GT(exhaustive.violations, 0u);
}

TEST(ObservedCuts, BudgetStopsEnumeration)
{
    TraceBuilder builder;
    for (int i = 0; i < 10; ++i)
        builder.store(0, paddr(i), i + 1);
    const auto log = depsLog(builder);
    const auto dag = buildPersistDag(log);
    std::vector<AddrRange> observed;
    for (int i = 0; i < 10; ++i)
        observed.push_back(AddrRange{paddr(i), 8});
    const auto pruned =
        checkObservedCuts(log, dag, [](const MemoryImage &) {
            return std::string();
        }, observed, /*max_cuts=*/16);
    EXPECT_TRUE(pruned.budget_exhausted);
}

ExploreConfig
publishConfig()
{
    ExploreConfig config;
    config.model = ModelConfig::epoch();
    return config;
}

/**
 * Buggy publish (no consumer barrier) plus unobserved persistent
 * scratch traffic on both threads. The plain publish litmus is too
 * clean to prune — its only persists ARE the observed cells (flag is
 * volatile), so pruning correctly falls back to exhaustive there.
 * Here the scratch persists inflate the exhaustive cut lattice while
 * the observable projection stays small.
 */
ProgramFactory
buggyPublishWithScratch()
{
    return []() {
        struct State
        {
            Addr data = invalid_addr;
            Addr seen = invalid_addr;
            Addr flag = invalid_addr;
            Addr scratch = invalid_addr;
        };
        auto state = std::make_shared<State>();

        ExploreProgram program;
        program.observed = std::make_shared<std::vector<ObservedCell>>();
        auto observed = program.observed;
        program.setup = [state, observed](ThreadCtx &ctx) {
            state->data = ctx.pmalloc(8);
            state->seen = ctx.pmalloc(8);
            state->scratch = ctx.pmalloc(32);
            state->flag = ctx.vmalloc(8);
            observed->assign({ObservedCell{"data", state->data, 8},
                              ObservedCell{"seen", state->seen, 8}});
        };
        program.workers.push_back([state](ThreadCtx &ctx) {
            ctx.store(state->scratch, 7);
            ctx.store(state->data, 1);
            ctx.persistBarrier();
            ctx.store(state->scratch + 8, 8);
            ctx.store(state->flag, 1);
        });
        program.workers.push_back([state](ThreadCtx &ctx) {
            ctx.store(state->scratch + 16, 9);
            if (ctx.load(state->flag) == 1)
                ctx.store(state->seen, 1); // Bug: no barrier first.
        });
        program.invariant = [state]() -> RecoveryInvariant {
            return [state](const MemoryImage &image) -> std::string {
                if (image.load(state->seen, 8) == 1 &&
                    image.load(state->data, 8) != 1)
                    return "recovery observed seen=1 without data=1";
                return "";
            };
        };
        return program;
    };
}

TEST(ExplorerPruning, SameVerdictFewerCutsOnBuggyPublish)
{
    Explorer exhaustive(withoutObserved(buggyPublishWithScratch()),
                        publishConfig());
    const ExploreResult base = exhaustive.run();
    Explorer guided(buggyPublishWithScratch(), publishConfig());
    const ExploreResult pruned = guided.run();

    // Same exploration, same verdict...
    EXPECT_EQ(pruned.executions, base.executions);
    EXPECT_EQ(pruned.distinct_executions, base.distinct_executions);
    EXPECT_GT(pruned.violations, 0u);
    ASSERT_TRUE(base.counterexample.has_value());
    ASSERT_TRUE(pruned.counterexample.has_value());
    EXPECT_EQ(pruned.counterexample->violation,
              base.counterexample->violation);
    // ...from a strictly smaller enumeration (the scratch persists
    // drop out of the lattice).
    EXPECT_LT(pruned.cuts_checked, base.cuts_checked);
    EXPECT_TRUE(pruned.projected);
    EXPECT_FALSE(base.projected);
    EXPECT_TRUE(pruned.exhaustive()) << pruned.summary();
}

TEST(ExplorerPruning, DefaultConfigProjectsDeclaredCells)
{
    // No option picks the enumeration: a program that declares its
    // observed cells is projected onto them under a default config.
    Explorer guided(buggyPublishWithScratch(), ExploreConfig{});
    const ExploreResult pruned = guided.run();
    Explorer blind(withoutObserved(buggyPublishWithScratch()),
                   ExploreConfig{});
    const ExploreResult base = blind.run();

    EXPECT_GT(pruned.distinct_executions, 0u);
    EXPECT_EQ(pruned.distinct_executions, base.distinct_executions);
    EXPECT_TRUE(pruned.projected);
    EXPECT_FALSE(base.projected);
    EXPECT_LT(pruned.cuts_checked, base.cuts_checked);
}

TEST(ExplorerPruning, CorrectPublishStaysProvenUnderPruning)
{
    Explorer guided(publishLitmusProgram(true), publishConfig());
    const ExploreResult pruned = guided.run();
    EXPECT_TRUE(pruned.exhaustive()) << pruned.summary();
    EXPECT_EQ(pruned.violations, 0u) << pruned.summary();
    EXPECT_FALSE(pruned.counterexample.has_value());
    EXPECT_GT(pruned.distinct_executions, 0u);
    EXPECT_TRUE(pruned.projected);
    const std::string summary = pruned.summary();
    EXPECT_NE(summary.find("checks projected onto observed cells"),
              std::string::npos);
}

TEST(ExplorerPruning, PrunedCounterexampleReplays)
{
    Explorer guided(publishLitmusProgram(false), publishConfig());
    const ExploreResult result = guided.run();
    ASSERT_TRUE(result.counterexample.has_value());
    const Counterexample &ce = *result.counterexample;
    EXPECT_FALSE(ce.cut_groups.empty());

    Explorer replayer(publishLitmusProgram(false), publishConfig());
    EXPECT_EQ(replayer.execute(ce.decisions).fingerprint,
              ce.fingerprint);
}

TEST(ExplorerPruning, ShortCircuitWhenObservedNeverPersists)
{
    // The observed cell is allocated but never stored: every analysis
    // collapses to a single invariant check on the initial image.
    ProgramFactory factory = []() {
        auto cell = std::make_shared<Addr>(invalid_addr);
        ExploreProgram program;
        program.observed = std::make_shared<std::vector<ObservedCell>>();
        auto observed = program.observed;
        program.setup = [cell, observed](ThreadCtx &ctx) {
            *cell = ctx.pmalloc(8);
            ctx.pmalloc(8); // scratch the workers actually write
            observed->assign({ObservedCell{"quiet", *cell, 8}});
        };
        program.workers.push_back([cell](ThreadCtx &ctx) {
            ctx.store(*cell + 8, 1);
            ctx.persistBarrier();
            ctx.store(*cell + 8, 2);
        });
        program.invariant = [cell]() -> RecoveryInvariant {
            return [cell](const MemoryImage &image) -> std::string {
                if (image.load(*cell, 8) != 0)
                    return "quiet cell became durable";
                return "";
            };
        };
        return program;
    };
    Explorer guided(factory, publishConfig());
    const ExploreResult result = guided.run();
    EXPECT_TRUE(result.exhaustive()) << result.summary();
    EXPECT_EQ(result.violations, 0u) << result.summary();
    EXPECT_GT(result.pruned_short_circuits, 0u);
    EXPECT_EQ(result.pruned_short_circuits, result.distinct_executions);
    EXPECT_EQ(result.cuts_checked, result.distinct_executions);
}

TEST(ExplorerPruning, ShortCircuitedViolationYieldsACounterexample)
{
    // The observed cell never persists, and the invariant demands it:
    // the empty cut fails, and the counterexample is built on a check
    // that skipped the DAG.
    ProgramFactory factory = []() {
        auto cell = std::make_shared<Addr>(invalid_addr);
        ExploreProgram program;
        program.observed = std::make_shared<std::vector<ObservedCell>>();
        auto observed = program.observed;
        program.setup = [cell, observed](ThreadCtx &ctx) {
            *cell = ctx.pmalloc(8);
            ctx.pmalloc(8);
            observed->assign({ObservedCell{"never", *cell, 8}});
        };
        program.workers.push_back([cell](ThreadCtx &ctx) {
            ctx.store(*cell + 8, 1);
            ctx.persistBarrier();
            ctx.store(*cell + 8, 2);
        });
        program.invariant = [cell]() -> RecoveryInvariant {
            return [cell](const MemoryImage &image) -> std::string {
                if (image.load(*cell, 8) == 0)
                    return "cell never became durable";
                return "";
            };
        };
        return program;
    };
    Explorer guided(factory, publishConfig());
    const ExploreResult result = guided.run();
    EXPECT_EQ(result.pruned_short_circuits, result.distinct_executions);
    EXPECT_EQ(result.violations, result.distinct_executions);
    ASSERT_TRUE(result.counterexample.has_value());
    const Counterexample &ce = *result.counterexample;
    EXPECT_EQ(ce.violation, "cell never became durable");
    EXPECT_TRUE(ce.cut_groups.empty());
    EXPECT_EQ(ce.cut_detail.rfind("0 of 1 atomic persist groups", 0), 0u)
        << ce.cut_detail;
}

/** The ExploreResult fields perfbench's crash_explore digest reads. */
std::vector<std::uint64_t>
answers(const ExploreResult &result)
{
    return {result.executions,           result.sampled_executions,
            result.distinct_executions,  result.pruned_duplicates,
            result.truncated_executions, result.branch_points,
            result.cuts_checked,         result.violations};
}

// The two pins below were recorded before the explorer and the
// conformance harness shared one crash-state check; any change to how
// an execution's crash states are enumerated must leave them as is.

TEST(ExplorerAnswers, QueueExploreAtSeedSevenIsPinned)
{
    // perfbench's crash_explore program at its tiny budget.
    QueueExploreOptions queue;
    queue.kind = QueueKind::TwoLockConcurrent;
    queue.threads = 2;
    queue.inserts_per_thread = 1;
    queue.queue.barrier_before_publish = true;
    queue.payload_bytes = 312;
    ExploreConfig config;
    config.model = queueExploreModel();
    config.max_executions = 60;
    config.samples = 20;
    config.seed = 7;
    config.shards = 1;
    Explorer explorer(queueProgram(queue), config);
    const ExploreResult result = explorer.run();
    EXPECT_EQ(answers(result),
              (std::vector<std::uint64_t>{80, 20, 80, 0, 0, 2070, 91888,
                                          0}))
        << result.summary();
    EXPECT_FALSE(result.counterexample.has_value());
}

TEST(ExplorerAnswers, PrunedBuggyPublishIsPinned)
{
    Explorer explorer(buggyPublishWithScratch(), publishConfig());
    const ExploreResult result = explorer.run();
    EXPECT_EQ(answers(result),
              (std::vector<std::uint64_t>{358, 0, 358, 0, 0, 357, 956,
                                          120}))
        << result.summary();
    EXPECT_EQ(result.distinct_executions, 358u);
    EXPECT_TRUE(result.projected);
    EXPECT_EQ(result.pruned_short_circuits, 0u);
    ASSERT_TRUE(result.counterexample.has_value());
    EXPECT_EQ(result.counterexample->format(),
              "violation: recovery observed seen=1 without data=1\n"
              "decision string (8 decisions): 1,1,0,0,0,0,0,0\n"
              "execution fingerprint: 0x6c83a02a3fe1728d\n"
              "crash cut: 1 of 5 atomic persist groups in the crash "
              "state:\n"
              "  group 3 t=1 seq=13 thread=1 addr=0x10000000008 size=8 "
              "value=0x1\n");
}

} // namespace
} // namespace persim
