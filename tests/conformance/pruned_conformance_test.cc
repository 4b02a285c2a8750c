/**
 * @file
 * Pruned-vs-exhaustive cross-check over the full conformance litmus
 * suite, at the level of one crash-state check: for every execution
 * the harness replays (round-robin plus random frontiers 1-4) of
 * every litmus program (hand-written + generated), under every
 * conformanceModels() model, checkCrashStates projected onto the
 * program's observed cells must yield exactly the post-crash state
 * set, budget flag and race count of blind enumeration of every
 * consistent cut. This is the soundness and completeness pin for
 * DESIGN.md §14's pruning rule: the observable projections of the
 * full cut lattice are precisely the order ideals of the observed
 * groups under reachability-through-unobserved-groups. The harness
 * always projects, so the divergence report's golden copy
 * (conformance_test) pins the user-facing bytes.
 */

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/task_pool.hh"
#include "conformance/litmus.hh"
#include "recovery/cuts.hh"

namespace persim {
namespace {

/** What one crash-state check of one execution under one model saw. */
struct CheckOutcome
{
    std::set<std::string> states;
    bool budget_exhausted = false;
    std::uint64_t persist_races = 0;
};

CheckOutcome
checkExecution(const Explorer::Execution &execution,
               const ModelConfig &model,
               const std::vector<AddrRange> &ranges)
{
    CheckOutcome out;
    TimingConfig timing;
    timing.model = model;
    timing.detect_races = true;
    const RecoveryInvariant fingerprint =
        [&out, &execution](const MemoryImage &image) -> std::string {
        std::string state;
        for (const ObservedCell &cell : execution.observed) {
            if (!state.empty())
                state += ' ';
            state += cell.name + '=' +
                std::to_string(image.load(cell.addr, cell.size));
        }
        out.states.insert(std::move(state));
        return "";
    };
    const CrashStateCheck check = checkCrashStates(
        execution.trace, timing, fingerprint, ranges, 1ULL << 20);
    out.budget_exhausted = check.cuts.budget_exhausted;
    out.persist_races = check.timing.races + check.timing.dirty_reads;
    return out;
}

TEST(PrunedConformance, IdenticalVerdictsOnEveryLitmusProgram)
{
    const std::vector<LitmusTest> tests = allLitmusTests();
    ASSERT_GE(tests.size(), 31u);
    const std::vector<ModelConfig> models = conformanceModels();

    // One failure list per test, filled on pool workers and reported
    // on this thread (gtest assertions are not for worker threads).
    std::vector<std::vector<std::string>> failures(tests.size());
    std::vector<std::uint64_t> checks(tests.size(), 0);
    TaskPool pool(4);
    pool.parallelFor(tests.size(), [&](std::size_t i) {
        Explorer explorer(tests[i].make, ExploreConfig{});
        std::vector<Explorer::Execution> executions;
        std::set<std::uint64_t> fingerprints;
        const auto consider = [&](FrontierKind frontier,
                                  std::uint64_t seed) {
            Explorer::Execution execution =
                explorer.execute({}, frontier, seed);
            if (fingerprints.insert(execution.fingerprint).second)
                executions.push_back(std::move(execution));
        };
        consider(FrontierKind::RoundRobin, 1);
        for (std::uint64_t seed = 1; seed <= 4; ++seed)
            consider(FrontierKind::Random, seed);

        for (std::size_t e = 0; e < executions.size(); ++e) {
            const Explorer::Execution &execution = executions[e];
            if (execution.observed.empty()) {
                failures[i].push_back("no observed cells");
                continue;
            }
            std::vector<AddrRange> ranges;
            for (const ObservedCell &cell : execution.observed)
                ranges.push_back(AddrRange{cell.addr, cell.size});
            for (const ModelConfig &model : models) {
                const CheckOutcome base =
                    checkExecution(execution, model, {});
                const CheckOutcome pruned =
                    checkExecution(execution, model, ranges);
                ++checks[i];
                const std::string where = "execution " +
                    std::to_string(e) + "/" + model.name() + ": ";
                // Both directions: no state lost (soundness of
                // skipping unobserved-only cuts), no state invented
                // (projections are genuine consistent cuts).
                if (pruned.states != base.states)
                    failures[i].push_back(where + "state sets differ");
                if (pruned.budget_exhausted != base.budget_exhausted)
                    failures[i].push_back(where + "budget flags differ");
                // Pruning only changes cut enumeration; the race
                // detector watches the replay, which is identical.
                if (pruned.persist_races != base.persist_races)
                    failures[i].push_back(where + "race counts differ");
            }
        }
    });

    for (std::size_t i = 0; i < tests.size(); ++i) {
        EXPECT_GT(checks[i], 0u) << tests[i].name;
        for (const std::string &failure : failures[i])
            ADD_FAILURE() << tests[i].name << ": " << failure;
    }
}

} // namespace
} // namespace persim
