/**
 * @file
 * Bounded exhaustive schedule & crash-state model checking.
 *
 * Persim's stochastic validation (RandomPolicy interleavings +
 * runFaultCampaign crash sampling) can miss a racing
 * annotation bug that manifests on one schedule in a thousand. This
 * subsystem turns the paper's recovery-observer formalism into a
 * correctness tool, Jaaru-style: for a small bounded program it
 * enumerates
 *
 *   every scheduler decision string (up to a depth/execution budget,
 *   with execution-fingerprint pruning of equivalent interleavings
 *   and a seeded-sampling fallback beyond the budget)
 *     x every consistent cut of each execution's persist partial
 *       order (src/recovery/cuts.hh) — or, for a program that
 *       declares the cells its invariant reads, every cut that can
 *       differ on them,
 *
 * and runs a recovery invariant against each crash state. A failure
 * yields a minimized counterexample — decision string plus crash cut
 * — that replays deterministically through ReplayPolicy.
 *
 * The scheduler decision tree is explored statelessly (re-execution
 * from a recorded prefix, as the engine has no snapshot/restore), and
 * decision-prefix work items are scheduled on a common/task_pool.hh
 * TaskPool of `shards` workers (the pool's LIFO order keeps the
 * traversal depth-first-ish, matching the previous ad-hoc stack).
 */

#ifndef PERSIM_EXPLORE_EXPLORE_HH
#define PERSIM_EXPLORE_EXPLORE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/task_pool.hh"
#include "memtrace/sink.hh"
#include "persistency/model.hh"
#include "recovery/recovery.hh"
#include "sim/engine.hh"
#include "sim/scheduler.hh"

namespace persim {

/** One named persistent cell whose post-crash value is observed. */
struct ObservedCell
{
    std::string name;
    Addr addr = invalid_addr;
    std::uint32_t size = 8;
};

/**
 * A bounded program under test. The factory below is invoked once
 * per execution and must return independent state each time (the
 * explorer runs executions concurrently across shards); everything a
 * run produces (golden records, layouts) must be reachable from the
 * closures.
 */
struct ExploreProgram
{
    /** Setup phase, run via runSetup as thread 0 (may be empty). */
    ExecutionEngine::WorkerFn setup;

    /** Worker bodies, one simulated thread each (>= 1). */
    std::vector<ExecutionEngine::WorkerFn> workers;

    /**
     * Invoked after the run completes to build the recovery invariant
     * for this execution (after, because e.g. a queue's golden
     * reservation map depends on the interleaving). May be empty, in
     * which case only schedule enumeration is performed.
     */
    std::function<RecoveryInvariant()> invariant;

    /**
     * Base engine parameters (capacities, consistency model). The
     * scheduler fields are overridden by the explorer's ReplayPolicy.
     */
    EngineConfig engine;

    /**
     * Cells the invariant reads, filled during setup (addresses exist
     * only once the simulated allocator has run; the allocator is
     * deterministic, so every execution observes the same layout).
     * Optional. When set, the invariant must read only these bytes:
     * the explorer then enumerates only the crash states that can
     * differ on them (checkObservedCuts, DESIGN.md §14), and a read
     * outside them may miss a state. When unset, every consistent cut
     * is checked.
     */
    std::shared_ptr<std::vector<ObservedCell>> observed;
};

/** Builds a fresh instance of the program under test. */
using ProgramFactory = std::function<ExploreProgram()>;

/** Exploration budgets and strategy. */
struct ExploreConfig
{
    /** Persistency model the crash states are enumerated under. */
    ModelConfig model;

    /**
     * Scheduling decisions eligible for branching. Beyond this depth
     * the (fair, deterministic) round-robin frontier completes each
     * execution without forking alternatives.
     */
    std::uint64_t max_depth = 64;

    /** DFS execution budget (0 = unlimited). */
    std::uint64_t max_executions = 4096;

    /** Per-execution consistent-cut budget (0 = unlimited). */
    std::uint64_t max_cuts = 1ULL << 16;

    /**
     * Seeded-sampling fallback: when the DFS budget exhausts before
     * the decision tree is covered, run this many extra executions
     * with a seeded random frontier for tail coverage.
     */
    std::uint64_t samples = 0;

    /** Worker threads sharding the decision-prefix work queue. */
    std::uint32_t shards = 1;

    /** Seed for the sampling fallback. */
    std::uint64_t seed = 1;
};

/** A concrete, replayable recovery-correctness failure, minimized:
    the shortest reproducing decision prefix and a locally minimal
    violating cut (each costs a few replays). */
struct Counterexample
{
    /**
     * Decision string: indices into the sorted runnable set, one per
     * scheduling decision. Feeding it to ReplayPolicy (round-robin
     * frontier) reproduces the failing execution byte-for-byte.
     */
    std::vector<std::uint32_t> decisions;

    /** Fingerprint of the failing execution's event stream. */
    std::uint64_t fingerprint = 0;

    /** The failing crash state, as persist-DAG group ids. */
    std::vector<std::uint32_t> cut_groups;

    /** Invariant verdict on that crash state. */
    std::string violation;

    /** Human-readable cut listing (addresses, values, times). */
    std::string cut_detail;

    /** Render for reports. */
    std::string format() const;
};

/** Aggregate outcome of one exploration. */
struct ExploreResult
{
    std::uint64_t executions = 0;         //!< Schedules executed (DFS).
    std::uint64_t sampled_executions = 0; //!< Random-fallback runs.
    std::uint64_t distinct_executions = 0; //!< Unique fingerprints.
    std::uint64_t pruned_duplicates = 0;  //!< Equivalent interleavings.
    std::uint64_t truncated_executions = 0; //!< Aborted by event cap.
    std::uint64_t branch_points = 0;      //!< Alternatives discovered.
    std::uint64_t cuts_checked = 0;       //!< Crash states examined.
    std::uint64_t violations = 0;         //!< Crash states that failed.

    /** Crash states were enumerated on the projection onto the
        program's observed cells (ExploreProgram::observed is set);
        otherwise every consistent cut was checked. */
    bool projected = false;

    /** Projected analyses with zero observed persists: one invariant
        check replaced the whole enumeration (no DAG built). */
    std::uint64_t pruned_short_circuits = 0;

    /** DFS stopped with untried alternatives (budget or depth). */
    bool schedule_budget_exhausted = false;

    /** Some execution hit the per-execution cut budget. */
    bool cut_budget_exhausted = false;

    /** First failure found, minimized; nullopt when clean. */
    std::optional<Counterexample> counterexample;

    /**
     * True when the run proves the invariant: every schedule within
     * depth was executed, every crash state of every distinct
     * execution was checked, and none failed.
     */
    bool exhaustive() const
    {
        return !schedule_budget_exhausted && !cut_budget_exhausted &&
               truncated_executions == 0;
    }

    /** One-paragraph summary for logs and benches. */
    std::string summary() const;
};

/** Order-sensitive hash of an execution's event stream. */
std::uint64_t fingerprintTrace(const InMemoryTrace &trace);

/** Bounded exhaustive explorer over one program. */
class Explorer
{
  public:
    Explorer(ProgramFactory factory, ExploreConfig config);

    /** Run the exploration (callable once per Explorer). */
    ExploreResult run();

    /** One deterministic (re-)execution. */
    struct Execution
    {
        InMemoryTrace trace;
        std::vector<BranchPoint> decisions;
        std::uint64_t fingerprint = 0;
        RecoveryInvariant invariant;
        /** Copy of the program's observed cells (post-setup). */
        std::vector<ObservedCell> observed;
        bool diverged = false;
    };

    /**
     * Execute the program once, following @p prefix then the given
     * frontier. Deterministic for the round-robin frontier; the
     * primitive behind both exploration and counterexample replay.
     */
    Execution execute(const std::vector<std::uint32_t> &prefix,
                      FrontierKind frontier = FrontierKind::RoundRobin,
                      std::uint64_t seed = 1);

  private:
    struct Shared;

    /** Submit one DFS prefix to the pool (budget-checked at start). */
    void enqueue(TaskPool &pool, Shared &shared,
                 std::vector<std::uint32_t> prefix);

    /** Run + analyze one prefix; submit child work items to @p pool
        (null for sampled runs, which never fork children). */
    void process(TaskPool *pool, Shared &shared,
                 const std::vector<std::uint32_t> &prefix, bool sampled,
                 std::uint64_t sample_seed);

    /** Check one execution's crash states; minimize the first
        counterexample found. */
    void analyze(Shared &shared, const Execution &execution);

    /** Shortest prefix whose replay reproduces @p target. */
    std::vector<std::uint32_t>
    minimizeDecisions(const std::vector<std::uint32_t> &full,
                      std::uint64_t target_fingerprint);

    ProgramFactory factory_;
    ExploreConfig config_;
    bool ran_ = false;
};

} // namespace persim

#endif // PERSIM_EXPLORE_EXPLORE_HH
