/**
 * @file
 * Exhaustive recovery observer: every consistent cut, not a sample.
 *
 * recovery.hh realizes the paper's recovery observer stochastically
 * (random completion-time realizations, random crash times). For
 * bounded model checking that is not enough: a racing annotation bug
 * may survive only in one cut out of thousands. This module makes the
 * observer exhaustive:
 *
 *  - the persist log (with TimingConfig::record_deps) carries every
 *    direct ordering constraint, not just the timing argmax;
 *  - persists are grouped into *atomic units* (coalescing groups:
 *    persists that merged into one atomic device write — the observer
 *    can only see them together);
 *  - the observable crash states are exactly the downward-closed sets
 *    (order ideals) of the group DAG; we enumerate them all, rebuild
 *    each image incrementally, and run the caller's recovery
 *    invariant against every one.
 *
 * Ideal counts are exponential in the antichain width, so enumeration
 * takes a budget; callers bound their programs (and pick an atomic
 * persist granularity) so litmus-scale traces stay exhaustive.
 */

#ifndef PERSIM_RECOVERY_CUTS_HH
#define PERSIM_RECOVERY_CUTS_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "memtrace/sink.hh"
#include "nvram/crash_image.hh"
#include "persistency/persist_log.hh"
#include "persistency/timing_engine.hh"
#include "recovery/recovery.hh"
#include "sim/memory_image.hh"

namespace persim {

/**
 * The persist partial order, quotiented by coalescing groups. The
 * groups, their members and their (completion time, founder) order
 * are the crash plan's (nvram/crash_image.hh), whose numbering is
 * topological here; the DAG adds each group's direct predecessors.
 */
struct PersistDag
{
    CrashPlan plan;

    /** Direct predecessor groups of group k, ascending and
        deduplicated: preds[pred_begin[k], pred_begin[k + 1]). */
    std::vector<std::uint32_t> pred_begin{0};
    std::vector<std::uint32_t> preds;

    std::size_t groupCount() const { return plan.groupCount(); }

    std::span<const std::uint32_t>
    predsOf(std::size_t k) const
    {
        return {preds.data() + pred_begin[k], preds.data() + pred_begin[k + 1]};
    }
};

/**
 * Build the group DAG of @p log. Requires the log to have been
 * recorded with TimingConfig::record_deps (fatals when a multi-record
 * log carries no dependence sets yet binds records, i.e. the flag was
 * off), and fatals, as CrashPlan does, naming the word, when the
 * records writing one word are not in completion order in the log.
 */
PersistDag buildPersistDag(const PersistLog &log);

/** Outcome of an exhaustive crash-state check of one execution. */
struct CutCheckResult
{
    std::uint64_t cuts = 0;       //!< Consistent cuts examined.
    std::uint64_t violations = 0; //!< Cuts failing the invariant.

    /** True when max_cuts stopped enumeration before completion. */
    bool budget_exhausted = false;

    /** Invariant verdict for the first failing cut. */
    std::string first_violation;

    /** The first failing cut, as included group ids (ascending). */
    std::vector<std::uint32_t> first_violation_groups;

    /** Exhaustive and clean. */
    bool ok() const { return violations == 0 && !budget_exhausted; }
};

/**
 * Enumerate every consistent cut of @p dag (up to @p max_cuts; 0
 * means unlimited) and run @p invariant on each reconstructed image.
 * The empty and the complete cut are always among those examined.
 */
CutCheckResult checkAllCuts(const PersistLog &log, const PersistDag &dag,
                            const RecoveryInvariant &invariant,
                            std::uint64_t max_cuts = 1ULL << 20);

/** Half-open byte range [addr, addr + size) of observed state. */
struct AddrRange
{
    Addr addr = 0;
    std::uint64_t size = 0;
};

/**
 * Per-group observation mask: mask[g] is nonzero iff any member
 * record of group @p g overlaps one of the @p observed byte ranges.
 * Groups outside the mask cannot change any observed byte.
 */
std::vector<char> observedGroupMask(const PersistLog &log,
                                    const PersistDag &dag,
                                    const std::vector<AddrRange> &observed);

/**
 * Downward closure of @p groups under the DAG's predecessor relation:
 * the smallest consistent cut containing them. Used to expand a
 * pruned (observed-only) counterexample back into an observable
 * crash state.
 */
std::vector<std::uint32_t> downwardClosure(
    const PersistDag &dag, const std::vector<std::uint32_t> &groups);

/**
 * Constraint-guided pruned enumeration (DESIGN.md §14): like
 * checkAllCuts, but enumerates only cuts that can differ on the
 * @p observed byte ranges. The observable projections of the full
 * cut lattice are exactly the order ideals of the observed groups
 * under reachability *through* unobserved groups, so the count of
 * states examined collapses from O(2^antichain) in all groups to
 * O(2^antichain) in observed groups only — identical verdicts, same
 * observed-state coverage in both directions.
 *
 * Contract: @p invariant must depend only on bytes inside
 * @p observed (unobserved groups are never applied to the image it
 * sees). `cuts` counts distinct observable projections enumerated;
 * `first_violation_groups` is expanded via downwardClosure to a
 * genuine consistent cut, directly usable by minimizeViolatingCut.
 * With every group observed it is checkAllCuts.
 */
CutCheckResult checkObservedCuts(const PersistLog &log,
                                 const PersistDag &dag,
                                 const RecoveryInvariant &invariant,
                                 const std::vector<AddrRange> &observed,
                                 std::uint64_t max_cuts = 1ULL << 20);

/** Everything checkCrashStates derived from one execution. */
struct CrashStateCheck
{
    /** The replay's persist log (with dependence sets). */
    PersistLog log;

    /** The replay's result (race counts with detect_races). */
    TimingResult timing;

    /** Group DAG of `log`; empty when short_circuited. It holds no
        reference into `log`, so the check moves as one value. */
    PersistDag dag;

    CutCheckResult cuts;

    /**
     * No log record touches an observed byte, so every consistent cut
     * projects to the initial image: one invariant check on the empty
     * image replaced the enumeration and the DAG was not built.
     */
    bool short_circuited = false;
};

/**
 * The crash-state check of one execution: replay @p trace under
 * @p timing (its model and detect_races; record_log and record_deps
 * are forced on), build the persist DAG and run @p invariant on every
 * crash state. With @p observed empty that is checkAllCuts; otherwise
 * checkObservedCuts over those byte ranges, short-circuited as
 * described on CrashStateCheck. @p max_cuts as for checkAllCuts.
 */
CrashStateCheck checkCrashStates(const InMemoryTrace &trace,
                                 TimingConfig timing,
                                 const RecoveryInvariant &invariant,
                                 const std::vector<AddrRange> &observed,
                                 std::uint64_t max_cuts);

/**
 * Reconstruct the persistent image of one cut: apply every group in
 * @p groups in plan order. @p groups must be downward closed for the
 * result to be an observable crash state.
 */
MemoryImage reconstructImageFromGroups(
    const PersistLog &log, const PersistDag &dag,
    const std::vector<std::uint32_t> &groups);

/**
 * Shrink a violating cut: greedily drop maximal groups (those with no
 * included successor) while the invariant still fails. The result is
 * locally minimal — removing any single maximal group repairs it —
 * which turns a thousand-persist counterexample into the handful of
 * writes that actually conflict.
 */
std::vector<std::uint32_t> minimizeViolatingCut(
    const PersistLog &log, const PersistDag &dag,
    const RecoveryInvariant &invariant,
    std::vector<std::uint32_t> groups);

/** Render a cut (group ids + member writes) for counterexamples. */
std::string formatCut(const PersistLog &log, const PersistDag &dag,
                      const std::vector<std::uint32_t> &groups);

} // namespace persim

#endif // PERSIM_RECOVERY_CUTS_HH
