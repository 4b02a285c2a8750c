#include "recovery/cuts.hh"

#include <algorithm>
#include <sstream>

#include "common/error.hh"

namespace persim {

PersistDag
buildPersistDag(const PersistLog &log)
{
    PersistDag dag;
    dag.plan = CrashPlan(log, FaultConfig{});
    const CrashPlan &plan = dag.plan;
    // Every dependence outside a record's own group is a direct
    // predecessor of the group.
    for (std::uint32_t k = 0; k < dag.groupCount(); ++k) {
        const PersistRecord &founder = log[plan.founder(k)];
        PERSIM_REQUIRE(founder.binding == invalid_persist ||
                       !founder.deps.empty(),
                       "persist log lacks dependence sets: record "
                       "the trace with TimingConfig::record_deps");
        const std::size_t first = dag.preds.size();
        for (const std::uint32_t i : plan.membersOf(k)) {
            for (const PersistId d : log[i].deps) {
                PERSIM_REQUIRE(d < i, "dependence on a later persist");
                const std::uint32_t pg = plan.group[d];
                if (pg == k)
                    continue;
                PERSIM_ASSERT(pg < k,
                              "constraint edge does not increase time");
                dag.preds.push_back(pg);
            }
        }
        std::sort(dag.preds.begin() + first, dag.preds.end());
        dag.preds.erase(
            std::unique(dag.preds.begin() + first, dag.preds.end()),
            dag.preds.end());
        dag.pred_begin.push_back(
            static_cast<std::uint32_t>(dag.preds.size()));
    }
    return dag;
}

namespace {

/** Does @p record write a byte inside one of @p ranges? */
bool
overlapsAny(const PersistRecord &record,
            const std::vector<AddrRange> &ranges)
{
    return std::any_of(ranges.begin(), ranges.end(),
                       [&](const AddrRange &range) {
                           return record.addr < range.addr + range.size &&
                                  range.addr < record.addr + record.size;
                       });
}

/**
 * Enumerate the order ideals of the groups @p mask selects, under
 * reachability through unselected groups, and run @p invariant on the
 * image of each — applying only selected groups. With every group
 * selected these are exactly the consistent cuts.
 */
CutCheckResult
enumerateCuts(const PersistLog &log, const PersistDag &dag,
              const RecoveryInvariant &invariant,
              const std::vector<char> &mask, std::uint64_t max_cuts)
{
    // Selected groups in id (topological) order, and for every group
    // the positions of the selected groups nearest above it, through
    // unselected ones too (dropping those paths would admit states no
    // real cut has). Nearest is enough: included sets stay closed.
    const std::size_t n = dag.groupCount();
    std::vector<std::uint32_t> selected;
    std::vector<std::uint32_t> position(n);
    std::vector<std::uint32_t> above;           // Group g's positions are
    std::vector<std::uint32_t> above_begin{0};  // above[begin[g], begin[g+1]).
    for (std::uint32_t g = 0; g < n; ++g) {
        const std::size_t first = above.size();
        for (const std::uint32_t p : dag.predsOf(g)) {
            if (mask[p])
                above.push_back(position[p]);
            else
                for (std::uint32_t k = above_begin[p];
                     k < above_begin[p + 1]; ++k)
                    above.push_back(above[k]);
        }
        std::sort(above.begin() + first, above.end());
        above.erase(std::unique(above.begin() + first, above.end()),
                    above.end());
        above_begin.push_back(static_cast<std::uint32_t>(above.size()));
        if (mask[g]) {
            position[g] = static_cast<std::uint32_t>(selected.size());
            selected.push_back(g);
        }
    }

    // Depth-first over the selected groups: each complete assignment
    // respecting the order is one state. Apply on include and rollback
    // on backtrack make C states cost O(C + total writes).
    CutCheckResult result;
    CrashImageBuilder image(log, dag.plan);
    std::vector<char> included(selected.size(), 0);
    std::vector<std::uint32_t> chosen;
    bool stop = false;
    auto visit = [&](auto &&self, std::size_t j) -> void {
        if (stop)
            return;
        if (j == selected.size()) {
            ++result.cuts;
            const std::string verdict = invariant(image.image());
            if (!verdict.empty()) {
                ++result.violations;
                if (result.first_violation.empty()) {
                    result.first_violation = verdict;
                    result.first_violation_groups =
                        downwardClosure(dag, chosen);
                }
            }
            if (max_cuts > 0 && result.cuts >= max_cuts) {
                stop = true;
                result.budget_exhausted = true;
            }
            return;
        }
        // Exclude branch first: cuts grow from empty toward complete,
        // so truncation by budget still covers the small crash states.
        self(self, j + 1);
        const std::uint32_t g = selected[j];
        if (stop || !std::all_of(above.begin() + above_begin[g],
                                 above.begin() + above_begin[g + 1],
                                 [&](std::uint32_t q) {
                                     return included[q] != 0;
                                 }))
            return;
        const std::size_t mark = image.mark();
        image.applyGroup(g);
        included[j] = 1;
        chosen.push_back(g);
        self(self, j + 1);
        chosen.pop_back();
        included[j] = 0;
        image.rollback(mark);
    };
    visit(visit, 0);
    return result;
}

} // namespace

CutCheckResult
checkAllCuts(const PersistLog &log, const PersistDag &dag,
             const RecoveryInvariant &invariant, std::uint64_t max_cuts)
{
    return enumerateCuts(log, dag, invariant,
                         std::vector<char>(dag.groupCount(), 1),
                         max_cuts);
}

std::vector<char>
observedGroupMask(const PersistLog &log, const PersistDag &dag,
                  const std::vector<AddrRange> &observed)
{
    std::vector<char> mask(dag.groupCount(), 0);
    for (std::size_t i = 0; i < log.size(); ++i)
        if (overlapsAny(log[i], observed))
            mask[dag.plan.group[i]] = 1;
    return mask;
}

std::vector<std::uint32_t>
downwardClosure(const PersistDag &dag,
                const std::vector<std::uint32_t> &groups)
{
    std::vector<char> included(dag.groupCount(), 0);
    for (const std::uint32_t g : groups) {
        PERSIM_REQUIRE(g < dag.groupCount(), "cut names unknown group");
        included[g] = 1;
    }
    // Ids are topologically sorted, so predecessors are strictly
    // smaller and one descending pass reaches the fixpoint.
    for (std::uint32_t g = static_cast<std::uint32_t>(dag.groupCount());
         g-- > 0;) {
        if (!included[g])
            continue;
        for (const std::uint32_t p : dag.predsOf(g))
            included[p] = 1;
    }
    std::vector<std::uint32_t> closure;
    for (std::uint32_t g = 0; g < dag.groupCount(); ++g)
        if (included[g])
            closure.push_back(g);
    return closure;
}

CutCheckResult
checkObservedCuts(const PersistLog &log, const PersistDag &dag,
                  const RecoveryInvariant &invariant,
                  const std::vector<AddrRange> &observed,
                  std::uint64_t max_cuts)
{
    // The projections of the full cut lattice onto the observed
    // groups are exactly the ideals of the order they induce (closure
    // in the full DAG restores any such set to a consistent cut
    // without adding observed groups), and unobserved groups never
    // write observed bytes, so the image sees everything the
    // invariant may read.
    return enumerateCuts(log, dag, invariant,
                         observedGroupMask(log, dag, observed), max_cuts);
}

CrashStateCheck
checkCrashStates(const InMemoryTrace &trace, TimingConfig timing,
                 const RecoveryInvariant &invariant,
                 const std::vector<AddrRange> &observed,
                 std::uint64_t max_cuts)
{
    timing.record_log = true;
    timing.record_deps = true;
    PersistTimingEngine engine(timing);
    trace.replay(engine);

    CrashStateCheck out;
    out.log = engine.takeLog();
    out.timing = engine.result();
    if (!observed.empty() &&
        std::none_of(out.log.begin(), out.log.end(),
                     [&](const PersistRecord &record) {
                         return overlapsAny(record, observed);
                     })) {
        out.short_circuited = true;
        out.cuts.cuts = 1;
        const std::string verdict = invariant(MemoryImage{});
        if (!verdict.empty()) {
            out.cuts.violations = 1;
            out.cuts.first_violation = verdict;
        }
        return out;
    }
    out.dag = buildPersistDag(out.log);
    out.cuts = observed.empty()
        ? checkAllCuts(out.log, out.dag, invariant, max_cuts)
        : checkObservedCuts(out.log, out.dag, invariant, observed,
                            max_cuts);
    return out;
}

MemoryImage
reconstructImageFromGroups(const PersistLog &log, const PersistDag &dag,
                           const std::vector<std::uint32_t> &groups)
{
    std::vector<char> included(dag.groupCount(), 0);
    for (const std::uint32_t g : groups) {
        PERSIM_REQUIRE(g < dag.groupCount(), "cut names unknown group");
        included[g] = 1;
    }
    // The plan refused any log whose per-word log order disagrees with
    // plan order, so this is the observer's log-order image.
    CrashImageBuilder image(log, dag.plan);
    for (std::uint32_t g = 0; g < dag.groupCount(); ++g) {
        if (included[g])
            image.applyGroup(g);
    }
    return image.take();
}

std::vector<std::uint32_t>
minimizeViolatingCut(const PersistLog &log, const PersistDag &dag,
                     const RecoveryInvariant &invariant,
                     std::vector<std::uint32_t> groups)
{
    std::vector<char> included(dag.groupCount(), 0);
    for (const std::uint32_t g : groups)
        included[g] = 1;
    // succ_count[g] = included groups that directly depend on g: only
    // maximal groups (succ_count 0) may be dropped without breaking
    // downward closure.
    std::vector<std::uint32_t> succ_count(dag.groupCount(), 0);
    auto recountSuccs = [&] {
        std::fill(succ_count.begin(), succ_count.end(), 0);
        for (std::uint32_t g = 0; g < dag.groupCount(); ++g) {
            if (!included[g])
                continue;
            for (const std::uint32_t p : dag.predsOf(g))
                ++succ_count[p];
        }
    };
    recountSuccs();

    bool shrunk = true;
    while (shrunk) {
        shrunk = false;
        // Try dropping maximal groups newest-first: later persists are
        // usually the irrelevant tail of the trace.
        for (auto it = groups.rbegin(); it != groups.rend(); ++it) {
            const std::uint32_t g = *it;
            if (succ_count[g] != 0)
                continue;
            included[g] = 0;
            std::vector<std::uint32_t> candidate;
            candidate.reserve(groups.size() - 1);
            for (const std::uint32_t h : groups) {
                if (h != g)
                    candidate.push_back(h);
            }
            const MemoryImage image =
                reconstructImageFromGroups(log, dag, candidate);
            if (!invariant(image).empty()) {
                groups = std::move(candidate);
                recountSuccs();
                shrunk = true;
                break;
            }
            included[g] = 1;
        }
    }
    std::sort(groups.begin(), groups.end());
    return groups;
}

std::string
formatCut(const PersistLog &log, const PersistDag &dag,
          const std::vector<std::uint32_t> &groups)
{
    std::ostringstream oss;
    oss << groups.size() << " of " << dag.groupCount()
        << " atomic persist groups in the crash state:\n";
    std::size_t lines = 0;
    for (const std::uint32_t g : groups) {
        for (const std::uint32_t i : dag.plan.membersOf(g)) {
            const PersistRecord &record = log[i];
            if (++lines > 64) {
                oss << "  ... (" << groups.size() << " groups total)\n";
                return oss.str();
            }
            oss << "  group " << g << " t=" << record.time
                << " seq=" << record.seq
                << " thread=" << record.thread
                << " addr=0x" << std::hex << record.addr << std::dec
                << " size=" << static_cast<unsigned>(record.size)
                << " value=0x" << std::hex << record.value << std::dec
                << "\n";
        }
    }
    return oss.str();
}

} // namespace persim
