#include "explore/explore.hh"

#include <algorithm>
#include <mutex>
#include <sstream>
#include <unordered_set>

#include "common/error.hh"
#include "recovery/cuts.hh"

namespace persim {

namespace {

/** Safety net per execution (livelocked schedules abort), unless the
    program's EngineConfig sets its own max_events. */
constexpr std::uint64_t max_events_per_execution = 1ULL << 20;

/** Untried alternatives at branch points in [from, min(size, depth)). */
std::uint64_t
countBranchAlternatives(const std::vector<BranchPoint> &decisions,
                        std::size_t from, std::size_t depth)
{
    const std::size_t limit = std::min(decisions.size(), depth);
    std::uint64_t alternatives = 0;
    for (std::size_t i = from; i < limit; ++i)
        if (decisions[i].arity > 1)
            alternatives += decisions[i].arity - 1;
    return alternatives;
}

} // namespace

std::uint64_t
fingerprintTrace(const InMemoryTrace &trace)
{
    // FNV-1a over the fields that identify an interleaving: which
    // thread did what, where, with what value. Two executions with
    // equal streams are the same SC execution, so their crash-state
    // analyses are identical and one can be pruned.
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    auto mix = [&hash](std::uint64_t value) {
        hash ^= value;
        hash *= 0x100000001b3ULL;
    };
    for (const TraceEvent &event : trace.events()) {
        mix(event.thread);
        mix(static_cast<std::uint64_t>(event.kind));
        mix(event.addr);
        mix(event.size);
        mix(event.value);
    }
    return hash;
}

std::string
Counterexample::format() const
{
    std::ostringstream oss;
    oss << "violation: " << violation << "\n";
    oss << "decision string (" << decisions.size() << " decisions): ";
    for (std::size_t i = 0; i < decisions.size(); ++i)
        oss << (i ? "," : "") << decisions[i];
    oss << "\nexecution fingerprint: 0x" << std::hex << fingerprint
        << std::dec << "\ncrash cut: " << cut_detail;
    return oss.str();
}

std::string
ExploreResult::summary() const
{
    std::ostringstream oss;
    oss << executions << " executions (" << distinct_executions
        << " distinct, " << pruned_duplicates << " pruned, "
        << sampled_executions << " sampled, " << truncated_executions
        << " truncated), " << cuts_checked << " crash states checked, "
        << violations << " violations";
    if (projected)
        oss << "; checks projected onto observed cells ("
            << pruned_short_circuits << " short-circuited)";
    if (schedule_budget_exhausted)
        oss << "; schedule budget exhausted";
    if (cut_budget_exhausted)
        oss << "; cut budget exhausted";
    oss << (exhaustive() ? "; exhaustive within depth" : "");
    return oss.str();
}

/** State shared by the pool tasks of one exploration. */
struct Explorer::Shared
{
    std::mutex mutex;

    /** Executions started (budget accounting). */
    std::uint64_t started = 0;

    /** Fingerprints of executions already analyzed. */
    std::unordered_set<std::uint64_t> seen;

    /** True once a counterexample claim is taken (minimize once). */
    bool counterexample_claimed = false;

    ExploreResult result;
};

Explorer::Explorer(ProgramFactory factory, ExploreConfig config)
    : factory_(std::move(factory)), config_(config)
{
    PERSIM_REQUIRE(factory_ != nullptr, "explorer needs a program");
    PERSIM_REQUIRE(config_.shards >= 1, "at least one shard");
    config_.model.validate();
}

Explorer::Execution
Explorer::execute(const std::vector<std::uint32_t> &prefix,
                  FrontierKind frontier, std::uint64_t seed)
{
    ExploreProgram program = factory_();
    PERSIM_REQUIRE(!program.workers.empty(),
                   "program has no worker threads");

    Execution out;
    ReplayPolicy policy(prefix, frontier, seed);
    EngineConfig engine_config = program.engine;
    if (engine_config.max_events == 0)
        engine_config.max_events = max_events_per_execution;
    ExecutionEngine engine(engine_config, &out.trace, &policy);
    if (program.setup)
        engine.runSetup(program.setup);
    engine.run(program.workers);

    out.decisions = policy.decisions();
    out.diverged = policy.diverged();
    out.fingerprint = fingerprintTrace(out.trace);
    if (program.invariant)
        out.invariant = program.invariant();
    if (program.observed)
        out.observed = *program.observed;
    return out;
}

std::vector<std::uint32_t>
Explorer::minimizeDecisions(const std::vector<std::uint32_t> &full,
                            std::uint64_t target_fingerprint)
{
    // The round-robin frontier is deterministic, so "prefix length L
    // reproduces the execution" is monotone in L: binary search the
    // shortest such prefix.
    std::size_t lo = 0;
    std::size_t hi = full.size();
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        std::vector<std::uint32_t> candidate(full.begin(),
                                             full.begin() + mid);
        bool reproduces = false;
        try {
            reproduces =
                execute(candidate).fingerprint == target_fingerprint;
        } catch (const FatalError &) {
            reproduces = false;
        }
        if (reproduces)
            hi = mid;
        else
            lo = mid + 1;
    }
    return std::vector<std::uint32_t>(full.begin(), full.begin() + hi);
}

void
Explorer::analyze(Shared &shared, const Execution &execution)
{
    // A program that declares the cells its invariant reads is checked
    // over the crash states that can differ on them; one that does
    // not, over every consistent cut.
    std::vector<AddrRange> ranges;
    ranges.reserve(execution.observed.size());
    for (const ObservedCell &cell : execution.observed)
        ranges.push_back(AddrRange{cell.addr, cell.size});

    RecoveryInvariant invariant = execution.invariant;
    if (!invariant)
        invariant = [](const MemoryImage &) { return std::string(); };

    TimingConfig timing;
    timing.model = config_.model;
    CrashStateCheck check = checkCrashStates(execution.trace, timing,
                                             invariant, ranges,
                                             config_.max_cuts);
    const CutCheckResult &cuts = check.cuts;

    bool claim = false;
    {
        std::lock_guard<std::mutex> guard(shared.mutex);
        shared.result.cuts_checked += cuts.cuts;
        shared.result.violations += cuts.violations;
        shared.result.cut_budget_exhausted |= cuts.budget_exhausted;
        if (!ranges.empty())
            shared.result.projected = true;
        if (check.short_circuited)
            ++shared.result.pruned_short_circuits;
        if (cuts.violations > 0 && !shared.counterexample_claimed) {
            shared.counterexample_claimed = true;
            claim = true;
        }
    }
    if (!claim)
        return;

    // Build the minimized counterexample (outside the lock: it costs
    // a handful of replays; other shards keep exploring meanwhile).
    std::vector<std::uint32_t> full_decisions;
    full_decisions.reserve(execution.decisions.size());
    for (const BranchPoint &bp : execution.decisions)
        full_decisions.push_back(bp.chosen);

    // A short-circuited check failed on the empty cut and skipped the
    // DAG; the cut helpers below still index records by group.
    const PersistLog &log = check.log;
    if (check.short_circuited)
        check.dag = buildPersistDag(log);
    const PersistDag &dag = check.dag;

    Counterexample ce;
    ce.fingerprint = execution.fingerprint;
    ce.violation = cuts.first_violation;
    ce.decisions = minimizeDecisions(full_decisions, execution.fingerprint);
    ce.cut_groups = minimizeViolatingCut(log, dag, invariant,
                                         cuts.first_violation_groups);
    // Re-derive the verdict for the (possibly smaller) final cut.
    const MemoryImage image =
        reconstructImageFromGroups(log, dag, ce.cut_groups);
    const std::string verdict = invariant(image);
    if (!verdict.empty())
        ce.violation = verdict;
    ce.cut_detail = formatCut(log, dag, ce.cut_groups);

    std::lock_guard<std::mutex> guard(shared.mutex);
    shared.result.counterexample = std::move(ce);
}

void
Explorer::process(TaskPool *pool, Shared &shared,
                  const std::vector<std::uint32_t> &prefix, bool sampled,
                  std::uint64_t sample_seed)
{
    Execution execution;
    try {
        execution = execute(prefix,
                            sampled ? FrontierKind::Random
                                    : FrontierKind::RoundRobin,
                            sample_seed);
    } catch (const FatalError &) {
        std::lock_guard<std::mutex> guard(shared.mutex);
        ++shared.result.truncated_executions;
        return;
    }

    bool fresh = false;
    {
        std::lock_guard<std::mutex> guard(shared.mutex);
        fresh = shared.seen.insert(execution.fingerprint).second;
        if (fresh)
            ++shared.result.distinct_executions;
        else
            ++shared.result.pruned_duplicates;

        if (!sampled) {
            shared.result.branch_points += countBranchAlternatives(
                execution.decisions, prefix.size(),
                static_cast<std::size_t>(config_.max_depth));
            if (execution.decisions.size() >
                static_cast<std::size_t>(config_.max_depth)) {
                // Branches beyond the depth bound were not explored.
                for (std::size_t i = config_.max_depth;
                     i < execution.decisions.size(); ++i) {
                    if (execution.decisions[i].arity > 1) {
                        shared.result.schedule_budget_exhausted = true;
                        break;
                    }
                }
            }
        }
    }

    if (!sampled) {
        // Expand untried siblings along this execution's decision
        // suffix, deepest-first: the pool runs the newest submission
        // first, so this walks the tree depth-first-ish, exactly like
        // the LIFO stack it replaces.
        const std::size_t limit = std::min<std::size_t>(
            execution.decisions.size(),
            static_cast<std::size_t>(config_.max_depth));
        for (std::size_t i = limit; i-- > prefix.size();) {
            const BranchPoint &bp = execution.decisions[i];
            if (bp.arity <= 1)
                continue;
            std::vector<std::uint32_t> base;
            base.reserve(i + 1);
            for (std::size_t k = 0; k < i; ++k)
                base.push_back(execution.decisions[k].chosen);
            for (std::uint32_t alt = bp.arity; alt-- > 0;) {
                if (alt == bp.chosen)
                    continue;
                std::vector<std::uint32_t> child = base;
                child.push_back(alt);
                enqueue(*pool, shared, std::move(child));
            }
        }
    }

    if (fresh)
        analyze(shared, execution);
}

void
Explorer::enqueue(TaskPool &pool, Shared &shared,
                  std::vector<std::uint32_t> prefix)
{
    pool.submit([this, &pool, &shared, prefix = std::move(prefix)] {
        {
            std::lock_guard<std::mutex> guard(shared.mutex);
            if (config_.max_executions > 0 &&
                shared.started >= config_.max_executions) {
                // Budget exhausted with work left: drop this item.
                shared.result.schedule_budget_exhausted = true;
                return;
            }
            ++shared.started;
            ++shared.result.executions;
        }
        process(&pool, shared, prefix, false, 1);
    });
}

ExploreResult
Explorer::run()
{
    PERSIM_REQUIRE(!ran_, "an Explorer can only run once");
    ran_ = true;

    Shared shared;
    TaskPool pool(config_.shards);
    enqueue(pool, shared, {});
    pool.wait();

    // Seeded-sampling fallback: the DFS budget ran out before the
    // tree was covered, so buy tail coverage with random schedules.
    if (shared.result.schedule_budget_exhausted && config_.samples > 0) {
        for (std::uint64_t s = 0; s < config_.samples; ++s) {
            const std::uint64_t seed = config_.seed + s;
            pool.submit([this, &shared, seed] {
                {
                    std::lock_guard<std::mutex> guard(shared.mutex);
                    ++shared.result.executions;
                    ++shared.result.sampled_executions;
                }
                process(nullptr, shared, {}, true, seed);
            });
        }
        pool.wait();
    }

    return shared.result;
}

} // namespace persim
