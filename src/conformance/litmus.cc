#include "conformance/litmus.hh"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/error.hh"
#include "common/task_pool.hh"
#include "explore/programs.hh"
#include "memtrace/event.hh"
#include "recovery/cuts.hh"

namespace persim {

namespace {

/** Random-frontier schedules per test, on top of round-robin. */
constexpr std::uint32_t random_schedules = 4;

/** Consistent-cut budget per (trace, model) check. */
constexpr std::uint64_t max_cuts = 1ULL << 20;

/** Working set of a hand-written litmus: named cells + a volatile
    flag, filled during setup. */
struct LitmusCells
{
    std::vector<Addr> cell;
    Addr vflag = invalid_addr;
};

using LitmusBody =
    std::function<void(ThreadCtx &, const LitmusCells &)>;

/**
 * Package a hand-written litmus: each named cell gets its own cache
 * line (so flushes never alias across variables), plus an optional
 * volatile flag for message passing. Executed on the TSO simulator —
 * the consistency model Px86 is defined over.
 */
LitmusTest
makeHandTest(std::string name, std::string note,
             std::vector<std::string> cells, bool vflag,
             std::vector<LitmusBody> workers)
{
    LitmusTest test;
    test.name = std::move(name);
    test.note = std::move(note);
    test.make = [cells, vflag, workers]() {
        auto state = std::make_shared<LitmusCells>();
        ExploreProgram program;
        program.observed = std::make_shared<std::vector<ObservedCell>>();
        auto observed = program.observed;
        program.engine.consistency = ConsistencyModel::TSO;
        program.setup = [state, observed, cells,
                         vflag](ThreadCtx &ctx) {
            state->cell.clear();
            observed->clear();
            for (const std::string &cell_name : cells) {
                const Addr addr = ctx.pmalloc(8, cache_line_bytes);
                state->cell.push_back(addr);
                observed->push_back(ObservedCell{cell_name, addr, 8});
            }
            if (vflag)
                state->vflag = ctx.vmalloc(8);
        };
        for (const LitmusBody &body : workers)
            program.workers.push_back(
                [state, body](ThreadCtx &ctx) { body(ctx, *state); });
        return program;
    };
    return test;
}

/** Bounded spin on a volatile flag (TSO: the peer's store may still
    sit in its store buffer; retries give background drain a chance). */
bool
awaitFlag(ThreadCtx &ctx, Addr flag)
{
    for (int spin = 0; spin < 24; ++spin) {
        if (ctx.load(flag) == 1)
            return true;
    }
    return false;
}

} // namespace

std::vector<LitmusTest>
handwrittenLitmusTests()
{
    std::vector<LitmusTest> tests;

    tests.push_back(makeHandTest(
        "clflush_chain",
        "clflush orders before younger stores: y without x forbidden "
        "under px86, allowed under barrier-free epoch",
        {"x", "y"}, false,
        {[](ThreadCtx &ctx, const LitmusCells &c) {
            ctx.store(c.cell[0], 1);
            ctx.clflush(c.cell[0]);
            ctx.store(c.cell[1], 1);
            ctx.clflushopt(c.cell[1]);
            ctx.sfence();
        }}));

    tests.push_back(makeHandTest(
        "clflushopt_overtaken",
        "a younger clflush overtakes an older unfenced clflushopt: "
        "y without x allowed under px86 and epoch, forbidden under "
        "strict",
        {"x", "y"}, false,
        {[](ThreadCtx &ctx, const LitmusCells &c) {
            ctx.store(c.cell[0], 1);
            ctx.clflushopt(c.cell[0]);
            ctx.store(c.cell[1], 1);
            ctx.clflush(c.cell[1]);
            ctx.sfence();
        }}));

    tests.push_back(makeHandTest(
        "epoch_vs_sfence",
        "an sfence alone persists nothing: px86 reaches y without x "
        "(x is never flushed) while epoch's barrier reading of sfence "
        "orders x before y and persists both",
        {"x", "y"}, false,
        {[](ThreadCtx &ctx, const LitmusCells &c) {
            ctx.store(c.cell[0], 1);
            ctx.sfence();
            ctx.store(c.cell[1], 1);
            ctx.clflushopt(c.cell[1]);
            ctx.sfence();
        }}));

    tests.push_back(makeHandTest(
        "flushopt_sfence_ordered",
        "clflushopt; sfence before the next store restores epoch-like "
        "ordering: px86 and epoch agree",
        {"x", "y"}, false,
        {[](ThreadCtx &ctx, const LitmusCells &c) {
            ctx.store(c.cell[0], 1);
            ctx.clflushopt(c.cell[0]);
            ctx.sfence();
            ctx.store(c.cell[1], 1);
            ctx.clflushopt(c.cell[1]);
            ctx.sfence();
        }}));

    tests.push_back(makeHandTest(
        "store_no_flush",
        "an unflushed store is never durable under px86; the SC "
        "models persist it at the store",
        {"x"}, false,
        {[](ThreadCtx &ctx, const LitmusCells &c) {
            ctx.store(c.cell[0], 1);
        }}));

    tests.push_back(makeHandTest(
        "message_passing_flush",
        "durable-before-visible: the consumer inherits the producer's "
        "clflush through the volatile flag, so px86 forbids y without "
        "x where barrier-free epoch allows it",
        {"x", "y"}, true,
        {[](ThreadCtx &ctx, const LitmusCells &c) {
             ctx.store(c.cell[0], 1);
             ctx.clflush(c.cell[0]);
             ctx.store(c.vflag, 1);
         },
         [](ThreadCtx &ctx, const LitmusCells &c) {
             if (awaitFlag(ctx, c.vflag)) {
                 ctx.store(c.cell[1], 1);
                 ctx.clflushopt(c.cell[1]);
                 ctx.sfence();
             }
         }}));

    tests.push_back(makeHandTest(
        "mfence_same_as_sfence",
        "mfence carries the same persistency semantics as sfence "
        "(compare with flushopt_sfence_ordered)",
        {"x", "y"}, false,
        {[](ThreadCtx &ctx, const LitmusCells &c) {
            ctx.store(c.cell[0], 1);
            ctx.clflushopt(c.cell[0]);
            ctx.mfence();
            ctx.store(c.cell[1], 1);
            ctx.clflushopt(c.cell[1]);
            ctx.mfence();
        }}));

    {
        // Two words of ONE cache line, flushed between the stores:
        // px86 issues two line persists and the intermediate state
        // (a=1, b=0) is reachable; epoch at 64-byte atomicity
        // coalesces both stores into one atomic persist and hides it.
        LitmusTest test;
        test.name = "same_line_two_flushes";
        test.note =
            "flushing a line between stores exposes the intermediate "
            "per-line state that epoch's 64-byte coalescing hides";
        test.make = []() {
            auto state = std::make_shared<LitmusCells>();
            ExploreProgram program;
            program.observed =
                std::make_shared<std::vector<ObservedCell>>();
            auto observed = program.observed;
            program.engine.consistency = ConsistencyModel::TSO;
            program.setup = [state, observed](ThreadCtx &ctx) {
                state->cell.clear();
                observed->clear();
                const Addr line =
                    ctx.pmalloc(cache_line_bytes, cache_line_bytes);
                state->cell.push_back(line);
                state->cell.push_back(line + 8);
                observed->push_back(ObservedCell{"a", line, 8});
                observed->push_back(ObservedCell{"b", line + 8, 8});
            };
            program.workers.push_back([state](ThreadCtx &ctx) {
                ctx.store(state->cell[0], 1);
                ctx.clflushopt(state->cell[0]);
                ctx.store(state->cell[1], 1);
                ctx.clflushopt(state->cell[1]);
                ctx.sfence();
            });
            return program;
        };
        tests.push_back(std::move(test));
    }

    tests.push_back(makeHandTest(
        "clwb_same_as_clflushopt",
        "clwb orders exactly like clflushopt (no invalidate is "
        "modeled; compare with flushopt_sfence_ordered)",
        {"x", "y"}, false,
        {[](ThreadCtx &ctx, const LitmusCells &c) {
            ctx.store(c.cell[0], 1);
            ctx.clwb(c.cell[0]);
            ctx.sfence();
            ctx.store(c.cell[1], 1);
            ctx.clwb(c.cell[1]);
            ctx.sfence();
        }}));

    tests.push_back(makeHandTest(
        "sfence_alone_persists_nothing",
        "sfence orders flushes but flushes nothing itself: x stays "
        "volatile under px86",
        {"x"}, false,
        {[](ThreadCtx &ctx, const LitmusCells &c) {
            ctx.store(c.cell[0], 1);
            ctx.sfence();
            ctx.sfence();
        }}));

    tests.push_back(makeHandTest(
        "dirty_read_race",
        "seeded persistency race: the consumer reads x while it is "
        "dirty (never flushed) and persists y — recovery can see y "
        "without x; PersistRace flags it (dirty_read under px86, "
        "unordered_persist under the SC-shadow models)",
        {"x", "y"}, true,
        {[](ThreadCtx &ctx, const LitmusCells &c) {
             ctx.store(c.cell[0], 1);
             // Bug under test: no flush of x before publishing.
             ctx.store(c.vflag, 1);
         },
         [](ThreadCtx &ctx, const LitmusCells &c) {
             if (awaitFlag(ctx, c.vflag)) {
                 (void)ctx.load(c.cell[0]);
                 ctx.store(c.cell[1], 1);
                 ctx.clflushopt(c.cell[1]);
                 ctx.sfence();
             }
         }}));

    tests.push_back(makeHandTest(
        "independent_flushes",
        "unrelated lines flushed by unrelated threads stay unordered "
        "under every model (schedule-union sanity row)",
        {"x", "y"}, false,
        {[](ThreadCtx &ctx, const LitmusCells &c) {
             ctx.store(c.cell[0], 1);
             ctx.clflush(c.cell[0]);
         },
         [](ThreadCtx &ctx, const LitmusCells &c) {
             ctx.store(c.cell[1], 1);
             ctx.clflush(c.cell[1]);
         }}));

    return tests;
}

std::vector<LitmusTest>
generatedLitmusTests(std::size_t count, std::uint64_t seed0)
{
    std::vector<LitmusTest> tests;
    tests.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t seed = seed0 + i;
        LitmusTest test;
        test.name = "random_flush_" + std::to_string(seed);
        test.note = "seeded random flush program "
                    "(programs.hh randomProgram, allow_flushes)";
        test.make = [seed]() {
            RandomProgramOptions opts;
            opts.threads = 2;
            opts.ops_per_thread = 7;
            opts.scratch_cells = 3;
            opts.volatile_cells = 2;
            opts.allow_strands = false;
            opts.allow_flushes = true;
            auto layout = std::make_shared<RandomProgramLayout>();
            ExploreProgram program = randomProgram(seed, opts, layout)();
            program.engine.consistency = ConsistencyModel::TSO;
            program.observed =
                std::make_shared<std::vector<ObservedCell>>();
            auto observed = program.observed;
            const auto inner = program.setup;
            program.setup = [inner, layout, observed,
                             opts](ThreadCtx &ctx) {
                inner(ctx);
                observed->clear();
                for (std::uint32_t c = 0; c < opts.scratch_cells; ++c)
                    observed->push_back(
                        ObservedCell{"s" + std::to_string(c),
                                     layout->scratch + c * 8ULL, 8});
                for (std::uint32_t t = 0; t < opts.threads; ++t) {
                    observed->push_back(
                        ObservedCell{"data" + std::to_string(t),
                                     layout->data + t * 8ULL, 8});
                    observed->push_back(
                        ObservedCell{"flag" + std::to_string(t),
                                     layout->flag + t * 8ULL, 8});
                }
            };
            return program;
        };
        tests.push_back(std::move(test));
    }
    return tests;
}

std::vector<LitmusTest>
allLitmusTests()
{
    std::vector<LitmusTest> tests = handwrittenLitmusTests();
    std::vector<LitmusTest> generated = generatedLitmusTests();
    for (LitmusTest &test : generated)
        tests.push_back(std::move(test));
    return tests;
}

std::vector<ModelConfig>
conformanceModels()
{
    ModelConfig strict = ModelConfig::strict();
    strict.atomic_granularity = cache_line_bytes;
    ModelConfig epoch = ModelConfig::epoch();
    epoch.atomic_granularity = cache_line_bytes;
    ModelConfig strand = ModelConfig::strand();
    strand.atomic_granularity = cache_line_bytes;
    return {strict, epoch, strand, ModelConfig::px86()};
}

namespace {

LitmusResult
runOneTest(const LitmusTest &test, const std::vector<ModelConfig> &models)
{
    LitmusResult out;
    out.name = test.name;
    out.note = test.note;

    // Deterministic schedule set: the round-robin frontier plus fixed
    // random-frontier seeds, pruned to distinct executions.
    Explorer explorer(test.make, ExploreConfig{});
    std::vector<Explorer::Execution> executions;
    std::set<std::uint64_t> fingerprints;
    const auto consider = [&](FrontierKind frontier, std::uint64_t seed) {
        Explorer::Execution execution =
            explorer.execute({}, frontier, seed);
        PERSIM_REQUIRE(!execution.observed.empty(),
                       "litmus program observed no cells");
        if (fingerprints.insert(execution.fingerprint).second)
            executions.push_back(std::move(execution));
    };
    consider(FrontierKind::RoundRobin, 1);
    for (std::uint32_t s = 1; s <= random_schedules; ++s)
        consider(FrontierKind::Random, s);
    out.schedules = executions.size();

    for (const ModelConfig &model : models) {
        ModelStates entry;
        entry.model = model.name();
        std::set<std::string> states;
        for (const Explorer::Execution &execution : executions) {
            TimingConfig timing;
            timing.model = model;
            timing.detect_races = true;
            std::vector<AddrRange> ranges;
            for (const ObservedCell &cell : execution.observed)
                ranges.push_back(AddrRange{cell.addr, cell.size});

            const RecoveryInvariant fingerprint =
                [&states, &execution](
                    const MemoryImage &image) -> std::string {
                std::string state;
                for (const ObservedCell &cell : execution.observed) {
                    if (!state.empty())
                        state += ' ';
                    state += cell.name;
                    state += '=';
                    state +=
                        std::to_string(image.load(cell.addr, cell.size));
                }
                states.insert(std::move(state));
                return "";
            };
            const CrashStateCheck check = checkCrashStates(
                execution.trace, timing, fingerprint, ranges, max_cuts);
            entry.persist_races +=
                check.timing.races + check.timing.dirty_reads;
            entry.budget_exhausted |= check.cuts.budget_exhausted;
        }
        entry.states.assign(states.begin(), states.end());
        out.models.push_back(std::move(entry));
    }
    return out;
}

/** Render a state set, elided beyond a cap to keep reports legible. */
void
renderStates(std::ostringstream &oss,
             const std::vector<std::string> &states)
{
    constexpr std::size_t cap = 24;
    oss << states.size() << " state" << (states.size() == 1 ? "" : "s");
    for (std::size_t i = 0; i < states.size() && i < cap; ++i)
        oss << (i == 0 ? ": " : " | ") << '{' << states[i] << '}';
    if (states.size() > cap)
        oss << " | ...";
}

} // namespace

std::vector<LitmusResult>
runConformanceSuite(const std::vector<LitmusTest> &tests,
                    std::uint32_t jobs)
{
    const std::vector<ModelConfig> models = conformanceModels();
    std::vector<LitmusResult> results(tests.size());
    const auto run_one = [&](std::size_t i) {
        results[i] = runOneTest(tests[i], models);
    };
    if (jobs > 1 && tests.size() > 1) {
        // Results land in pre-sized slots indexed by test id, so the
        // report is identical for every jobs value.
        TaskPool pool(jobs);
        pool.parallelFor(tests.size(), run_one);
    } else {
        for (std::size_t i = 0; i < tests.size(); ++i)
            run_one(i);
    }
    return results;
}

std::string
formatDivergenceReport(const std::vector<LitmusResult> &results)
{
    std::ostringstream oss;
    oss << "# Px86 conformance divergence report\n";
    oss << "#\n";
    oss << "# Reachable post-crash states per litmus test and "
           "persistency model\n";
    oss << "# (states enumerated on the projection onto each test's "
           "observed cells; state sets are\n";
    oss << "# unions over the deterministic schedule set). The "
           "px86-vs-epoch line\n";
    oss << "# lists states reachable under only one of the two: "
           "'+' = px86 only,\n";
    oss << "# '-' = epoch only.\n";

    std::size_t model_width = 0;
    for (const LitmusResult &result : results)
        for (const ModelStates &entry : result.models)
            model_width = std::max(model_width, entry.model.size());

    std::size_t diverging = 0;
    for (const LitmusResult &result : results) {
        oss << "\n## " << result.name << "\n";
        if (!result.note.empty())
            oss << "   note: " << result.note << "\n";
        oss << "   schedules: " << result.schedules << "\n";
        const ModelStates *px86 = nullptr;
        const ModelStates *epoch = nullptr;
        for (const ModelStates &entry : result.models) {
            oss << "   " << entry.model
                << std::string(model_width - entry.model.size(), ' ')
                << " : ";
            renderStates(oss, entry.states);
            if (entry.budget_exhausted)
                oss << " [cut budget exhausted]";
            if (entry.persist_races > 0)
                oss << " [persist races: " << entry.persist_races << "]";
            oss << "\n";
            if (entry.model == "px86")
                px86 = &entry;
            else if (entry.model.rfind("epoch", 0) == 0)
                epoch = &entry;
        }
        if (px86 != nullptr && epoch != nullptr) {
            std::vector<std::string> only_px86;
            std::vector<std::string> only_epoch;
            std::set_difference(px86->states.begin(),
                                px86->states.end(),
                                epoch->states.begin(),
                                epoch->states.end(),
                                std::back_inserter(only_px86));
            std::set_difference(epoch->states.begin(),
                                epoch->states.end(),
                                px86->states.begin(),
                                px86->states.end(),
                                std::back_inserter(only_epoch));
            oss << "   px86 vs " << epoch->model << ": ";
            if (only_px86.empty() && only_epoch.empty()) {
                oss << "AGREE\n";
            } else {
                ++diverging;
                oss << "DIVERGE";
                constexpr std::size_t cap = 12;
                for (std::size_t i = 0;
                     i < only_px86.size() && i < cap; ++i)
                    oss << " +{" << only_px86[i] << '}';
                if (only_px86.size() > cap)
                    oss << " +...";
                for (std::size_t i = 0;
                     i < only_epoch.size() && i < cap; ++i)
                    oss << " -{" << only_epoch[i] << '}';
                if (only_epoch.size() > cap)
                    oss << " -...";
                oss << "\n";
            }
        }
    }

    oss << "\n# summary: " << results.size() << " tests, " << diverging
        << " diverging (px86 vs epoch)\n";
    return oss.str();
}

} // namespace persim
