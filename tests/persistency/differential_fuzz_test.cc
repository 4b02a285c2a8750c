/**
 * @file
 * Differential fuzzing of the persist-timing engine (ISSUE 4).
 *
 * Each iteration generates a seeded random multi-threaded program
 * (explore/programs.hh randomProgram), executes it once under a
 * seeded random schedule, and replays the identical trace under
 * strict, epoch, and strand persistency, asserting the refinement
 * invariants that must relate the three analyses:
 *
 *  - critical path: strict >= epoch >= strand (relaxing the model
 *    can only remove ordering constraints);
 *  - identical atomic persist pieces (and counts) under every model;
 *  - every log passes verifyLogConsistency (binding/time/start
 *    well-formedness, per-address monotone persist times);
 *  - the complete cut of every log reconstructs exactly the
 *    simulated persistent memory;
 *  - on strand-free programs, the strand analysis IS the epoch
 *    analysis: the two persist logs must match field for field;
 *  - every consistent cut of every model's persist DAG satisfies the
 *    program's publish invariant (flag[t] <= data[t]).
 *
 * Every program of both legs is also compiled and held to a plain
 * reference compile (tests/support/compile_reference.hh), column for
 * column, at the three program shapes.
 *
 * Odd seeds also replay every trace through replayTrace
 * (persistency/compiled_replay.hh) under the plain Levels config:
 * strict, epoch and strand run the fast executor over the one program
 * the trace keeps, which carries the 64-byte line column px86 reads,
 * asserted bit-identical to the engine on every TimingResult field,
 * so the fuzzer holds the compiled path to the engine oracle on
 * random programs, not only on fixtures. The px86 leg does the same
 * on every flush program, for px86 and then for the SC models on the
 * program px86 compiled.
 *
 * Iteration count comes from PERSIM_FUZZ_ITERS (default 25; the
 * check.sh fuzz stage runs 500). Any failure prints a one-line repro:
 * re-run this binary with PERSIM_FUZZ_SEED=<seed> to replay exactly
 * the failing program and schedule.
 *
 * The harness must also be able to FAIL: the last test replays
 * strand-free programs through a deliberately broken engine
 * (EngineMutant::ElideEpochBarrier) and asserts the fuzzer's
 * invariants catch it — via epoch/strand log divergence and via
 * crash states violating the publish invariant.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "explore/programs.hh"
#include "memtrace/sink.hh"
#include "persistency/compiled_replay.hh"
#include "persistency/timing_engine.hh"
#include "recovery/cuts.hh"
#include "recovery/recovery.hh"
#include "sim/engine.hh"
#include "tests/support/compile_reference.hh"
#include "tests/support/race_reference.hh"

using namespace persim;

namespace {

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return fallback;
    return std::strtoull(value, nullptr, 10);
}

/** Per-iteration cut-enumeration budget (strand DAGs can be wide). */
constexpr std::uint64_t max_cuts_per_model = 1ULL << 15;

/** Vary program shape with the seed so one run covers the space. */
RandomProgramOptions
optionsFor(std::uint64_t seed)
{
    RandomProgramOptions options;
    options.threads = 2 + static_cast<std::uint32_t>(seed % 2);
    options.ops_per_thread = 10;
    // Every third seed is strand-free, arming the epoch == strand
    // exact-equality invariant (the ElideEpochBarrier catcher).
    options.allow_strands = seed % 3 != 0;
    return options;
}

struct Replay
{
    TimingResult result;
    PersistLog log;
};

/** Field-for-field persist-log equality; mismatch description or "". */
std::string compareLogs(const PersistLog &a, const PersistLog &b);

/** Every TimingResult field equal, the critical path bit-exactly. */
void
expectSameResult(const TimingResult &want, const TimingResult &got,
                 const char *leg)
{
    EXPECT_EQ(want.critical_path, got.critical_path) << leg;
    EXPECT_EQ(want.persists, got.persists) << leg;
    EXPECT_EQ(want.coalesced, got.coalesced) << leg;
    EXPECT_EQ(want.window_blocked, got.window_blocked) << leg;
    EXPECT_EQ(want.races, got.races) << leg;
    EXPECT_EQ(want.ops, got.ops) << leg;
    EXPECT_EQ(want.events, got.events) << leg;
    EXPECT_EQ(want.barriers, got.barriers) << leg;
    EXPECT_EQ(want.strands, got.strands) << leg;
    EXPECT_EQ(want.flushes, got.flushes) << leg;
    EXPECT_EQ(want.fences, got.fences) << leg;
    EXPECT_EQ(want.unflushed, got.unflushed) << leg;
}

/**
 * Replay @p trace through the engine with a full persist log; when
 * @p compiled is set, ALSO replay it through replayTrace under the
 * plain Levels config and assert the fast executor, running the
 * program the trace keeps, bit-identical to the engine.
 */
Replay
replayModel(const InMemoryTrace &trace, const ModelConfig &model,
            EngineMutant mutant = EngineMutant::None,
            bool compiled = false)
{
    TimingConfig config;
    config.model = model;
    config.record_log = true;
    config.record_deps = true; // checkAllCuts needs full dep sets
    config.mutant = mutant;
    PersistTimingEngine engine(config);
    trace.replay(engine);
    Replay serial{engine.result(), engine.takeLog()};
    if (!compiled)
        return serial;

    TimingConfig plain;
    plain.model = model;
    EXPECT_TRUE(compiledFastEligible(plain))
        << "plain " << model.name() << " config left the fast executor";
    PersistTimingEngine plain_engine(plain);
    trace.replay(plain_engine);
    expectSameResult(plain_engine.result(), replayTrace(trace, plain),
                     "fast");
    // The shared 8-byte program, with px86's 64-byte line column.
    TimingConfig px86;
    px86.model = ModelConfig::px86();
    const auto program = trace.program();
    EXPECT_TRUE(program != nullptr &&
                program->spec_fp == compiledSpecFingerprint(px86));
    return serial;
}

std::string
compareLogs(const PersistLog &a, const PersistLog &b)
{
    if (a.size() != b.size())
        return "log sizes differ: " + std::to_string(a.size()) + " vs " +
               std::to_string(b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const PersistRecord &x = a[i];
        const PersistRecord &y = b[i];
        if (x.id != y.id || x.seq != y.seq || x.addr != y.addr ||
            x.size != y.size || x.value != y.value || x.time != y.time ||
            x.start != y.start || x.thread != y.thread || x.op != y.op ||
            x.role != y.role || x.binding != y.binding ||
            x.binding_source != y.binding_source || x.deps != y.deps)
            return "record " + std::to_string(i) + " differs (time " +
                   std::to_string(x.time) + " vs " +
                   std::to_string(y.time) + ")";
    }
    return "";
}

struct FuzzStats
{
    std::uint64_t programs = 0;
    std::uint64_t strand_free = 0;
    std::uint64_t compiled_replays = 0;
    std::uint64_t events = 0;
    std::uint64_t persists = 0;
    std::uint64_t cuts_checked = 0;
    std::uint64_t cut_budget_skips = 0;
};

/**
 * compileTrace must build exactly the plain reference's columns
 * (tests/support/compile_reference.hh) for @p trace: the shared
 * t8/a64 program, px86 at 8-byte lines and strict at 64-byte blocks.
 */
void
expectCompileMatchesReference(const InMemoryTrace &trace)
{
    TimingConfig shared;
    shared.model = ModelConfig::px86();
    TimingConfig px86_a8 = shared;
    px86_a8.model.atomic_granularity = 8;
    TimingConfig strict_64;
    strict_64.model = ModelConfig::strict();
    strict_64.model.tracking_granularity = 64;
    strict_64.model.atomic_granularity = 64;
    for (const TimingConfig &config : {shared, px86_a8, strict_64})
        test::expectSameProgram(
            compileTrace(trace.events().data(), trace.size(), config),
            test::referenceCompile(trace.events().data(), trace.size(),
                                   config),
            "compile oracle " + config.model.name() + "/a" +
                std::to_string(config.model.atomic_granularity));
}

/** Run one seed through the whole differential harness. */
void
checkSeed(std::uint64_t seed, FuzzStats &stats)
{
    SCOPED_TRACE("repro: PERSIM_FUZZ_SEED=" + std::to_string(seed) +
                 " ./tests/differential_fuzz_test");
    const RandomProgramOptions options = optionsFor(seed);
    ExploreProgram program = randomProgram(seed, options)();

    EngineConfig engine_config = program.engine;
    engine_config.seed = seed;
    InMemoryTrace trace;
    ExecutionEngine sim(engine_config, &trace);
    sim.runSetup(program.setup);
    sim.run(program.workers);

    expectCompileMatchesReference(trace);

    // Odd seeds also run the fast compiled executor (asserted
    // bit-identical to the engine inside replayModel).
    const bool compiled = seed % 2 == 1;
    if (compiled)
        ++stats.compiled_replays;
    const Replay strict = replayModel(trace, ModelConfig::strict(),
                                      EngineMutant::None, compiled);
    const Replay epoch = replayModel(trace, ModelConfig::epoch(),
                                     EngineMutant::None, compiled);
    const Replay strand = replayModel(trace, ModelConfig::strand(),
                                      EngineMutant::None, compiled);

    // Refinement: each relaxation may only shorten the critical path.
    EXPECT_GE(strict.result.critical_path, epoch.result.critical_path);
    EXPECT_GE(epoch.result.critical_path, strand.result.critical_path);

    // The same trace carries the same atomic persist pieces under
    // every model; only their times (and coalescing) may differ.
    EXPECT_EQ(strict.result.persists, epoch.result.persists);
    EXPECT_EQ(epoch.result.persists, strand.result.persists);
    EXPECT_EQ(strict.log.size(), epoch.log.size());
    EXPECT_EQ(epoch.log.size(), strand.log.size());

    for (const Replay *replay : {&strict, &epoch, &strand}) {
        EXPECT_EQ(verifyLogConsistency(replay->log), "");

        // Complete cut == simulated persistent memory, byte for byte
        // at every persisted location.
        const MemoryImage image = reconstructImage(
            replay->log, std::numeric_limits<double>::infinity());
        for (const PersistRecord &record : replay->log)
            EXPECT_EQ(image.load(record.addr, record.size),
                      sim.debugLoad(record.addr, record.size))
                << "addr " << record.addr;
    }

    // Strand persistency without NewStrand IS epoch persistency.
    if (!options.allow_strands) {
        EXPECT_EQ(strand.result.strands, 0U);
        EXPECT_EQ(compareLogs(epoch.log, strand.log), "");
        ++stats.strand_free;
    }

    // Exhaustive crash-state check: the publish invariant must hold
    // at every consistent cut of every model's persist DAG.
    const RecoveryInvariant invariant = program.invariant();
    for (const Replay *replay : {&strict, &epoch, &strand}) {
        const PersistDag dag = buildPersistDag(replay->log);
        const CutCheckResult cuts =
            checkAllCuts(replay->log, dag, invariant, max_cuts_per_model);
        EXPECT_EQ(cuts.violations, 0U) << cuts.first_violation;
        stats.cuts_checked += cuts.cuts;
        if (cuts.budget_exhausted)
            ++stats.cut_budget_skips;
    }

    ++stats.programs;
    stats.events += trace.size();
    stats.persists += strict.result.persists;
}

} // namespace

TEST(DifferentialFuzz, RandomPrograms)
{
    FuzzStats stats;
    if (const char *pinned = std::getenv("PERSIM_FUZZ_SEED");
        pinned && *pinned) {
        checkSeed(std::strtoull(pinned, nullptr, 10), stats);
    } else {
        const std::uint64_t iters = envU64("PERSIM_FUZZ_ITERS", 25);
        for (std::uint64_t i = 0; i < iters; ++i)
            checkSeed(i + 1, stats);
    }
    std::cout << "fuzz: " << stats.programs << " programs ("
              << stats.strand_free << " strand-free, "
              << stats.compiled_replays
              << " via compiled replay), " << stats.events
              << " events, " << stats.persists << " persists, "
              << stats.cuts_checked << " cuts checked ("
              << stats.cut_budget_skips << " enumerations hit the "
              << "cut budget)\n";
}

/**
 * The Px86 leg (ISSUE 6): flush-enabled random programs executed
 * under TSO and replayed under the operational Px86 model. The SC-leg
 * completeness check (reconstructed image == simulated memory at
 * every persisted location) is deliberately NOT asserted here: under
 * Px86 an unflushed store legitimately never reaches the image, and a
 * flushed line may be re-dirtied later without a covering flush, so
 * the final image may lag simulated memory. What must still hold:
 *
 *  - the Px86 persist log passes verifyLogConsistency;
 *  - persists + unflushed never exceeds the piece count strict
 *    persists (flush coalescing in the dirty bank may only shrink
 *    it);
 *  - the publish invariant (flag <= data) holds at every consistent
 *    cut: the canonical epoch->x86 compilation of the Publish op
 *    (flush-all + sfence) must be exactly as safe as the epoch
 *    barrier it replaces.
 *
 * Execution stays SC here, like the other legs: under TSO the
 * barrier/visibility decoupling of Section 4.3 makes flag-ahead-of-
 * data cuts legitimately reachable under EVERY model, which would
 * blunt the invariant. The TSO x Px86 interaction is covered by the
 * conformance suite and the store-buffer drain tests instead.
 */
TEST(DifferentialFuzz, Px86FlushPrograms)
{
    FuzzStats stats;
    std::uint64_t unflushed = 0;
    std::uint64_t flushes = 0;
    const std::uint64_t iters = envU64("PERSIM_FUZZ_ITERS", 25);
    for (std::uint64_t i = 0; i < iters; ++i) {
        const std::uint64_t seed = i + 1;
        SCOPED_TRACE("repro: px86 leg, seed " + std::to_string(seed));
        RandomProgramOptions options = optionsFor(seed);
        options.allow_strands = false; // no NewStrand in x86 programs
        options.allow_flushes = true;
        ExploreProgram program = randomProgram(seed, options)();

        EngineConfig engine_config = program.engine;
        engine_config.seed = seed;
        InMemoryTrace trace;
        ExecutionEngine sim(engine_config, &trace);
        sim.runSetup(program.setup);
        sim.run(program.workers);

        const Replay px86 = replayModel(trace, ModelConfig::px86());
        const Replay strict = replayModel(trace, ModelConfig::strict());
        expectCompileMatchesReference(trace);

        // The fast executor's px86 instantiation, without a line
        // column (8-byte lines) and with one (the preset's 64-byte
        // lines), must give a fresh engine's answer field for field.
        for (const std::uint64_t line :
             {std::uint64_t{8}, cache_line_bytes}) {
            TimingConfig plain;
            plain.model = ModelConfig::px86();
            plain.model.atomic_granularity = line;
            EXPECT_TRUE(compiledFastEligible(plain)) << plain.model.name();
            PersistTimingEngine engine(plain);
            trace.replay(engine);
            const std::string leg = "fast " + plain.model.name();
            expectSameResult(engine.result(), replayTrace(trace, plain),
                             leg.c_str());
            ++stats.compiled_replays;
        }
        // strict, epoch and strand on a flush program reuse the
        // program the px86 preset compiled, whose flushes are
        // numbered by line, untouched lines included.
        const auto shared = trace.program();
        for (const ModelConfig &model :
             {ModelConfig::strict(), ModelConfig::epoch(),
              ModelConfig::strand()}) {
            TimingConfig plain;
            plain.model = model;
            PersistTimingEngine engine(plain);
            trace.replay(engine);
            const std::string leg = "fast " + model.name() + " (flushes)";
            expectSameResult(engine.result(), replayTrace(trace, plain),
                             leg.c_str());
            EXPECT_EQ(trace.program(), shared) << leg;
            ++stats.compiled_replays;
        }

        EXPECT_EQ(verifyLogConsistency(px86.log), "");
        EXPECT_EQ(px86.result.events, strict.result.events);
        EXPECT_LE(px86.result.persists + px86.result.unflushed,
                  strict.result.persists);
        EXPECT_EQ(px86.log.size(), px86.result.persists);

        const RecoveryInvariant invariant = program.invariant();
        const PersistDag dag = buildPersistDag(px86.log);
        const CutCheckResult cuts = checkAllCuts(
            px86.log, dag, invariant, max_cuts_per_model);
        EXPECT_EQ(cuts.violations, 0U) << cuts.first_violation;
        stats.cuts_checked += cuts.cuts;
        if (cuts.budget_exhausted)
            ++stats.cut_budget_skips;

        ++stats.programs;
        stats.events += trace.size();
        stats.persists += px86.result.persists;
        unflushed += px86.result.unflushed;
        flushes += px86.result.flushes;
    }
    // The corpus must actually exercise the new machinery: flushes
    // that persist something AND stores that stay unflushed.
    EXPECT_GT(stats.persists, 0U);
    EXPECT_GT(unflushed, 0U);
    EXPECT_GT(flushes, 0U);
    std::cout << "fuzz(px86): " << stats.programs << " programs, "
              << stats.events
              << " events, " << stats.persists << " persists, "
              << unflushed << " unflushed, " << flushes
              << " flushes, " << stats.compiled_replays
              << " fast replays, " << stats.cuts_checked
              << " cuts checked (" << stats.cut_budget_skips
              << " enumerations hit the cut budget)\n";
}

/**
 * The race leg: replay both fuzz corpora with detect_races and hold
 * the engine's two counts (TimingResult::races and dirty_reads) to
 * the offline reference (tests/support/race_reference.hh), which
 * re-derives both rules from the trace and the persist log alone.
 * They must agree EXACTLY on every (program, model) pair. The
 * flush-enabled px86 corpus must produce dirty reads (rule 2 has
 * teeth on random flush programs), and the combined corpus must
 * produce unordered persists at all (rule 1 is not vacuous).
 */
TEST(DifferentialFuzz, PersistRaceDetectorAgreesWithEngine)
{
    std::uint64_t unordered = 0;
    std::uint64_t dirty_reads = 0;
    std::uint64_t programs = 0;
    const std::uint64_t iters = envU64("PERSIM_FUZZ_ITERS", 25);
    for (std::uint64_t i = 0; i < iters; ++i) {
        const std::uint64_t seed = i + 1;
        for (const bool flush_corpus : {false, true}) {
            SCOPED_TRACE("repro: race leg, seed " + std::to_string(seed) +
                         (flush_corpus ? " (flush corpus)" : ""));
            RandomProgramOptions options = optionsFor(seed);
            if (flush_corpus) {
                options.allow_strands = false;
                options.allow_flushes = true;
            }
            ExploreProgram program = randomProgram(seed, options)();

            EngineConfig engine_config = program.engine;
            engine_config.seed = seed;
            InMemoryTrace trace;
            ExecutionEngine sim(engine_config, &trace);
            sim.runSetup(program.setup);
            sim.run(program.workers);

            const std::vector<ModelConfig> models = flush_corpus
                ? std::vector<ModelConfig>{ModelConfig::px86()}
                : std::vector<ModelConfig>{ModelConfig::strict(),
                                           ModelConfig::epoch(),
                                           ModelConfig::strand()};
            for (const ModelConfig &model : models) {
                TimingConfig config;
                config.model = model;
                config.detect_races = true;
                config.record_log = true;
                PersistTimingEngine engine(config);
                trace.replay(engine);
                const TimingResult &result = engine.result();

                const test::ReferenceRaces reference =
                    test::referenceRaces(trace, engine.log(), model);
                EXPECT_EQ(result.races, reference.unordered)
                    << "engine diverged from the reference ("
                    << model.name() << ")";
                EXPECT_EQ(result.dirty_reads, reference.dirty_reads)
                    << "engine diverged from the reference ("
                    << model.name() << ")";
                unordered += result.races;
                if (flush_corpus)
                    dirty_reads += result.dirty_reads;
                else
                    EXPECT_EQ(result.dirty_reads, 0U)
                        << "rule 2 must stay inert off px86";
            }
            ++programs;
        }
    }
    EXPECT_GT(unordered, 0U)
        << "corpus never produced an unordered persist; rule 1 is "
           "vacuous";
    EXPECT_GT(dirty_reads, 0U)
        << "flush corpus never produced a dirty read; rule 2 is "
           "vacuous";
    std::cout << "fuzz(race): " << programs << " programs, "
              << unordered << " unordered persists, " << dirty_reads
              << " dirty reads\n";
}

/**
 * The mutant self-check: a broken engine must trip the fuzzer.
 * ElideEpochBarrier drops the barrier fold, so on strand-free
 * programs (1) the epoch log no longer matches the strand log and
 * (2) some consistent cut shows flag ahead of data. Both detectors
 * must fire on at least one of a handful of fixed seeds.
 */
TEST(DifferentialFuzz, CatchesElideEpochBarrierMutant)
{
    std::uint64_t log_divergence = 0;
    std::uint64_t cut_violations = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        RandomProgramOptions options = optionsFor(seed);
        options.allow_strands = false;
        ExploreProgram program = randomProgram(seed, options)();

        EngineConfig engine_config = program.engine;
        engine_config.seed = seed;
        InMemoryTrace trace;
        ExecutionEngine sim(engine_config, &trace);
        sim.runSetup(program.setup);
        sim.run(program.workers);

        const Replay strand = replayModel(trace, ModelConfig::strand());
        const Replay mutant =
            replayModel(trace, ModelConfig::epoch(),
                        EngineMutant::ElideEpochBarrier);

        if (!compareLogs(mutant.log, strand.log).empty())
            ++log_divergence;

        const RecoveryInvariant invariant = program.invariant();
        const PersistDag dag = buildPersistDag(mutant.log);
        const CutCheckResult cuts = checkAllCuts(
            mutant.log, dag, invariant, max_cuts_per_model);
        cut_violations += cuts.violations;
    }
    EXPECT_GT(log_divergence, 0U)
        << "mutant engine produced bit-identical logs; the "
           "epoch==strand invariant has no teeth";
    EXPECT_GT(cut_violations, 0U)
        << "mutant engine never violated the publish invariant; the "
           "crash-state check has no teeth";
}
