/**
 * @file
 * Px86 conformance harness: litmus programs replayed under every
 * persistency model, cross-checking reachable post-crash states.
 *
 * Each litmus test is a small bounded program (hand-written idiom or
 * a seeded random program from src/explore/programs.hh) executed on
 * the TSO simulator under a deterministic set of schedules by the
 * explorer's executor (Explorer::execute). Every resulting trace goes
 * through the explorer's crash-state check (checkCrashStates in
 * src/recovery/cuts.hh) under each persistency model, which
 * enumerates every crash state that can differ on the test's observed
 * cells, and each one is fingerprinted over those cells (the same
 * state set as enumerating every consistent cut). The per-model sets
 * of reachable post-crash states are then compared pairwise and
 * rendered as a divergence report (DESIGN.md Section 13.4) whose
 * committed golden copy documents, among others:
 *
 *  - the epoch-vs-sfence disagreement (an sfence alone persists
 *    nothing, while an epoch barrier orders the surrounding
 *    persists), and
 *  - the clflushopt-reordering/coalescing disagreements (weak
 *    flushes expose intermediate per-line states that epoch
 *    persistency's same-block coalescing hides).
 *
 * Everything here is deterministic: schedules are round-robin plus
 * fixed random seeds, state sets are sorted, and the suite runner
 * writes results into a pre-sized slot per test, so the report is
 * byte-identical for any --jobs value.
 */

#ifndef PERSIM_CONFORMANCE_LITMUS_HH
#define PERSIM_CONFORMANCE_LITMUS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "explore/explore.hh"
#include "persistency/model.hh"

namespace persim {

/** One named litmus test. */
struct LitmusTest
{
    std::string name;
    /** One-line intent note rendered into the report. */
    std::string note;
    /**
     * Builds the program; its `observed` cells (filled during setup,
     * required) are what each crash state is fingerprinted over.
     */
    ProgramFactory make;
};

/** The hand-written x86-persistency litmus suite (>= 8 tests). */
std::vector<LitmusTest> handwrittenLitmusTests();

/**
 * Seeded random litmus tests: flush-enabled random programs
 * (programs.hh randomProgram with allow_flushes) observing the whole
 * scratch/data/flag working set. Pure function of (count, seed0).
 */
std::vector<LitmusTest> generatedLitmusTests(std::size_t count = 20,
                                             std::uint64_t seed0 = 1);

/** Hand-written followed by generated tests. */
std::vector<LitmusTest> allLitmusTests();

/** Reachable crash states of one test under one model. */
struct ModelStates
{
    std::string model; //!< ModelConfig::name().

    /** Sorted canonical states ("cell=value cell=value ..."). */
    std::vector<std::string> states;

    /** Some check hit the cut budget (the set may be incomplete). */
    bool budget_exhausted = false;

    /** The engine's race reports (detect_races: unordered persists
        plus px86 dirty reads), summed over the schedule set. */
    std::uint64_t persist_races = 0;
};

/** Full result of one litmus test. */
struct LitmusResult
{
    std::string name;
    std::string note;

    /** Distinct executions replayed (duplicates pruned). */
    std::uint64_t schedules = 0;

    /** One entry per model, in conformanceModels() order. */
    std::vector<ModelStates> models;
};

/**
 * The models every test replays under: strict, epoch, and strand at
 * Px86's cache-line atomic granularity (so state sets differ only in
 * ordering semantics, never in persist unit), plus px86 itself.
 */
std::vector<ModelConfig> conformanceModels();

/**
 * Run @p tests on @p jobs worker threads (results are jobs-invariant);
 * result i corresponds to tests[i].
 */
std::vector<LitmusResult>
runConformanceSuite(const std::vector<LitmusTest> &tests,
                    std::uint32_t jobs = 1);

/**
 * Render the canonical divergence report: per test, the reachable
 * state set under each model plus the px86-vs-epoch delta. Byte
 * stable across runs and --jobs values (golden-tested).
 */
std::string
formatDivergenceReport(const std::vector<LitmusResult> &results);

} // namespace persim

#endif // PERSIM_CONFORMANCE_LITMUS_HH
