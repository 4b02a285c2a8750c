/**
 * @file
 * Canonical bounded programs for the explorer.
 *
 * These factories package the repository's standard validation
 * subjects as ExplorePrograms: the Figure 1 publish litmus (whose
 * epoch-persistency outcome hinges on the consumer barrier) and the
 * persistent queues (whose recovery correctness hinges on the
 * data-before-head publish barrier, DESIGN.md Section 7.2). Tests and
 * the explore_litmus bench drive the Explorer through them.
 */

#ifndef PERSIM_EXPLORE_PROGRAMS_HH
#define PERSIM_EXPLORE_PROGRAMS_HH

#include <cstdint>
#include <memory>

#include "explore/explore.hh"
#include "queue/payload.hh"
#include "queue/queue.hh"

namespace persim {

/**
 * The paper's Figure 1 publish idiom as a two-thread program.
 * Thread 0 persists `data`, emits a persist barrier, and sets a
 * volatile flag; thread 1 reads the flag once and, when set, persists
 * `seen` (preceded by its own persist barrier iff @p consumer_barrier).
 * The recovery invariant is "never `seen` without `data`".
 *
 * Under epoch persistency the producer barrier alone is NOT enough
 * (the consumer persists in the epoch of its load), so exhaustive
 * exploration proves the invariant exactly when @p consumer_barrier
 * is true and produces a counterexample when it is false.
 */
ProgramFactory publishLitmusProgram(bool consumer_barrier);

/**
 * @p factory with its `observed` declaration dropped, so the explorer
 * checks every consistent cut of each execution instead of the cuts
 * that differ on the observed cells. Verdicts are the same; this is
 * the reference the projected enumeration is compared against.
 */
ProgramFactory withoutObserved(ProgramFactory factory);

/** Parameters for queueProgram. */
struct QueueExploreOptions
{
    /** Which queue design to explore. */
    QueueKind kind = QueueKind::TwoLockConcurrent;

    /** Inserting threads. */
    std::uint32_t threads = 2;

    /** Inserts issued by each thread. */
    std::uint32_t inserts_per_thread = 1;

    /** Payload bytes per insert (>= min_payload_bytes). */
    std::uint64_t payload_bytes = min_payload_bytes;

    /**
     * Queue annotation options. Defaults to a small data segment so
     * bounded exploration stays tractable; tests flip
     * barrier_before_publish / omit_data_head_barrier here.
     */
    QueueOptions queue;

    QueueExploreOptions() { queue.capacity = 1 << 10; }
};

/**
 * A bounded queue workload: create the queue in setup, have each
 * thread insert its deterministic payloads, and check every crash
 * state with makeRecoveryInvariant (recover + golden cross-check).
 */
ProgramFactory queueProgram(const QueueExploreOptions &options);

/**
 * Persistency model for queue exploration: epoch persistency with
 * 64-byte atomic persists, matching the queues' 64-byte slot padding
 * so each entry's persists coalesce into a handful of atomic groups
 * (at 8-byte atomicity the per-entry crash-state count explodes
 * combinatorially without changing which corruptions are reachable).
 */
ModelConfig queueExploreModel();

/** Parameters for randomProgram. */
struct RandomProgramOptions
{
    /** Worker threads. */
    std::uint32_t threads = 2;

    /** Randomized operations issued by each thread. */
    std::uint32_t ops_per_thread = 10;

    /** Shared persistent scratch cells (8 bytes each). */
    std::uint32_t scratch_cells = 6;

    /** Shared volatile scratch cells (8 bytes each). */
    std::uint32_t volatile_cells = 4;

    /**
     * Emit NewStrand operations. When false the program is
     * strand-free, and strand persistency must analyze it exactly
     * like epoch persistency (the differential fuzzer's sharpest
     * invariant: the two persist logs must match field for field).
     */
    bool allow_strands = true;

    /**
     * Mix x86 persistency instructions into the instruction stream:
     * clflush/clflushopt/clwb on scratch cells and sfence/mfence.
     * Under the SC models flushes are inert and fences act as persist
     * barriers; under Px86 they are the only way scratch stores ever
     * become durable. The publish idiom keeps using persistBarrier
     * (replayed under Px86 as flush-all + sfence), so the flag<=data
     * invariant stays valid under every model. Off by default: the
     * frozen differential-fuzz corpus predates these instructions.
     */
    bool allow_flushes = false;
};

/**
 * Simulated addresses of a random program's working set, filled in
 * during setup (pass to randomProgram to observe them — conformance
 * fingerprints crash states cell by cell).
 */
struct RandomProgramLayout
{
    Addr scratch = invalid_addr;  //!< scratch_cells persistent cells.
    Addr vscratch = invalid_addr; //!< volatile_cells volatile cells.
    Addr data = invalid_addr;     //!< One 8-byte cell per thread.
    Addr flag = invalid_addr;     //!< One 8-byte cell per thread.
};

/**
 * A seeded random multi-threaded program for differential fuzzing
 * (ISSUE 4). Each thread interprets a pre-generated instruction list
 * — a pure function of (seed, options) — mixing random persistent
 * stores/loads/fetch-adds on a shared scratch array, volatile
 * accesses, persist barriers, optional NewStrand, and the Figure 1
 * publish idiom against thread-private cells:
 *
 *   data[t] = k;  persistBarrier();  flag[t] = k;     (k increasing)
 *
 * The recovery invariant is flag[t] <= data[t] for every thread: the
 * barrier orders each publication's data persist before its flag
 * persist, and strong persist atomicity keeps both cells' values
 * monotone, so the bound holds at every consistent cut under strict,
 * epoch, AND strand persistency (NewStrand never splits a
 * publication). An engine that loses barrier ordering — e.g.
 * EngineMutant::ElideEpochBarrier — admits a crash state with
 * flag > data, which is how the fuzzer proves it has teeth.
 */
ProgramFactory randomProgram(
    std::uint64_t seed, const RandomProgramOptions &options = {},
    std::shared_ptr<RandomProgramLayout> layout = nullptr);

} // namespace persim

#endif // PERSIM_EXPLORE_PROGRAMS_HH
