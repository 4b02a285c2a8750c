/**
 * @file
 * Compiled-trace replay: compile a trace once into in-memory micro-op
 * columns (memtrace/compiled_trace.hh) and execute them through the
 * timing engine with zero per-op prep (DESIGN.md Section 17).
 *
 * Interpreted replay spends a large share of every run re-deriving
 * facts that depend only on the trace and the model configuration:
 * event decode, the cache-line piece split, the conflict-scope
 * filter, and the block-key hash probes. compileTrace() runs that
 * pass once (in parallel, via the shared segment compiler) and
 * renumbers the segment-local slots into one global first-touch
 * order, producing a CompiledTrace whose columns the executor reads
 * directly.
 *
 * Execution has two paths, both bit-identical to interpreted replay:
 *
 *  - a *fast* path for the paper's hot configurations (strict /
 *    epoch / strand, Levels clock, unified granularity, all-address
 *    scope, load tracking, no log / deps / races / plugins / window /
 *    mutant): a templated loop over 24-byte src-free tags in private
 *    banks. Nothing observable in these configurations reads
 *    Tag::src, validity is equivalent to t > 0, and the dependence
 *    summary always dominates the block's pending time, which
 *    collapses the same-block serialization rule and reduces the
 *    coalescing test to a closed form on the rare tmax == last_t
 *    path (the full derivation is in DESIGN.md Section 17);
 *  - a *generic* path for everything else (px86, stochastic clock,
 *    record_log/record_deps, race detection, plugins, windows,
 *    mutants, BPFS-style scopes): the engine's own inline handlers
 *    driven by the run-length dispatch index, with every slot
 *    pre-resolved — the engine is handed its slot tables up front in
 *    the compiled trace's first-touch order, so identical slot
 *    numbering (and therefore bit-identical results) is enforced,
 *    not hoped for.
 */

#ifndef PERSIM_PERSISTENCY_COMPILED_REPLAY_HH
#define PERSIM_PERSISTENCY_COMPILED_REPLAY_HH

#include <cstddef>
#include <cstdint>

#include "common/task_pool.hh"
#include "memtrace/compiled_trace.hh"
#include "memtrace/sink.hh"
#include "persistency/timing_engine.hh"

namespace persim {

/**
 * Fingerprint of the compile-relevant slice of @p config (shifts,
 * unified/scope/race flags, px86), one byte per field. Two configs
 * with equal fingerprints compile any trace to identical micro-op
 * programs, so one compiled trace serves all of strict / epoch /
 * strand at equal granularities.
 */
std::uint64_t compiledSpecFingerprint(const TimingConfig &config);

/**
 * True when compiledReplay would execute @p config on the fast
 * template path rather than through the engine handlers.
 */
bool compiledFastEligible(const TimingConfig &config);

/**
 * Compile @p count events into a global-slot compiled trace for
 * @p config. Segments compile in parallel on @p pool (or a transient
 * pool of @p jobs workers); the slot renumbering and column append
 * are serial. The result carries the spec fingerprint of @p config.
 */
CompiledTrace compileTrace(const TraceEvent *events, std::size_t count,
                           const TimingConfig &config,
                           std::uint32_t jobs = 1,
                           TaskPool *pool = nullptr);

/** Knobs for compiledReplay. */
struct CompiledReplayOptions
{
    /** Deferred-log materialization workers (fast path is serial). */
    std::uint32_t jobs = 1;

    /** Pool for the above; nullptr creates a transient one. */
    TaskPool *pool = nullptr;
};

/** Optional instrumentation of one compiledReplay call. */
struct CompiledReplayStats
{
    bool fast_path = false;     //!< Took the template executor.
    std::uint64_t micro_ops = 0;
    double exec_seconds = 0.0;
};

/**
 * Execute @p view under @p config. Fatals if the view's spec
 * fingerprint does not match @p config — a trace compiled under a
 * different scope/granularity must never be replayed silently.
 * Bit-identical to interpreted replay of the source trace for every
 * model and configuration.
 *
 * @p view must come from compileTrace(): its per-op replay invariants
 * (piece slots and sizes, thread bounds) hold by construction, so
 * the executors index their state unchecked.
 */
TimingResult compiledReplay(const CompiledTraceView &view,
                            const TimingConfig &config,
                            const CompiledReplayOptions &options = {},
                            PersistLog *log_out = nullptr,
                            CompiledReplayStats *stats = nullptr);

} // namespace persim

#endif // PERSIM_PERSISTENCY_COMPILED_REPLAY_HH
