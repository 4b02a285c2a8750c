/**
 * @file
 * Trace replay entry point and the compiled fast path (DESIGN.md
 * Section 17).
 *
 * replayTrace() is how a trace is analyzed under one configuration.
 * The paper's hot configurations (strict / epoch / strand on the
 * Levels clock, unified granularity, all-address scope, load
 * tracking, no log / deps / races / window / mutant) and
 * the px86 preset (8-byte tracking, any line size, TSO conflicts
 * only, the same observers off) are compiled and executed by the fast
 * executor; every other configuration replays through
 * PersistTimingEngine, which stays the oracle the fast path is tested
 * against.
 *
 * compileTrace() is one serial pass over the events: it splits each
 * access into 8-byte-aligned pieces, interns each piece's block key
 * straight into a global first-touch slot (one probe per piece, as
 * the engine does), and appends the run index as it goes, writing
 * only the columns the executor reads (memtrace/compiled_trace.hh)
 * into storage sized from the event count.
 *
 * The fast executor is one loop template, instantiated per model, over
 * 12-byte src-free tags with 32-bit levels in private banks. Nothing
 * observable in the eligible configurations reads Tag::src, validity
 * is equivalent to t > 0, and the dependence summary always dominates
 * the block's pending time, which collapses the same-block
 * serialization rule and reduces the coalescing test to a closed form
 * on the rare tmax == last_t path. Under px86 the same domination
 * makes a line flush O(1): one persist plus the line's other dirty
 * pieces coalesced into it (the derivations are in DESIGN.md Section
 * 17.2).
 */

#ifndef PERSIM_PERSISTENCY_COMPILED_REPLAY_HH
#define PERSIM_PERSISTENCY_COMPILED_REPLAY_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "memtrace/compiled_trace.hh"
#include "memtrace/sink.hh"
#include "persistency/timing_engine.hh"

namespace persim {

/**
 * Fingerprint of the program compileTrace builds for @p config: its
 * tracking and line granularity shifts, one byte each. The line is
 * px86's atomic block; strict, epoch and strand at 8-byte tracking
 * carry the 64-byte line column too, so one program serves all four
 * models' presets. A program replays under a config when its tracking
 * granularity is the config's and, for px86 only, its line
 * granularity is the config's atomic granularity: the SC models never
 * read the line column.
 */
std::uint64_t compiledSpecFingerprint(const TimingConfig &config);

/**
 * True when the fast compiled executor can run @p config: the Levels
 * clock, all-address scope and no log, deps, races, coalescing
 * window or mutant, and then either strict, epoch or strand with
 * load tracking and unified granularity, or px86 without load
 * tracking at 8-byte tracking granularity.
 */
bool compiledFastEligible(const TimingConfig &config);

/**
 * Compile @p count events into a compiled trace for @p config in one
 * serial pass. Fatals unless compiledFastEligible(@p config), when
 * the trace splits into 2^32 or more micro-ops (the executor's levels
 * are 32-bit), and when an event's thread id is 65,536 or more (the
 * thread column is 16-bit).
 */
CompiledTrace compileTrace(const TraceEvent *events, std::size_t count,
                           const TimingConfig &config);

/**
 * Execute @p view under @p config on the fast executor. Fatals,
 * naming the reason, unless compiledFastEligible(@p config), and
 * fatals if the view was compiled under a tracking granularity, or
 * for px86 a line granularity, other than the config's.
 * Bit-identical to interpreted replay of the source trace.
 *
 * @p view must come from compileTrace(): its per-op invariants (piece
 * slots, thread bounds) hold by construction, so the executor indexes
 * its state unchecked.
 */
TimingResult compiledReplay(const CompiledTraceView &view,
                            const TimingConfig &config);

/**
 * The compiled program @p trace keeps (InMemoryTrace::program) that
 * fits @p config, compiled first when the kept one does not fit.
 * Fatals unless compiledFastEligible(@p config). replayTrace's fast
 * path runs this program, so a caller that asks for it before the
 * replays times the one compile apart from them.
 */
std::shared_ptr<const CompiledTrace>
traceProgram(const InMemoryTrace &trace, const TimingConfig &config);

/**
 * Analyze @p trace under @p config: the fast executor when
 * compiledFastEligible(@p config), a PersistTimingEngine replay
 * otherwise. Bit-identical either way. The fast path runs the
 * program @p trace keeps (InMemoryTrace::program), compiling it on
 * the first replay it does not fit, so the four models' presets
 * compile a trace once.
 */
TimingResult replayTrace(const InMemoryTrace &trace,
                         const TimingConfig &config);

} // namespace persim

#endif // PERSIM_PERSISTENCY_COMPILED_REPLAY_HH
