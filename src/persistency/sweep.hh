/**
 * @file
 * Parameter sweep helpers.
 *
 * The paper's figures are sweeps over a single knob — persist latency
 * (Figure 3), atomic persist granularity (Figure 4), tracking
 * granularity (Figure 5). These helpers analyze one trace once per
 * knob value through replayTrace (persistency/compiled_replay.hh:
 * the compiled fast path where the config allows it, the engine
 * otherwise), returning structured series that benches or
 * applications can render or post-process.
 *
 * SweepOptions::jobs picks where the configs run: one after another
 * on the caller's thread (jobs == 1, the default), or fanned out on a
 * TaskPool. Replays share nothing but the read-only trace and the
 * compiled program it keeps, which is built under the trace's lock,
 * so the results are bit-identical either way — asserted by
 * tests/persistency/sweep_test.cc.
 *
 * Sweeps run over an in-memory trace; a trace on disk is loaded with
 * readTraceFile (memtrace/trace_io.hh) first.
 */

#ifndef PERSIM_PERSISTENCY_SWEEP_HH
#define PERSIM_PERSISTENCY_SWEEP_HH

#include <cstdint>
#include <vector>

#include "memtrace/sink.hh"
#include "persistency/timing_engine.hh"

namespace persim {

/** How a sweep schedules its replays. */
struct SweepOptions
{
    /**
     * Analysis workers: 1 = every config in turn on the calling
     * thread; 0 = one worker per hardware thread; N > 1 = a TaskPool
     * of N workers, one config per task.
     */
    std::uint32_t jobs = 1;
};

/** One sweep sample: the knob value and the analysis result. */
struct SweepPoint
{
    std::uint64_t value = 0;
    TimingResult result;

    /** Wall time spent analyzing this config, in seconds. */
    double wall_seconds = 0.0;
};

/** A sweep for one model across knob values. */
struct SweepSeries
{
    ModelConfig model;
    std::vector<SweepPoint> points;
};

/** Which granularity knob a sweep varies. */
enum class GranularityKnob : std::uint8_t {
    AtomicPersist,
    Tracking,
};

/**
 * Analyze @p trace once per (model, granularity) pair; returns one
 * series per model, each with one point per granularity. Results are
 * identical regardless of SweepOptions::jobs.
 */
std::vector<SweepSeries>
granularitySweep(const InMemoryTrace &trace,
                 const std::vector<ModelConfig> &models,
                 const std::vector<std::uint64_t> &granularities,
                 GranularityKnob knob,
                 const SweepOptions &options = {});

/** Log-spaced latency grid (points_per_decade >= 1). */
std::vector<double> logLatencyGrid(double lo_ns, double hi_ns,
                                   unsigned points_per_decade);

/**
 * The persist latency at which the persist-bound rate equals the
 * instruction rate (the Figure 3 break-even).
 */
double breakEvenLatencyNs(std::uint64_t ops, double critical_path,
                          double instruction_rate);

} // namespace persim

#endif // PERSIM_PERSISTENCY_SWEEP_HH
