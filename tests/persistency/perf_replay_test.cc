/**
 * @file
 * Replay-throughput regression smoke test (ISSUE 4).
 *
 * Rebuilds the synthetic trace that bench/replay_baseline.cc measures
 * (identical SyntheticTraceConfig defaults), replays it under strict,
 * epoch, strand, and px86 persistency, and fails when the achieved
 * events/sec drops below half its usual ratio to a reference pass
 * over the same events, timed in the same process. The compiled fast
 * path must hold half of its committed strict/epoch/strand baseline
 * in BENCH_replay.json (env PERSIM_BENCH_BASELINE, wired by
 * tests/CMakeLists.txt to the repo-root copy), beat interpreted
 * serial replay by a paired same-run floor under each of the four
 * models, and, with the compile charged to it, still beat one
 * interpreted strict replay of the cwl1 trace (DESIGN.md §17).
 *
 * Wall-clock assertions are inherently machine-sensitive, so this
 * test is NOT part of the default tier-1 suite: it is registered
 * under the ctest `perf` configuration with LABELS perf and a 2x
 * safety factor. Run it via `ctest -C perf -L perf` (scripts/check.sh
 * does, in the release config) after refreshing the baseline with
 * bench/replay_baseline on the same machine.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/bench_common.hh"
#include "bench_util/bench_report.hh"
#include "bench_util/synthetic_trace.hh"
#include "persistency/compiled_replay.hh"
#include "persistency/timing_engine.hh"

using namespace persim;

namespace {

/**
 * Seconds of one interpreted replay; engine set-up and teardown stay
 * outside the timer, as in bench/replay_baseline.cc.
 */
double
replaySeconds(const InMemoryTrace &trace, const ModelConfig &model)
{
    TimingConfig config;
    config.model = model;
    PersistTimingEngine engine(config);
    bench::Stopwatch watch;
    trace.replay(engine);
    return watch.seconds();
}

/** Seconds of one compiled-path execution (compiled outside it). */
double
compiledSeconds(const CompiledTraceView &view, const TimingConfig &config)
{
    bench::Stopwatch watch;
    (void)compiledReplay(view, config);
    return watch.seconds();
}

/** Best of @p reps calls of @p seconds, each returning its time. */
template <typename Seconds>
double
bestOf(int reps, Seconds &&seconds)
{
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        const double wall = seconds();
        if (rep == 0 || wall < best)
            best = wall;
    }
    return best;
}

/**
 * Best of @p reps calls of each of two timed calls, alternated rep by
 * rep: a burst of host load then slows both sides of a ratio, where
 * timing all of one side before the other lets it slow only one.
 */
template <typename SecondsA, typename SecondsB>
std::pair<double, double>
interleavedBest(int reps, SecondsA &&seconds_a, SecondsB &&seconds_b)
{
    double best_a = 0.0;
    double best_b = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        const double wall_a = seconds_a();
        const double wall_b = seconds_b();
        if (rep == 0 || wall_a < best_a)
            best_a = wall_a;
        if (rep == 0 || wall_b < best_b)
            best_b = wall_b;
    }
    return {best_a, best_b};
}

/**
 * The reference pass of the interpreted-throughput gate: each event's
 * address is hashed into a fixed 16 MiB table of counters — a
 * per-event cost that, like the engine's banks, outgrows the private
 * caches, so it tracks the host (clock, shared cache, load) but none
 * of persim's replay code.
 */
class ReferenceSink final : public TraceSink
{
  public:
    void
    onEvent(const TraceEvent &event) override
    {
        const std::uint64_t hash = (event.addr >> 3) * 0x9e3779b97f4a7c15ULL;
        table_[hash >> (64 - table_bits)] += event.value | 1;
    }

    std::uint64_t
    sum() const
    {
        std::uint64_t total = 0;
        for (const std::uint64_t count : table_)
            total += count;
        return total;
    }

  private:
    static constexpr unsigned table_bits = 21;
    std::vector<std::uint64_t> table_ =
        std::vector<std::uint64_t>(std::size_t{1} << table_bits);
};

/** Seconds of one reference pass over @p trace. */
double
referenceSeconds(const InMemoryTrace &trace)
{
    ReferenceSink sink;
    bench::Stopwatch watch;
    trace.replay(sink);
    const double seconds = watch.seconds();
    EXPECT_NE(sink.sum(), 0u); // Keeps the pass from being elided.
    return seconds;
}

/** Reps of the absolute-throughput gates, as in bench/replay_baseline. */
constexpr int baseline_reps = 5;

/** Reps of each side of a paired ratio gate. */
constexpr int paired_reps = 9;

} // namespace

/**
 * Interpreted replay throughput, gated against a reference pass over
 * the same events timed in this process, the two alternated rep by
 * rep (best of 9 each): ReferenceSink does none of the replay work, so
 * the ratio of replay throughput to reference throughput moves with
 * persim's replay code far more than with the host's clock or load.
 * Floors come from 12 runs on a 4-vCPU x86-64 host (RelWithDebInfo;
 * ratio medians strict 0.107, epoch 0.108, strand 0.090, px86 0.084;
 * lowest 0.092, 0.085, 0.074, 0.070; highest 0.114, 0.122, 0.108,
 * 0.099 — see EXPERIMENTS.md). Each sits near 0.6x its median and
 * above half its highest ratio, so a replay twice as slow fails even
 * on the luckiest run, which is what the absolute 50%-of-baseline
 * floors it replaces were for.
 */
TEST(PerfReplay, SyntheticTraceHoldsBaselineThroughput)
{
    const InMemoryTrace trace =
        buildSyntheticTrace(SyntheticTraceConfig{});

    struct Gate
    {
        const char *name;
        ModelConfig model;
        double floor;
    };
    const Gate gates[] = {
        {"strict", ModelConfig::strict(), 0.064},
        {"epoch", ModelConfig::epoch(), 0.065},
        {"strand", ModelConfig::strand(), 0.055},
        {"px86", ModelConfig::px86(), 0.050},
    };
    for (const Gate &gate : gates) {
        const auto [replay, reference] = interleavedBest(
            paired_reps,
            [&] { return replaySeconds(trace, gate.model); },
            [&] { return referenceSeconds(trace); });
        const double ratio = reference / replay;
        std::cout << gate.name << ": "
                  << static_cast<double>(trace.size()) / replay / 1e6
                  << " M events/s, reference "
                  << static_cast<double>(trace.size()) / reference / 1e6
                  << " M events/s, ratio " << ratio << " (floor "
                  << gate.floor << ")\n";
        EXPECT_GE(ratio, gate.floor)
            << gate.name << " replay throughput fell to about half its "
            << "usual ratio to the reference pass; profile the engine";
    }
}

/** CMAKE_BUILD_TYPE of this binary (tests/CMakeLists.txt). */
constexpr std::string_view build_type = PERSIM_BUILD_TYPE;

/**
 * Compiled-replay speedup gate: executing the persisted micro-op
 * columns must beat interpreted serial replay of the same trace by a
 * wide margin, or the compiled path has lost its reason to exist.
 * Interpreted and compiled are measured in this process, alternating
 * rep by rep (best of 9 each), so the ratio cancels most machine
 * noise, host-load bursts included. Each floor is 0.8x the median
 * ratio of its build type's runs on a 4-vCPU x86-64 host, because
 * the engine gains more from -O3 than the fast executor does:
 *
 *  - RelWithDebInfo (the tier-1 build; also the floors of every other
 *    build type, which nothing calibrates): 12 runs taken after the
 *    page-address directory of PagedIndexMap sped up the engine but
 *    not the compiled executor (medians strict 4.29x, epoch 3.75x,
 *    strand 3.32x, px86 2.97x; lowest 4.17x, 3.67x, 3.23x, 2.87x —
 *    see EXPERIMENTS.md): strict >= 3.4x (the headline fast-path
 *    gate), epoch >= 3.0x, strand >= 2.6x (strand resets cost the
 *    run-loop more), px86 >= 2.3x;
 *  - Release: 12 runs with the 16-bit thread column (medians strict
 *    4.72x, epoch 4.01x, strand 3.29x, px86 3.13x; lowest 4.47x,
 *    3.68x, 3.17x, 2.83x): strict >= 3.7x, epoch >= 3.2x,
 *    strand >= 2.6x, px86 >= 2.5x.
 */
TEST(PerfReplay, CompiledReplayBeatsInterpretedSerial)
{
    const InMemoryTrace trace =
        buildSyntheticTrace(SyntheticTraceConfig{});

    struct Gate
    {
        const char *name;
        ModelConfig model;
        double rel_with_deb_info_floor;
        double release_floor;
    };
    const Gate gates[] = {
        {"strict", ModelConfig::strict(), 3.4, 3.7},
        {"epoch", ModelConfig::epoch(), 3.0, 3.2},
        {"strand", ModelConfig::strand(), 2.6, 2.6},
        {"px86", ModelConfig::px86(), 2.3, 2.5},
    };
    const bool release = build_type == "Release";
    for (const Gate &gate : gates) {
        const double floor =
            release ? gate.release_floor : gate.rel_with_deb_info_floor;
        TimingConfig config;
        config.model = gate.model;
        const CompiledTrace compiled = compileTrace(
            trace.events().data(), trace.events().size(), config);
        const auto [serial, fast] = interleavedBest(
            paired_reps,
            [&] { return replaySeconds(trace, gate.model); },
            [&] { return compiledSeconds(compiled.view(), config); });
        const double speedup = serial / fast;
        std::cout << gate.name << ": interpreted " << serial
                  << " s, compiled " << fast << " s, speedup "
                  << speedup << "x (" << build_type << " floor " << floor
                  << "x)\n";
        EXPECT_GE(speedup, floor)
            << gate.name
            << " compiled replay lost its edge over interpreted "
            << "serial replay; profile the compiled executor";
    }
}

/**
 * The committed baseline also records absolute compiled throughput
 * ("replay/synthetic/<model>/compiled" rows); hold 50% of it so a
 * regression that slows both paths equally (and thus passes the
 * speedup gate) still trips.
 */
TEST(PerfReplay, CompiledThroughputHoldsBaseline)
{
    const char *baseline_path = std::getenv("PERSIM_BENCH_BASELINE");
    ASSERT_NE(baseline_path, nullptr)
        << "PERSIM_BENCH_BASELINE not set (run via ctest -C perf)";
    const std::map<std::string, BenchSample> baseline =
        readBenchJson(baseline_path);

    const InMemoryTrace trace =
        buildSyntheticTrace(SyntheticTraceConfig{});
    const ModelConfig models[] = {ModelConfig::strict(),
                                  ModelConfig::epoch(),
                                  ModelConfig::strand()};
    for (const ModelConfig &model : models) {
        const auto it = baseline.find(std::string("replay/synthetic/") +
                                      model.name() + "/compiled");
        ASSERT_NE(it, baseline.end())
            << "compiled baseline row missing for " << model.name()
            << " (regenerate with bench/replay_baseline)";
        TimingConfig config;
        config.model = model;
        const CompiledTrace compiled = compileTrace(
            trace.events().data(), trace.events().size(), config);
        const double wall = bestOf(baseline_reps, [&] {
            return compiledSeconds(compiled.view(), config);
        });
        const double rate = static_cast<double>(trace.size()) / wall;
        const double floor = 0.5 * it->second.events_per_sec;
        std::cout << model.name() << "/compiled: " << rate / 1e6
                  << " M events/s (baseline "
                  << it->second.events_per_sec / 1e6 << ", floor "
                  << floor / 1e6 << ")\n";
        EXPECT_GE(rate, floor)
            << model.name()
            << " compiled replay dropped below 50% of the committed "
            << "baseline; investigate or refresh " << baseline_path;
    }
}

/**
 * One-shot gate: the first fast replay of a trace compiles the
 * program it keeps before executing it, so compile + execute
 * together must still beat one interpreted replay — that is the cost
 * a trace analyzed under a single model pays.
 * Interleaved best-of-9 in this process on the cwl1 queue trace
 * (bench/replay_baseline's second trace) under strict; measured
 * 1.62–1.71x on a 4-vCPU x86-64 host (RelWithDebInfo), floor 1.15x.
 */
TEST(PerfReplay, OneShotCompileAndReplayBeatsInterpreted)
{
    QueueWorkloadConfig queue;
    queue.kind = QueueKind::CopyWhileLocked;
    queue.variant = AnnotationVariant::Conservative;
    queue.threads = 1;
    queue.inserts_per_thread = 20000;
    InMemoryTrace trace;
    runQueueWorkload(queue, {&trace});

    TimingConfig config;
    config.model = ModelConfig::strict();
    const auto [serial, one_shot] = interleavedBest(
        paired_reps, [&] { return replaySeconds(trace, config.model); },
        [&] {
            bench::Stopwatch watch;
            const CompiledTrace compiled = compileTrace(
                trace.events().data(), trace.events().size(), config);
            (void)compiledReplay(compiled.view(), config);
            return watch.seconds();
        });
    const double speedup = serial / one_shot;
    constexpr double floor = 1.15;
    std::cout << "cwl1/strict: interpreted " << serial
              << " s, compile + compiled " << one_shot << " s, speedup "
              << speedup << "x (floor " << floor << "x)\n";
    EXPECT_GE(speedup, floor)
        << "compile + compiled replay no longer beats one interpreted "
        << "replay; profile compileTrace";
}
