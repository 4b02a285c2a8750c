/**
 * @file
 * Sweep helper tests (the library behind Figures 3-5).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "persistency/sweep.hh"
#include "tests/support/trace_builder.hh"

namespace persim {
namespace {

using test::paddr;
using test::TraceBuilder;

InMemoryTrace
contiguousTrace()
{
    TraceBuilder builder;
    for (int i = 0; i < 8; ++i)
        builder.store(0, paddr(i), i);
    InMemoryTrace trace;
    builder.trace().replay(trace);
    return trace;
}

/** A wider multi-thread trace so every model/knob has work to do. */
InMemoryTrace
mixedTrace()
{
    TraceBuilder builder;
    for (int i = 0; i < 64; ++i) {
        const ThreadId tid = i % 3;
        builder.opBegin(tid, i);
        builder.store(tid, paddr(i % 16), i);
        builder.store(tid, paddr(16 + i % 8), i);
        if (i % 4 == 0)
            builder.barrier(tid);
        if (i % 8 == 0)
            builder.strand(tid);
        builder.load(tid, paddr(i % 16));
        builder.opEnd(tid, i);
    }
    InMemoryTrace trace;
    builder.trace().replay(trace);
    return trace;
}

/** Bit-identical TimingResult comparison (the acceptance oracle). */
void
expectSameResults(const std::vector<SweepSeries> &a,
                  const std::vector<SweepSeries> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t s = 0; s < a.size(); ++s) {
        ASSERT_EQ(a[s].points.size(), b[s].points.size());
        for (std::size_t p = 0; p < a[s].points.size(); ++p) {
            const TimingResult &x = a[s].points[p].result;
            const TimingResult &y = b[s].points[p].result;
            EXPECT_EQ(a[s].points[p].value, b[s].points[p].value);
            EXPECT_EQ(x.critical_path, y.critical_path)
                << "series " << s << " point " << p;
            EXPECT_EQ(x.persists, y.persists);
            EXPECT_EQ(x.coalesced, y.coalesced);
            EXPECT_EQ(x.window_blocked, y.window_blocked);
            EXPECT_EQ(x.races, y.races);
            EXPECT_EQ(x.ops, y.ops);
            EXPECT_EQ(x.events, y.events);
            EXPECT_EQ(x.barriers, y.barriers);
            EXPECT_EQ(x.strands, y.strands);
        }
    }
}

/** The sweep's answer from one fresh engine per config. */
std::vector<SweepSeries>
engineSweep(const InMemoryTrace &trace,
            const std::vector<ModelConfig> &models,
            const std::vector<std::uint64_t> &grans,
            GranularityKnob knob)
{
    std::vector<SweepSeries> series;
    for (const ModelConfig &base : models) {
        SweepSeries entry;
        entry.model = base;
        for (const std::uint64_t gran : grans) {
            TimingConfig config;
            config.model = base;
            if (knob == GranularityKnob::AtomicPersist)
                config.model.atomic_granularity = gran;
            else
                config.model.tracking_granularity = gran;
            PersistTimingEngine engine(config);
            trace.replay(engine);
            entry.points.push_back({gran, engine.result(), 0.0});
        }
        series.push_back(entry);
    }
    return series;
}

TEST(Sweep, GranularitySweepMatchesIndividualRuns)
{
    const auto trace = contiguousTrace();
    const std::vector<std::uint64_t> grans{8, 32, 64};
    const auto series = granularitySweep(
        trace, {ModelConfig::strict(), ModelConfig::epoch()}, grans,
        GranularityKnob::AtomicPersist);
    ASSERT_EQ(series.size(), 2u);
    ASSERT_EQ(series[0].points.size(), 3u);

    // Cross-check one point against a standalone engine.
    ModelConfig model = ModelConfig::strict();
    model.atomic_granularity = 32;
    TimingConfig config;
    config.model = model;
    PersistTimingEngine engine(config);
    trace.replay(engine);
    EXPECT_EQ(series[0].points[1].value, 32u);
    EXPECT_EQ(series[0].points[1].result.critical_path,
              engine.result().critical_path);
}

TEST(Sweep, TrackingKnobSweeps)
{
    const auto trace = contiguousTrace();
    const auto series = granularitySweep(
        trace, {ModelConfig::epoch()}, {8, 256},
        GranularityKnob::Tracking);
    ASSERT_EQ(series.size(), 1u);
    // Coarser tracking can only lengthen the path.
    EXPECT_LE(series[0].points[0].result.critical_path,
              series[0].points[1].result.critical_path);
}

TEST(Sweep, ParallelMatchesSerialBitForBit)
{
    // The acceptance oracle for the task-pool runtime: the parallel
    // sweep (one replay per task) must reproduce the serial sweep
    // exactly, for every config — and both must be the engine's
    // answer, whether a config took the compiled path or not.
    const auto trace = mixedTrace();
    const std::vector<ModelConfig> models{
        ModelConfig::strict(), ModelConfig::epoch(),
        ModelConfig::strand()};
    const std::vector<std::uint64_t> grans{8, 16, 64, 256};

    for (const auto knob :
         {GranularityKnob::AtomicPersist, GranularityKnob::Tracking}) {
        const auto serial =
            granularitySweep(trace, models, grans, knob);
        expectSameResults(engineSweep(trace, models, grans, knob),
                          serial);
        SweepOptions parallel;
        parallel.jobs = 4;
        const auto pooled =
            granularitySweep(trace, models, grans, knob, parallel);
        expectSameResults(serial, pooled);
        SweepOptions hardware;
        hardware.jobs = 0; // One worker per hardware thread.
        expectSameResults(
            serial, granularitySweep(trace, models, grans, knob,
                                     hardware));
    }
}

// Four workers replaying one fresh trace race to build the program it
// keeps: strict/epoch/strand at 8 bytes and the px86 preset share one
// t8 program with 64-byte lines, px86 at 8-byte lines needs its own,
// so the kept program is built and replaced under concurrent replays.
// The answers must equal a serial sweep of an identical fresh trace
// and a fresh engine per config. scripts/check.sh runs this under
// ThreadSanitizer.
TEST(Sweep, ParallelReplaysShareTheTracesProgram)
{
    TraceBuilder builder;
    for (int i = 0; i < 96; ++i) {
        const ThreadId tid = i % 4;
        builder.opBegin(tid, i);
        builder.store(tid, paddr(i % 24), i);
        builder.load(tid, paddr((i * 7) % 24));
        if (i % 3 == 0)
            builder.clwb(tid, paddr(i % 24));
        if (i % 5 == 0)
            builder.barrier(tid);
        if (i % 11 == 0)
            builder.clflush(tid, paddr(64 + i));
        builder.opEnd(tid, i);
    }
    const std::vector<ModelConfig> models{
        ModelConfig::strict(), ModelConfig::epoch(),
        ModelConfig::strand(), ModelConfig::px86()};
    const std::vector<std::uint64_t> grans{8, 64};
    const auto knob = GranularityKnob::AtomicPersist;

    InMemoryTrace pooled_trace = builder.trace();
    ASSERT_EQ(pooled_trace.program(), nullptr);
    SweepOptions parallel;
    parallel.jobs = 4;
    const auto pooled =
        granularitySweep(pooled_trace, models, grans, knob, parallel);
    EXPECT_NE(pooled_trace.program(), nullptr);

    const InMemoryTrace serial_trace = builder.trace();
    const auto serial = granularitySweep(serial_trace, models, grans, knob);
    expectSameResults(serial, pooled);
    expectSameResults(engineSweep(serial_trace, models, grans, knob),
                      pooled);
    for (std::size_t m = 0; m < models.size(); ++m)
        for (std::size_t p = 0; p < grans.size(); ++p) {
            const TimingResult &x = serial[m].points[p].result;
            const TimingResult &y = pooled[m].points[p].result;
            EXPECT_EQ(x.flushes, y.flushes);
            EXPECT_EQ(x.fences, y.fences);
            EXPECT_EQ(x.unflushed, y.unflushed);
        }
}

TEST(Sweep, EmptyInputsAreFatal)
{
    const auto trace = contiguousTrace();
    EXPECT_THROW(granularitySweep(trace, {}, {8},
                                  GranularityKnob::Tracking),
                 FatalError);
    EXPECT_THROW(granularitySweep(trace, {ModelConfig::epoch()}, {},
                                  GranularityKnob::Tracking),
                 FatalError);
}

TEST(Sweep, BreakEvenLatency)
{
    EXPECT_DOUBLE_EQ(breakEvenLatencyNs(1000, 2000.0, 1e7), 50.0);
    EXPECT_TRUE(std::isinf(breakEvenLatencyNs(1000, 0.0, 1e7)));
    EXPECT_THROW(breakEvenLatencyNs(1, 1.0, 0.0), FatalError);
}

TEST(Sweep, LogGrid)
{
    const auto grid = logLatencyGrid(10.0, 1000.0, 2);
    ASSERT_EQ(grid.size(), 5u);
    EXPECT_NEAR(grid[0], 10.0, 1e-9);
    EXPECT_NEAR(grid[2], 100.0, 1e-6);
    EXPECT_NEAR(grid[4], 1000.0, 1e-5);
    EXPECT_THROW(logLatencyGrid(0.0, 10.0, 2), FatalError);
    EXPECT_THROW(logLatencyGrid(10.0, 5.0, 2), FatalError);
    EXPECT_THROW(logLatencyGrid(1.0, 10.0, 0), FatalError);
}

TEST(Sweep, LogGridNeverDropsTheFinalPoint)
{
    // Regression: the grid used to accumulate `e += 1/ppd` in
    // floating point, which can drift past hi and drop the last
    // point for some points_per_decade. Integer step indexing keeps
    // the point count exact and the endpoint on the grid.
    for (unsigned ppd = 1; ppd <= 200; ++ppd) {
        const auto grid = logLatencyGrid(1.0, 1e6, ppd);
        ASSERT_EQ(grid.size(), 6u * ppd + 1u) << "ppd " << ppd;
        EXPECT_NEAR(grid.front(), 1.0, 1e-9) << "ppd " << ppd;
        EXPECT_NEAR(grid.back() / 1e6, 1.0, 1e-9) << "ppd " << ppd;
    }
    // Non-decade endpoints still cover everything at or below hi.
    const auto grid = logLatencyGrid(10.0, 550.0, 4);
    EXPECT_NEAR(grid.front(), 10.0, 1e-9);
    EXPECT_LE(grid.back(), 550.0 * (1.0 + 1e-9));
    ASSERT_EQ(grid.size(), 7u); // floor(log10(55) * 4) + 1.
}

} // namespace
} // namespace persim
