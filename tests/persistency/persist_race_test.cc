/**
 * @file
 * PersistRace detector tests (persistency/persist_race.hh).
 *
 * The UnorderedPersist rule is an independent re-derivation of the
 * engine's detect_races shadow analysis from the plugin hook stream
 * alone, so the strongest test is exact agreement with
 * TimingResult::races — on hand litmus traces, on every golden
 * fixture under every frozen config (the zero-false-positive pin:
 * the engine's count is ground truth, so equality means no invented
 * races). The DirtyRead rule is px86-only and pinned directly on hand traces.
 */

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "memtrace/trace_io.hh"
#include "persistency/persist_race.hh"
#include "persistency/timing_engine.hh"
#include "tests/persistency/golden_support.hh"
#include "tests/support/trace_builder.hh"

namespace persim {
namespace {

using test::goldenConfigs;
using test::goldenFixtureNames;
using test::paddr;
using test::TraceBuilder;
using test::vaddr;

/** Replay with detect_races ground truth + the plugin attached. */
struct Observed
{
    std::uint64_t engine_races = 0;
    std::uint64_t unordered = 0;
    std::uint64_t dirty_reads = 0;
};

Observed
observe(const InMemoryTrace &trace, TimingConfig config)
{
    PersistRaceDetector detector;
    config.detect_races = true;
    config.plugins.push_back(&detector);
    PersistTimingEngine engine(config);
    trace.replay(engine);
    Observed out;
    out.engine_races = engine.result().races;
    out.unordered = detector.unorderedPersists();
    out.dirty_reads = detector.dirtyReads();
    return out;
}

Observed
observe(const TraceBuilder &builder,
        ModelConfig model = ModelConfig::epoch())
{
    TimingConfig config;
    config.model = model;
    return observe(builder.trace(), config);
}

TEST(PersistRace, ClassicPersistEpochRaceMatchesEngine)
{
    TraceBuilder builder;
    builder.store(0, paddr(0))
           .store(0, vaddr(0), 1)
           .load(1, vaddr(0))
           .store(1, paddr(1));
    const Observed seen = observe(builder);
    EXPECT_EQ(seen.unordered, 1u);
    EXPECT_EQ(seen.unordered, seen.engine_races);
}

TEST(PersistRace, BarriersOnBothSidesClean)
{
    TraceBuilder builder;
    builder.store(0, paddr(0))
           .barrier(0)
           .store(0, vaddr(0), 1)
           .load(1, vaddr(0))
           .barrier(1)
           .store(1, paddr(1));
    const Observed seen = observe(builder);
    EXPECT_EQ(seen.unordered, 0u);
    EXPECT_EQ(seen.engine_races, 0u);
}

TEST(PersistRace, AgreesWithEngineOnLitmusPatterns)
{
    // The full pattern zoo from race_detector_test, under epoch,
    // strand, and strict: the plugin must re-derive the engine's
    // verdict from hooks alone in every case.
    std::vector<TraceBuilder> builders(7);
    builders[0].store(0, paddr(0)).store(0, vaddr(0), 1)
               .load(1, vaddr(0)).barrier(1).store(1, paddr(1));
    builders[1].store(0, paddr(0)).barrier(0).store(0, vaddr(0), 1)
               .load(1, vaddr(0)).store(1, paddr(1));
    builders[2].store(0, paddr(0)).store(0, vaddr(0), 1)
               .load(1, vaddr(5)).store(1, paddr(1));
    builders[3].store(0, paddr(0)).store(0, vaddr(0), 1)
               .store(1, vaddr(0), 2).store(1, paddr(1));
    builders[4].store(0, paddr(0)).store(0, vaddr(0), 1)
               .load(1, vaddr(0)).store(1, vaddr(1), 1)
               .load(2, vaddr(1)).store(2, paddr(2));
    builders[5].store(0, paddr(0), 1).store(1, paddr(0), 2);
    builders[6].store(0, paddr(0)).barrier(0).rmw(0, paddr(8), 1)
               .rmw(1, paddr(8), 2).barrier(1).store(1, paddr(1));
    for (std::size_t i = 0; i < builders.size(); ++i) {
        for (const ModelConfig &model :
             {ModelConfig::epoch(), ModelConfig::strand(),
              ModelConfig::strict()}) {
            const Observed seen = observe(builders[i], model);
            EXPECT_EQ(seen.unordered, seen.engine_races)
                << "pattern " << i << " model " << model.name();
        }
    }
}

TEST(PersistRace, DirtyReadFlaggedUnderPx86)
{
    // T1 reads T0's never-flushed store: TSO shows the value, but
    // nothing orders T1's later persists after x's durability.
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)
           .load(1, paddr(0))
           .store(1, paddr(8), 1)
           .clflushopt(1, paddr(8))
           .sfence(1);
    TimingConfig config;
    config.model = ModelConfig::px86();
    const Observed seen = observe(builder.trace(), config);
    EXPECT_EQ(seen.dirty_reads, 1u);
}

TEST(PersistRace, FlushEndsTheDirtyEpisode)
{
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)
           .clflush(0, paddr(0))
           .sfence(0)
           .load(1, paddr(0))
           .store(1, paddr(8), 1)
           .clflush(1, paddr(8))
           .sfence(1);
    TimingConfig config;
    config.model = ModelConfig::px86();
    const Observed seen = observe(builder.trace(), config);
    EXPECT_EQ(seen.dirty_reads, 0u);
}

TEST(PersistRace, ForeignOverwriteReportsAndTakesOwnership)
{
    // T1 overwrites T0's dirty line (one dirty_read), then T0 reads
    // it back while dirty under T1 (a second, from the new episode).
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)
           .store(1, paddr(0), 2)
           .load(0, paddr(0));
    TimingConfig config;
    config.model = ModelConfig::px86();
    const Observed seen = observe(builder.trace(), config);
    EXPECT_EQ(seen.dirty_reads, 2u);
}

TEST(PersistRace, DirtyReadReportedOncePerEpisode)
{
    TraceBuilder builder;
    builder.store(0, paddr(0), 1);
    for (int i = 0; i < 8; ++i)
        builder.load(1, paddr(0));
    TimingConfig config;
    config.model = ModelConfig::px86();
    const Observed seen = observe(builder.trace(), config);
    EXPECT_EQ(seen.dirty_reads, 1u);
}

TEST(PersistRace, DirtyReadRuleInertOffPx86)
{
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)
           .load(1, paddr(0));
    const Observed seen = observe(builder);
    EXPECT_EQ(seen.dirty_reads, 0u);
}

TEST(PersistRace, SamplesAreBoundedCountsAreNot)
{
    TraceBuilder builder;
    builder.store(0, paddr(0));
    for (int i = 0; i < 100; ++i) {
        builder.store(0, vaddr(0), 1)
               .load(1, vaddr(0))
               .store(1, paddr(100 + i));
    }
    PersistRaceDetector detector;
    TimingConfig config;
    config.model = ModelConfig::epoch();
    config.plugins.push_back(&detector);
    PersistTimingEngine engine(config);
    builder.trace().replay(engine);
    EXPECT_GT(detector.unorderedPersists(), 20u);
    EXPECT_EQ(detector.samples().size(), 16u);
    EXPECT_NE(detector.format().find("unordered_persist"),
              std::string::npos);
}

TEST(PersistRace, ResetClearsEverything)
{
    TraceBuilder builder;
    builder.store(0, paddr(0))
           .store(0, vaddr(0), 1)
           .load(1, vaddr(0))
           .store(1, paddr(1));
    PersistRaceDetector detector;
    TimingConfig config;
    config.model = ModelConfig::epoch();
    config.plugins.push_back(&detector);
    {
        PersistTimingEngine engine(config);
        builder.trace().replay(engine);
    }
    ASSERT_GT(detector.total(), 0u);
    detector.reset();
    EXPECT_EQ(detector.total(), 0u);
    EXPECT_TRUE(detector.samples().empty());
    // Reusable after reset: same trace, same verdict.
    {
        PersistTimingEngine engine(config);
        builder.trace().replay(engine);
    }
    EXPECT_EQ(detector.unorderedPersists(), 1u);
}

/** Golden fixture directory (exported by tests/CMakeLists.txt). */
std::string
goldenDir()
{
    const char *dir = std::getenv("PERSIM_GOLDEN_DIR");
    EXPECT_NE(dir, nullptr)
        << "PERSIM_GOLDEN_DIR not set (run via ctest)";
    return dir == nullptr ? std::string() : std::string(dir);
}

// The zero-false-positive pin: on every committed fixture under
// every frozen engine configuration, the plugin's unordered-persist
// count must equal the engine's own detect_races ground truth —
// the plugin may neither invent nor drop a race.
TEST(PersistRace, GoldenFixturesMatchEngineGroundTruth)
{
    for (const std::string &name : goldenFixtureNames()) {
        const InMemoryTrace trace =
            readTraceFile(goldenDir() + "/" + name + ".trc");
        for (const test::GoldenConfig &config : goldenConfigs()) {
            const Observed seen = observe(trace, config.timing);
            EXPECT_EQ(seen.unordered, seen.engine_races)
                << name << "/" << config.name;
        }
    }
}

// The properly annotated fixtures are race-free under their native
// configs; the detector must report exactly zero on them.
TEST(PersistRace, NoFalsePositivesOnCleanFixtures)
{
    for (const std::string &name : goldenFixtureNames()) {
        const InMemoryTrace trace =
            readTraceFile(goldenDir() + "/" + name + ".trc");
        TimingConfig config;
        config.model = ModelConfig::epoch();
        const Observed seen = observe(trace, config);
        EXPECT_EQ(seen.unordered, seen.engine_races) << name;
        if (seen.engine_races == 0)
            EXPECT_EQ(seen.unordered, 0u) << name;
    }
}

} // namespace
} // namespace persim
