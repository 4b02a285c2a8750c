/**
 * @file
 * Race detection tests (TimingConfig::detect_races; paper Section
 * 5.2 and DESIGN.md §14.2).
 *
 * The timing engine's race detector runs a shadow SC propagation: a
 * persist races when a foreign persist precedes it in volatile (SC)
 * memory order — through any chain of conflicting accesses — but the
 * persistency model leaves the two unordered. This is exactly the
 * paper's "astonishing persist ordering": synchronization ordered the
 * stores, not the persists. Under px86 it also reports dirty reads:
 * accesses to a line holding another thread's unflushed store.
 *
 * The PersistRace tests hold both rules to two oracles: counts pinned
 * from the analysis-plugin detector the engine's rule replaced, and
 * the offline reference of tests/support/race_reference.hh.
 */

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "bench_util/queue_workload.hh"
#include "memtrace/trace_io.hh"
#include "persistency/timing_engine.hh"
#include "tests/persistency/golden_support.hh"
#include "tests/support/race_reference.hh"
#include "tests/support/trace_builder.hh"

namespace persim {
namespace {

using test::goldenConfigs;
using test::goldenFixtureNames;
using test::paddr;
using test::ReferenceRaces;
using test::TraceBuilder;
using test::vaddr;

std::uint64_t
racesIn(const TraceBuilder &builder, ModelConfig model = ModelConfig::epoch())
{
    TimingConfig config;
    config.model = model;
    config.detect_races = true;
    PersistTimingEngine engine(config);
    builder.trace().replay(engine);
    return engine.result().races;
}

TEST(RaceDetector, ClassicPersistEpochRace)
{
    // T0 persists A and signals through a volatile flag in the same
    // epoch; T1 sees the flag and persists B: B is SC-after A but the
    // model leaves them unordered.
    TraceBuilder builder;
    builder.store(0, paddr(0))
           .store(0, vaddr(0), 1)
           .load(1, vaddr(0))
           .store(1, paddr(1));
    EXPECT_EQ(racesIn(builder), 1u);
}

TEST(RaceDetector, BarriersOnBothSidesPreventTheRace)
{
    TraceBuilder builder;
    builder.store(0, paddr(0))
           .barrier(0)
           .store(0, vaddr(0), 1)
           .load(1, vaddr(0))
           .barrier(1)
           .store(1, paddr(1));
    EXPECT_EQ(racesIn(builder), 0u);
}

TEST(RaceDetector, ConsumerBarrierAloneStillRaces)
{
    // Without the producer barrier, A is not ordered before the
    // signal, so even a disciplined consumer races.
    TraceBuilder builder;
    builder.store(0, paddr(0))
           .store(0, vaddr(0), 1)
           .load(1, vaddr(0))
           .barrier(1)
           .store(1, paddr(1));
    EXPECT_EQ(racesIn(builder), 1u);
}

TEST(RaceDetector, ProducerBarrierAloneStillRaces)
{
    TraceBuilder builder;
    builder.store(0, paddr(0))
           .barrier(0)
           .store(0, vaddr(0), 1)
           .load(1, vaddr(0))
           .store(1, paddr(1));
    EXPECT_EQ(racesIn(builder), 1u);
}

TEST(RaceDetector, NoRaceWithoutConflict)
{
    TraceBuilder builder;
    builder.store(0, paddr(0))
           .store(0, vaddr(0), 1)
           .load(1, vaddr(5)) // Different block: no communication.
           .store(1, paddr(1));
    EXPECT_EQ(racesIn(builder), 0u);
}

TEST(RaceDetector, WriteWriteConflictPropagates)
{
    TraceBuilder builder;
    builder.store(0, paddr(0))
           .store(0, vaddr(0), 1)
           .store(1, vaddr(0), 2)
           .store(1, paddr(1));
    EXPECT_EQ(racesIn(builder), 1u);
}

TEST(RaceDetector, LoadBeforeStoreConflictPropagates)
{
    TraceBuilder builder;
    builder.store(0, paddr(0))
           .load(0, vaddr(0))
           .store(1, vaddr(0), 1)
           .store(1, paddr(1));
    EXPECT_EQ(racesIn(builder), 1u);
}

TEST(RaceDetector, TransitiveChainThroughThirdThread)
{
    // T0 -> T1 (flag X) -> T2 (flag Y): T2's persist races with A
    // even though T2 never touched T0's flag.
    TraceBuilder builder;
    builder.store(0, paddr(0))
           .store(0, vaddr(0), 1)
           .load(1, vaddr(0))
           .store(1, vaddr(1), 1)
           .load(2, vaddr(1))
           .store(2, paddr(2));
    EXPECT_EQ(racesIn(builder), 1u);
}

TEST(RaceDetector, SameAddressPersistsDoNotRace)
{
    // Strong persist atomicity orders same-address persists even in
    // racing epochs: intentional synchronization, not a race.
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)
           .store(1, paddr(0), 2);
    EXPECT_EQ(racesIn(builder), 0u);
}

TEST(RaceDetector, SpaBasedSynchronizationIsRaceFree)
{
    // The paper's idiom: synchronize through persistent memory. T1
    // RMWs the persistent lock word T0 persisted: the inherited
    // ordering flows through strong persist atomicity, and T1's
    // post-barrier persist is properly ordered.
    TraceBuilder builder;
    builder.store(0, paddr(0))
           .barrier(0)
           .rmw(0, paddr(8), 1)
           .rmw(1, paddr(8), 2)
           .barrier(1)
           .store(1, paddr(1));
    EXPECT_EQ(racesIn(builder), 0u);
}

TEST(RaceDetector, OwnThreadRelaxationIsNotARace)
{
    // Same-thread persists left concurrent by epoch persistency are
    // intended (that is the model's point), not races.
    TraceBuilder builder;
    builder.store(0, paddr(0))
           .store(0, paddr(1))
           .store(0, paddr(2));
    EXPECT_EQ(racesIn(builder), 0u);
}

TEST(RaceDetector, StrictPersistencyNeverRaces)
{
    // Strict persistency honors every SC edge by construction.
    TraceBuilder builder;
    builder.store(0, paddr(0))
           .store(0, vaddr(0), 1)
           .load(1, vaddr(0))
           .store(1, paddr(1))
           .store(1, vaddr(1), 1)
           .load(0, vaddr(1))
           .store(0, paddr(2));
    EXPECT_EQ(racesIn(builder, ModelConfig::strict()), 0u);
}

TEST(RaceDetector, SamplesAreBounded)
{
    TraceBuilder builder;
    builder.store(0, paddr(0));
    for (int i = 0; i < 100; ++i) {
        builder.store(0, vaddr(0), 1)
               .load(1, vaddr(0))
               .store(1, paddr(100 + i));
    }
    TimingConfig config;
    config.model = ModelConfig::epoch();
    config.detect_races = true;
    PersistTimingEngine engine(config);
    builder.trace().replay(engine);
    EXPECT_GT(engine.result().races, 20u);
    EXPECT_EQ(engine.raceSamples().size(), 16u);
}

TEST(RaceDetector, ConservativeCwlIsRaceFree)
{
    QueueWorkloadConfig config;
    config.kind = QueueKind::CopyWhileLocked;
    config.variant = AnnotationVariant::Conservative;
    config.threads = 4;
    config.inserts_per_thread = 30;
    TimingConfig timing;
    timing.model = ModelConfig::epoch();
    timing.detect_races = true;
    PersistTimingEngine engine(timing);
    std::vector<TraceSink *> sinks{&engine};
    runQueueWorkload(config, sinks);
    EXPECT_EQ(engine.result().races, 0u);
}

TEST(RaceDetector, RacingCwlRacesIntentionally)
{
    QueueWorkloadConfig config;
    config.kind = QueueKind::CopyWhileLocked;
    config.variant = AnnotationVariant::Racing;
    config.threads = 4;
    config.inserts_per_thread = 30;
    TimingConfig timing;
    timing.model = ModelConfig::epoch();
    timing.detect_races = true;
    PersistTimingEngine engine(timing);
    std::vector<TraceSink *> sinks{&engine};
    runQueueWorkload(config, sinks);
    EXPECT_GT(engine.result().races, 0u);
}

TEST(RaceDetector, DisabledByDefault)
{
    TraceBuilder builder;
    builder.store(0, paddr(0))
           .store(0, vaddr(0), 1)
           .load(1, vaddr(0))
           .store(1, paddr(1));
    TimingConfig config;
    config.model = ModelConfig::epoch();
    PersistTimingEngine engine(config);
    builder.trace().replay(engine);
    EXPECT_EQ(engine.result().races, 0u);
    EXPECT_TRUE(engine.raceSamples().empty());
}

/** Both rules' counts from the engine and from the reference. */
struct Detected
{
    std::uint64_t unordered = 0;
    std::uint64_t dirty_reads = 0;
    ReferenceRaces reference;
};

Detected
detect(const InMemoryTrace &trace, TimingConfig config)
{
    config.detect_races = true;
    config.record_log = true;
    PersistTimingEngine engine(config);
    trace.replay(engine);
    Detected out;
    out.unordered = engine.result().races;
    out.dirty_reads = engine.result().dirty_reads;
    out.reference = test::referenceRaces(trace, engine.log(), config.model);
    return out;
}

Detected
detect(const TraceBuilder &builder,
       ModelConfig model = ModelConfig::epoch())
{
    TimingConfig config;
    config.model = model;
    return detect(builder.trace(), config);
}

/** The engine's counts equal the offline reference's. */
void
expectReference(const Detected &seen, const std::string &where = "")
{
    EXPECT_EQ(seen.unordered, seen.reference.unordered) << where;
    EXPECT_EQ(seen.dirty_reads, seen.reference.dirty_reads) << where;
}

TEST(PersistRace, ClassicPersistEpochRaceMatchesEngine)
{
    TraceBuilder builder;
    builder.store(0, paddr(0))
           .store(0, vaddr(0), 1)
           .load(1, vaddr(0))
           .store(1, paddr(1));
    const Detected seen = detect(builder);
    EXPECT_EQ(seen.unordered, 1u);
    expectReference(seen);
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
    const Detected seen = detect(builder);
    EXPECT_EQ(seen.unordered, 0u);
    expectReference(seen);
}

TEST(PersistRace, AgreesWithEngineOnLitmusPatterns)
{
    // The pattern zoo of the RaceDetector tests above, each with its
    // pinned count under epoch, strand and strict.
    std::vector<TraceBuilder> patterns(7);
    patterns[0].store(0, paddr(0)).store(0, vaddr(0), 1)
        .load(1, vaddr(0)).barrier(1).store(1, paddr(1));
    patterns[1].store(0, paddr(0)).barrier(0)
        .store(0, vaddr(0), 1).load(1, vaddr(0)).store(1, paddr(1));
    patterns[2].store(0, paddr(0)).store(0, vaddr(0), 1)
        .load(1, vaddr(5)).store(1, paddr(1));
    patterns[3].store(0, paddr(0)).store(0, vaddr(0), 1)
        .store(1, vaddr(0), 2).store(1, paddr(1));
    patterns[4].store(0, paddr(0)).store(0, vaddr(0), 1)
        .load(1, vaddr(0)).store(1, vaddr(1), 1)
        .load(2, vaddr(1)).store(2, paddr(2));
    patterns[5].store(0, paddr(0), 1).store(1, paddr(0), 2);
    patterns[6].store(0, paddr(0)).barrier(0)
        .rmw(0, paddr(8), 1).rmw(1, paddr(8), 2).barrier(1)
        .store(1, paddr(1));
    const std::uint64_t pins[7][3] = {
        {1, 1, 0}, {1, 1, 0}, {0, 0, 0}, {1, 1, 0},
        {1, 1, 0}, {0, 0, 0}, {0, 0, 0},
    };
    const ModelConfig models[] = {ModelConfig::epoch(),
                                  ModelConfig::strand(),
                                  ModelConfig::strict()};
    for (std::size_t i = 0; i < patterns.size(); ++i) {
        for (std::size_t m = 0; m < 3; ++m) {
            const std::string where = "pattern " + std::to_string(i) +
                " model " + models[m].name();
            const Detected seen = detect(patterns[i], models[m]);
            EXPECT_EQ(seen.unordered, pins[i][m]) << where;
            EXPECT_EQ(seen.dirty_reads, 0u) << where;
            expectReference(seen, where);
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
    const Detected seen = detect(builder, ModelConfig::px86());
    EXPECT_EQ(seen.dirty_reads, 1u);
    expectReference(seen);
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
    const Detected seen = detect(builder, ModelConfig::px86());
    EXPECT_EQ(seen.dirty_reads, 0u);
    expectReference(seen);
}

TEST(PersistRace, ForeignOverwriteReportsAndTakesOwnership)
{
    // T1 overwrites T0's dirty line (one dirty_read), then T0 reads
    // it back while dirty under T1 (a second, from the new episode).
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)
           .store(1, paddr(0), 2)
           .load(0, paddr(0));
    const Detected seen = detect(builder, ModelConfig::px86());
    EXPECT_EQ(seen.dirty_reads, 2u);
    expectReference(seen);
}

TEST(PersistRace, DirtyReadReportedOncePerEpisode)
{
    TraceBuilder builder;
    builder.store(0, paddr(0), 1);
    for (int i = 0; i < 8; ++i)
        builder.load(1, paddr(0));
    const Detected seen = detect(builder, ModelConfig::px86());
    EXPECT_EQ(seen.dirty_reads, 1u);
    expectReference(seen);
}

TEST(PersistRace, DirtyReadRuleInertOffPx86)
{
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)
           .load(1, paddr(0));
    const Detected seen = detect(builder);
    EXPECT_EQ(seen.dirty_reads, 0u);
    expectReference(seen);
}

TEST(PersistRace, BarrierEndsTheEpisodesOfLinesItFlushes)
{
    // A px86 barrier flushes every line its thread wrote since its
    // last barrier — here a line T1 has since overwritten — which
    // ends T1's episode; T0's own later store starts a fresh one.
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)
           .store(1, paddr(0), 2)   // dirty read 1 (T1 on T0's line)
           .barrier(0)              // flushes the line: no owner
           .load(2, paddr(0))       // clean: nothing
           .store(0, paddr(0), 3)
           .load(1, paddr(0));      // dirty read 2 (new episode)
    const Detected seen = detect(builder, ModelConfig::px86());
    EXPECT_EQ(seen.dirty_reads, 2u);
    expectReference(seen);
}

TEST(PersistRace, SamplesAreBoundedCountsAreNot)
{
    // One dirty read per line: the count keeps going, the samples
    // stop at 16 and carry the dirty-read fields.
    TraceBuilder builder;
    for (int i = 0; i < 100; ++i)
        builder.store(0, paddr(8 * i), 1).load(1, paddr(8 * i));
    TimingConfig config;
    config.model = ModelConfig::px86();
    config.detect_races = true;
    PersistTimingEngine engine(config);
    builder.trace().replay(engine);
    EXPECT_EQ(engine.result().dirty_reads, 100u);
    EXPECT_EQ(engine.result().races, 0u);
    ASSERT_EQ(engine.raceSamples().size(), 16u);
    for (std::size_t i = 0; i < 16; ++i) {
        const PersistTimingEngine::RaceSample &sample =
            engine.raceSamples()[i];
        EXPECT_EQ(sample.kind, PersistTimingEngine::RaceKind::DirtyRead);
        EXPECT_EQ(sample.thread, 1u);
        EXPECT_EQ(sample.owner, 0u);
        EXPECT_EQ(sample.addr, paddr(8 * i));
        EXPECT_EQ(sample.persist, invalid_persist);
    }
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

// Unordered persists per golden fixture under every frozen config of
// goldenConfigs() (in its order), detect_races forced on, and both
// rules under the px86 preset.
struct GoldenRaces
{
    const char *fixture;
    std::uint64_t unordered[10];
    std::uint64_t px86_unordered;
    std::uint64_t px86_dirty_reads;
};

const GoldenRaces golden_races[] = {
    {"cwl1", {0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0, 0},
    {"tlc2", {0, 1022, 1022, 1012, 0, 586, 1036, 218, 1022, 1134}, 0, 27},
    {"strand1", {0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0, 0},
    {"mixed", {26, 752, 1031, 807, 7, 786, 732, 234, 752, 1262}, 42, 796},
};

TEST(PersistRace, GoldenFixturesMatchEngineGroundTruth)
{
    const std::vector<test::GoldenConfig> configs = goldenConfigs();
    ASSERT_EQ(configs.size(), 10u);
    ASSERT_EQ(goldenFixtureNames().size(), std::size(golden_races));
    for (const GoldenRaces &pin : golden_races) {
        const InMemoryTrace trace =
            readTraceFile(goldenDir() + "/" + pin.fixture + ".trc");
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const std::string where =
                std::string(pin.fixture) + "/" + configs[c].name;
            const Detected seen = detect(trace, configs[c].timing);
            EXPECT_EQ(seen.unordered, pin.unordered[c]) << where;
            EXPECT_EQ(seen.dirty_reads, 0u) << where;
            expectReference(seen, where);
        }
        TimingConfig px86;
        px86.model = ModelConfig::px86();
        const Detected seen = detect(trace, px86);
        EXPECT_EQ(seen.unordered, pin.px86_unordered) << pin.fixture;
        EXPECT_EQ(seen.dirty_reads, pin.px86_dirty_reads) << pin.fixture;
        expectReference(seen, std::string(pin.fixture) + "/px86");
    }
}

// The properly annotated fixtures are race-free under both rules.
TEST(PersistRace, NoFalsePositivesOnCleanFixtures)
{
    for (const char *name : {"cwl1", "strand1"}) {
        const InMemoryTrace trace =
            readTraceFile(goldenDir() + "/" + name + ".trc");
        for (const ModelConfig &model :
             {ModelConfig::epoch(), ModelConfig::strand(),
              ModelConfig::px86()}) {
            TimingConfig config;
            config.model = model;
            const Detected seen = detect(trace, config);
            EXPECT_EQ(seen.unordered, 0u) << name << "/" << model.name();
            EXPECT_EQ(seen.dirty_reads, 0u) << name << "/" << model.name();
            expectReference(seen, name);
        }
    }
}

} // namespace
} // namespace persim
