/**
 * @file
 * Tests for the experiment support library: the throughput model,
 * bench-report JSON round-tripping, table formatting, the queue
 * workload driver configuration, and the bench flag parser.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "bench_util/bench_report.hh"
#include "bench_util/queue_workload.hh"
#include "bench_util/table.hh"
#include "bench_util/throughput.hh"
#include "common/bitops.hh"

namespace persim {
namespace {

TEST(Throughput, PersistBoundRateMath)
{
    // 1000 ops, critical path 2000 persists, 500 ns each:
    // 1000 / (2000 * 500ns) = 1M ops/s.
    EXPECT_DOUBLE_EQ(persistBoundRate(1000, 2000.0, 500.0), 1e6);
    EXPECT_TRUE(std::isinf(persistBoundRate(1000, 0.0, 500.0)));
    EXPECT_THROW(persistBoundRate(1, 1.0, 0.0), FatalError);
}

TEST(Throughput, NormalizationAndBounds)
{
    const auto t = makeThroughput(2e6, 1000, 2000.0, 500.0);
    EXPECT_DOUBLE_EQ(t.persist_rate, 1e6);
    EXPECT_DOUBLE_EQ(t.normalized(), 0.5);
    EXPECT_DOUBLE_EQ(t.achievable(), 1e6);
    EXPECT_TRUE(t.persistBound());

    const auto fast = makeThroughput(0.5e6, 1000, 2000.0, 500.0);
    EXPECT_DOUBLE_EQ(fast.normalized(), 2.0);
    EXPECT_DOUBLE_EQ(fast.achievable(), 0.5e6);
    EXPECT_FALSE(fast.persistBound());
}

TEST(Throughput, ZeroInstructionRateIsFatal)
{
    Throughput t;
    t.instruction_rate = 0.0;
    t.persist_rate = 1.0;
    EXPECT_THROW(t.normalized(), FatalError);
}

TEST(BenchReport, SamplesCarryRssFieldsAndRoundTrip)
{
    BenchReport report;
    report.add("replay/a", 1000, 0.5);
    // Touch enough memory between samples that the process high-water
    // mark moves, so the second sample's delta is visibly attributed
    // to work done after the first add().
    std::vector<char> ballast(32 << 20, 1);
    // Spin until the process has used measurable CPU since the first
    // add(), so sample b's cpu_seconds has something to count.
    const double spin_from = processCpuSeconds();
    while (processCpuSeconds() < spin_from + 0.02) {
    }
    report.add("replay/b", 2000, 0.25);
    ASSERT_EQ(report.size(), 2u);
    EXPECT_NE(ballast[16 << 20], 0);

    const std::string path =
        std::string(::testing::TempDir()) + "persim_bench_report.json";
    report.writeJson(path);
    const auto samples = readBenchJson(path);
    std::remove(path.c_str());

    ASSERT_EQ(samples.size(), 2u);
    const BenchSample &a = samples.at("replay/a");
    EXPECT_EQ(a.events, 1000u);
    EXPECT_DOUBLE_EQ(a.wall_seconds, 0.5);
    EXPECT_DOUBLE_EQ(a.events_per_sec, 2000.0);
    const BenchSample &b = samples.at("replay/b");
    EXPECT_DOUBLE_EQ(b.events_per_sec, 8000.0);

    // peak_rss_kb is the process-wide high-water mark: nonzero and
    // non-decreasing across samples. The ballast guarantees sample b
    // saw a peak at least ~32 MiB above sample a, so its delta
    // reflects the growth since the previous add().
    EXPECT_GT(a.peak_rss_kb, 0u);
    EXPECT_GE(b.peak_rss_kb, a.peak_rss_kb + (30u << 10));
    EXPECT_GE(b.rss_delta_kb, 30u << 10);
    EXPECT_EQ(b.rss_delta_kb, b.peak_rss_kb - a.peak_rss_kb);
    // The ballast's first touches are minor faults counted against
    // sample b (huge pages may make them few, never none).
    EXPECT_GT(b.minor_faults, 0u);
    // cpu_seconds is the process CPU time since the previous add().
    EXPECT_GE(b.cpu_seconds, 0.015);
}

TEST(BenchReport, ReadsFilesWrittenWithoutMinorFaults)
{
    const std::string path =
        std::string(::testing::TempDir()) + "persim_bench_legacy.json";
    std::FILE *file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fputs("{\n  \"replay/old\": {\n    \"events\": 10,\n"
               "    \"wall_seconds\": 2,\n"
               "    \"events_per_sec\": 5,\n"
               "    \"peak_rss_kb\": 300,\n"
               "    \"rss_delta_kb\": 7\n  }\n}\n",
               file);
    std::fclose(file);
    const auto samples = readBenchJson(path);
    std::remove(path.c_str());

    ASSERT_EQ(samples.size(), 1u);
    const BenchSample &old = samples.at("replay/old");
    EXPECT_EQ(old.events, 10u);
    EXPECT_EQ(old.peak_rss_kb, 300u);
    EXPECT_EQ(old.rss_delta_kb, 7u);
    EXPECT_EQ(old.minor_faults, 0u);
    EXPECT_EQ(old.cpu_seconds, 0.0);
}

TEST(BenchReport, RejectsDuplicateAndUnescapableKeys)
{
    BenchReport report;
    report.add("k", 1, 1.0);
    EXPECT_THROW(report.add("k", 1, 1.0), FatalError);
    EXPECT_THROW(report.add("quote\"key", 1, 1.0), FatalError);
}

TEST(Table, AlignsColumns)
{
    TextTable table;
    table.header({"a", "long_header", "c"});
    table.row({"xxxxxx", "1", "2"});
    table.row({"y", "22", "333"});
    const std::string text = table.render();
    // All lines equal length (trailing pads), header separator there.
    EXPECT_NE(text.find("long_header"), std::string::npos);
    EXPECT_NE(text.find("---"), std::string::npos);
    EXPECT_NE(text.find("xxxxxx"), std::string::npos);
}

TEST(Table, Formatting)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatDouble(2.0, 0), "2");
    EXPECT_EQ(formatRate(2.5e6), "2.500 M/s");
    EXPECT_EQ(formatRate(2.5e3), "2.500 K/s");
    EXPECT_EQ(formatRate(12.0), "12.000 /s");
}

TEST(Workload, VariantNamesAndTable1Set)
{
    EXPECT_STREQ(annotationVariantName(AnnotationVariant::Conservative),
                 "conservative");
    EXPECT_STREQ(annotationVariantName(AnnotationVariant::Racing),
                 "racing");
    EXPECT_STREQ(annotationVariantName(AnnotationVariant::Strand),
                 "strand");
    const auto variants = table1Variants();
    ASSERT_EQ(variants.size(), 4u);
    EXPECT_EQ(variants[0].name, "Strict");
    EXPECT_EQ(variants[0].model.kind, ModelKind::Strict);
    EXPECT_EQ(variants[2].trace_variant, AnnotationVariant::Racing);
    EXPECT_EQ(variants[3].model.kind, ModelKind::Strand);
}

TEST(Workload, OptionsFollowVariant)
{
    QueueWorkloadConfig config;
    config.variant = AnnotationVariant::Conservative;
    EXPECT_TRUE(config.queueOptions().conservative_barriers);
    EXPECT_FALSE(config.queueOptions().use_strands);

    config.variant = AnnotationVariant::Racing;
    EXPECT_FALSE(config.queueOptions().conservative_barriers);
    EXPECT_FALSE(config.queueOptions().use_strands);

    config.variant = AnnotationVariant::Strand;
    EXPECT_FALSE(config.queueOptions().conservative_barriers);
    EXPECT_TRUE(config.queueOptions().use_strands);
}

TEST(Workload, WrapSizingFixesCapacity)
{
    QueueWorkloadConfig config;
    config.entry_bytes = 100;
    config.threads = 2;
    config.inserts_per_thread = 100000;
    config.wrap_slots = 512;
    const auto wrapped = config.queueOptions();
    EXPECT_EQ(wrapped.capacity, 512u * 128u);
    EXPECT_TRUE(wrapped.allow_overwrite);

    config.wrap_slots = 0;
    const auto sized = config.queueOptions();
    EXPECT_EQ(sized.capacity, 128u * (config.totalInserts() + 1));
    EXPECT_FALSE(sized.allow_overwrite);
}

TEST(Workload, TotalInsertsAndEventCounts)
{
    QueueWorkloadConfig config;
    config.threads = 3;
    config.inserts_per_thread = 7;
    EXPECT_EQ(config.totalInserts(), 21u);

    InMemoryTrace trace;
    std::vector<TraceSink *> sinks{&trace};
    const auto result = runQueueWorkload(config, sinks);
    EXPECT_EQ(result.inserts, 21u);
    EXPECT_EQ(result.events, trace.size());
    EXPECT_EQ(result.golden.size(), 21u);
    EXPECT_NE(result.layout.header, invalid_addr);
}

TEST(Workload, SeedChangesInterleavingButNotInserts)
{
    QueueWorkloadConfig config;
    config.threads = 3;
    config.inserts_per_thread = 20;
    config.kind = QueueKind::TwoLockConcurrent;
    config.variant = AnnotationVariant::Racing;

    InMemoryTrace a;
    InMemoryTrace b;
    config.seed = 1;
    {
        std::vector<TraceSink *> sinks{&a};
        runQueueWorkload(config, sinks);
    }
    config.seed = 2;
    {
        std::vector<TraceSink *> sinks{&b};
        runQueueWorkload(config, sinks);
    }
    // Different interleavings...
    bool differs = a.size() != b.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a.events()[i].thread != b.events()[i].thread;
    EXPECT_TRUE(differs);
}

/** parseBenchOptions over a command line of @p args. */
bench::BenchOptions
parseArgs(std::vector<std::string> args)
{
    std::string program = "bench";
    std::vector<char *> argv{program.data()};
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return bench::parseBenchOptions(static_cast<int>(argv.size()),
                                    argv.data());
}

TEST(BenchFlags, ParsesNumericValues)
{
    const bench::BenchOptions options =
        parseArgs({"--jobs=4"});
    EXPECT_EQ(options.jobs, 4u);
    EXPECT_EQ(parseArgs({"--jobs=0"}).jobs, 0u);
    EXPECT_DOUBLE_EQ(bench::parseFlagNumber<double>("--theta", "0.99"),
                     0.99);
}

// A bad numeric flag must exit 2 naming the flag, not abort on an
// uncaught exception or wrap a negative count to ~4 billion workers.
TEST(BenchFlagsDeathTest, NonNumericJobsExitsTwo)
{
    EXPECT_EXIT(parseArgs({"--jobs=abc"}), ::testing::ExitedWithCode(2),
                "--jobs");
}

TEST(BenchFlagsDeathTest, NegativeJobsExitsTwo)
{
    EXPECT_EXIT(parseArgs({"--jobs=-1"}), ::testing::ExitedWithCode(2),
                "--jobs");
}

TEST(BenchFlagsDeathTest, TrailingCharactersExitTwo)
{
    EXPECT_EXIT(parseArgs({"--jobs=12x"}), ::testing::ExitedWithCode(2),
                "--jobs");
}

// The trace-file replay flags are gone: every bench now rejects them
// as unknown instead of some benches silently ignoring them.
TEST(BenchFlagsDeathTest, RemovedTraceFileFlagsExitTwo)
{
    EXPECT_EXIT(parseArgs({"--stream"}), ::testing::ExitedWithCode(2),
                "usage");
    EXPECT_EXIT(parseArgs({"--mmap"}), ::testing::ExitedWithCode(2),
                "usage");
    EXPECT_EXIT(parseArgs({"--chunk-events=4"}),
                ::testing::ExitedWithCode(2), "usage");
}

// Replay is compiled wherever the model allows it, so the opt-in flag
// is gone and rejected like any unknown flag.
TEST(BenchFlagsDeathTest, RemovedCompiledFlagExitsTwo)
{
    EXPECT_EXIT(parseArgs({"--compiled"}), ::testing::ExitedWithCode(2),
                "usage");
    EXPECT_EXIT(parseArgs({"--jobs=4", "--compiled"}),
                ::testing::ExitedWithCode(2), "usage");
}

TEST(BenchFlagsDeathTest, OutOfRangeAndSignedValuesExitTwo)
{
    EXPECT_EXIT(parseArgs({"--jobs=4294967296"}),
                ::testing::ExitedWithCode(2), "--jobs");
    EXPECT_EXIT(parseArgs({"--jobs=+4"}), ::testing::ExitedWithCode(2),
                "--jobs");
    EXPECT_EXIT(bench::parseFlagNumber<double>("--theta", "nan"),
                ::testing::ExitedWithCode(2), "--theta");
}

} // namespace
} // namespace persim
