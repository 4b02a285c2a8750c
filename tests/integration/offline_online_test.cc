/**
 * @file
 * Offline/online equivalence: analyses over a trace file must match
 * analyses streamed during execution, for every model — the property
 * that makes recorded traces trustworthy artifacts.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "bench_util/queue_workload.hh"
#include "memtrace/trace_io.hh"
#include "persistency/timing_engine.hh"
#include "recovery/fault_campaign.hh"
#include "recovery/recovery.hh"

namespace persim {
namespace {

std::string
tempPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "persim_int_" + tag +
        ".trc";
}

TEST(OfflineOnline, TimingResultsMatchThroughAFile)
{
    QueueWorkloadConfig config;
    config.kind = QueueKind::TwoLockConcurrent;
    config.variant = AnnotationVariant::Racing;
    config.threads = 3;
    config.inserts_per_thread = 40;

    const std::string path = tempPath("equiv");
    std::vector<TimingResult> online;
    {
        TraceFileWriter writer(path);
        PersistTimingEngine strict({.model = ModelConfig::strict()});
        PersistTimingEngine epoch({.model = ModelConfig::epoch()});
        PersistTimingEngine strand({.model = ModelConfig::strand()});
        std::vector<TraceSink *> sinks{&writer, &strict, &epoch, &strand};
        runQueueWorkload(config, sinks);
        online = {strict.result(), epoch.result(), strand.result()};
    }

    const InMemoryTrace trace = readTraceFile(path);
    const std::vector<ModelConfig> models{
        ModelConfig::strict(), ModelConfig::epoch(),
        ModelConfig::strand()};
    for (std::size_t i = 0; i < models.size(); ++i) {
        PersistTimingEngine offline({.model = models[i]});
        trace.replay(offline);
        EXPECT_EQ(offline.result().critical_path,
                  online[i].critical_path) << models[i].name();
        EXPECT_EQ(offline.result().persists, online[i].persists);
        EXPECT_EQ(offline.result().coalesced, online[i].coalesced);
        EXPECT_EQ(offline.result().ops, online[i].ops);
    }
    std::remove(path.c_str());
}

TEST(OfflineOnline, PersistLogsMatchThroughAFile)
{
    QueueWorkloadConfig config;
    config.kind = QueueKind::CopyWhileLocked;
    config.variant = AnnotationVariant::Conservative;
    config.threads = 2;
    config.inserts_per_thread = 25;

    const std::string path = tempPath("logs");
    PersistLog online;
    {
        TraceFileWriter writer(path);
        TimingConfig timing;
        timing.model = ModelConfig::epoch();
        timing.record_log = true;
        PersistTimingEngine engine(timing);
        std::vector<TraceSink *> sinks{&writer, &engine};
        runQueueWorkload(config, sinks);
        online = engine.takeLog();
    }

    const InMemoryTrace trace = readTraceFile(path);
    TimingConfig timing;
    timing.model = ModelConfig::epoch();
    timing.record_log = true;
    PersistTimingEngine offline(timing);
    trace.replay(offline);

    ASSERT_EQ(offline.log().size(), online.size());
    for (std::size_t i = 0; i < online.size(); ++i) {
        EXPECT_EQ(offline.log()[i].addr, online[i].addr);
        EXPECT_EQ(offline.log()[i].time, online[i].time);
        EXPECT_EQ(offline.log()[i].value, online[i].value);
        EXPECT_EQ(offline.log()[i].binding, online[i].binding);
        EXPECT_EQ(offline.log()[i].op, online[i].op);
    }
    std::remove(path.c_str());
}

TEST(OfflineOnline, RecoveryInjectionWorksFromAFile)
{
    QueueWorkloadConfig config;
    config.kind = QueueKind::CopyWhileLocked;
    config.variant = AnnotationVariant::Racing;
    config.threads = 2;
    config.inserts_per_thread = 10;

    const std::string path = tempPath("inject");
    QueueWorkloadResult workload;
    {
        TraceFileWriter writer(path);
        std::vector<TraceSink *> sinks{&writer};
        workload = runQueueWorkload(config, sinks);
    }

    const InMemoryTrace trace = readTraceFile(path);
    InjectionConfig injection;
    injection.model = ModelConfig::epoch();
    injection.realizations = 4;
    injection.crashes_per_realization = 16;
    const auto result = runFaultCampaign(
        trace, {.injection = injection},
        makeRecoveryInvariant(workload.layout, workload.golden));
    EXPECT_TRUE(result.ok()) << result.first_violation;
    std::remove(path.c_str());
}

} // namespace
} // namespace persim
