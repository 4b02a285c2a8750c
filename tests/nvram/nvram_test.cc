/**
 * @file
 * Tests for the NVRAM device model, buffered-strict drain simulation,
 * and endurance accounting.
 */

#include <gtest/gtest.h>

#include "nvram/device.hh"
#include "nvram/drain_sim.hh"
#include "nvram/endurance.hh"
#include "persistency/timing_engine.hh"
#include "tests/support/trace_builder.hh"

namespace persim {
namespace {

using test::paddr;
using test::TraceBuilder;

PersistLog
logFor(TraceBuilder &builder, const ModelConfig &model)
{
    return builder.analyzeLog(model);
}

TEST(Device, InfiniteBanksMatchOrderingBound)
{
    TraceBuilder builder;
    builder.store(0, paddr(0)).barrier(0)
           .store(0, paddr(1)).barrier(0)
           .store(0, paddr(2));
    const auto log = logFor(builder, ModelConfig::epoch());
    NvramConfig config;
    config.banks = 0;
    const auto result = replayThroughDevice(log, config);
    EXPECT_DOUBLE_EQ(result.total_ns, result.ordering_bound_ns);
    EXPECT_DOUBLE_EQ(result.total_ns, 3 * config.persist_latency_ns);
    EXPECT_EQ(result.device_writes, 3u);
    EXPECT_EQ(result.bank_stalls, 0u);
}

TEST(Device, SingleBankSerializesConcurrentPersists)
{
    TraceBuilder builder;
    // Four concurrent persists (same epoch, different far-apart
    // blocks so they map to different interleave granules).
    for (int i = 0; i < 4; ++i)
        builder.store(0, paddr(i * 64));
    const auto log = logFor(builder, ModelConfig::epoch());
    NvramConfig config;
    config.banks = 1;
    config.bank_interleave = 256;
    const auto result = replayThroughDevice(log, config);
    EXPECT_DOUBLE_EQ(result.ordering_bound_ns, config.persist_latency_ns);
    EXPECT_DOUBLE_EQ(result.total_ns, 4 * config.persist_latency_ns);
    EXPECT_EQ(result.bank_stalls, 3u);
}

TEST(Device, ManyBanksRecoverConcurrency)
{
    TraceBuilder builder;
    for (int i = 0; i < 4; ++i)
        builder.store(0, paddr(i * 64));
    const auto log = logFor(builder, ModelConfig::epoch());
    NvramConfig config;
    config.banks = 8;
    const auto result = replayThroughDevice(log, config);
    EXPECT_DOUBLE_EQ(result.total_ns, config.persist_latency_ns);
}

TEST(Device, CoalescedPiecesDoNotOccupyBanks)
{
    TraceBuilder builder;
    builder.store(0, paddr(0), 1).store(0, paddr(0), 2)
           .store(0, paddr(0), 3);
    const auto log = logFor(builder, ModelConfig::epoch());
    NvramConfig config;
    config.banks = 1;
    const auto result = replayThroughDevice(log, config);
    EXPECT_EQ(result.device_writes, 1u);
    EXPECT_DOUBLE_EQ(result.total_ns, config.persist_latency_ns);
}

TEST(Drain, UnbufferedStallsEveryPersist)
{
    DrainConfig config;
    config.buffer_depth = 0;
    config.persist_latency_ns = 500.0;
    config.ns_between_persists = 50.0;
    const auto result = simulateDrain(config, 1000);
    // Every persist serializes with execution: ~550ns per persist.
    EXPECT_NEAR(result.total_ns, 1000 * 550.0, 1.0);
    EXPECT_GT(result.stallFraction(), 0.85);
}

TEST(Drain, DeepBufferReachesDrainRate)
{
    DrainConfig config;
    config.buffer_depth = 1 << 20;
    config.persist_latency_ns = 500.0;
    config.ns_between_persists = 50.0;
    const auto result = simulateDrain(config, 1000);
    // The device is the bottleneck: one persist per 500ns, and
    // execution never stalls on the buffer.
    EXPECT_NEAR(result.persistsPerSecond(), 1e9 / 500.0, 1e4);
    EXPECT_DOUBLE_EQ(result.stall_ns, 0.0);
}

TEST(Drain, ExecutionBoundWhenPersistsAreFast)
{
    DrainConfig config;
    config.buffer_depth = 8;
    config.persist_latency_ns = 10.0;
    config.ns_between_persists = 100.0;
    const auto result = simulateDrain(config, 1000);
    EXPECT_NEAR(result.persistsPerSecond(), 1e9 / 100.0, 1e4);
    EXPECT_DOUBLE_EQ(result.stall_ns, 0.0);
}

TEST(Drain, ThroughputMonotoneInBufferDepth)
{
    DrainConfig config;
    config.persist_latency_ns = 500.0;
    config.ns_between_persists = 100.0;
    double prev = 0.0;
    for (std::uint64_t depth : {0, 1, 2, 4, 16, 64}) {
        config.buffer_depth = depth;
        const auto result = simulateDrain(config, 2000);
        EXPECT_GE(result.persistsPerSecond(), prev)
            << "depth " << depth;
        prev = result.persistsPerSecond();
    }
}

TEST(Drain, PersistSyncForcesFullDrain)
{
    DrainConfig config;
    config.buffer_depth = 1 << 20;
    config.persist_latency_ns = 500.0;
    config.ns_between_persists = 50.0;
    config.persists_per_sync = 10;
    const auto with_sync = simulateDrain(config, 1000);
    config.persists_per_sync = 0;
    const auto without = simulateDrain(config, 1000);
    EXPECT_GT(with_sync.stall_ns, 0.0);
    EXPECT_GE(with_sync.total_ns, without.total_ns);
}

TEST(Endurance, CountsPersistentWritesOnly)
{
    TraceBuilder builder;
    builder.store(0, paddr(0))
           .store(0, test::vaddr(0))
           .load(0, paddr(0))
           .rmw(0, paddr(1), 2);
    EnduranceTracker tracker(64);
    builder.trace().replay(tracker);
    EXPECT_EQ(tracker.totalWrites(), 2u);
}

TEST(Endurance, TracksHotBlocks)
{
    TraceBuilder builder;
    for (int i = 0; i < 10; ++i)
        builder.store(0, paddr(0), i); // Hot block.
    builder.store(0, paddr(100));      // Cold block (far away).
    EnduranceTracker tracker(64);
    builder.trace().replay(tracker);
    EXPECT_EQ(tracker.totalWrites(), 11u);
    EXPECT_EQ(tracker.maxBlockWrites(), 10u);
    EXPECT_EQ(tracker.blocksTouched(), 2u);
    EXPECT_EQ(tracker.writesTo(paddr(0)), 10u);
    EXPECT_GT(tracker.imbalance(), 1.5);
}

TEST(Endurance, CoalescingReducesDeviceWrites)
{
    TraceBuilder builder;
    for (int i = 0; i < 10; ++i)
        builder.store(0, paddr(0), i);
    const auto log = builder.analyzeLog(ModelConfig::epoch());
    EXPECT_EQ(log.size(), 10u);
    EXPECT_EQ(countDeviceWrites(log), 1u);

    const auto strict_log = builder.analyzeLog(ModelConfig::strict());
    // Under strict persistency the chain still coalesces (same-block
    // group); raw traffic equals device writes only when constraints
    // block coalescing.
    EXPECT_LE(countDeviceWrites(strict_log), 10u);
}

} // namespace
} // namespace persim
