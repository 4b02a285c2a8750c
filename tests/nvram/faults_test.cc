/**
 * @file
 * Device-fault model tests: the disabled model is byte-identical to
 * the recovery observer's image, every fault class is a deterministic
 * function of its seeds, tearing respects the in-flight window and
 * the atomic write unit, media errors scale with wear, and dropped
 * drains follow the serial-drain law at device-write granularity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "nvram/drain_sim.hh"
#include "nvram/faults.hh"
#include "recovery/recovery.hh"
#include "tests/support/trace_builder.hh"

namespace persim {
namespace {

using test::paddr;
using test::TraceBuilder;

/** Hand-built record with an explicit in-flight window. */
PersistRecord
rec(PersistId id, Addr addr, std::uint64_t value, double start,
    double time, std::uint8_t size = 8)
{
    PersistRecord record;
    record.id = id;
    record.addr = addr;
    record.size = size;
    record.value = value;
    record.start = start;
    record.time = time;
    return record;
}

/** Compare two images over every byte the log touches. */
void
expectSameOverLog(const PersistLog &log, const MemoryImage &a,
                  const MemoryImage &b)
{
    for (const PersistRecord &record : log) {
        for (unsigned i = 0; i < record.size; ++i) {
            EXPECT_EQ(a.load(record.addr + i, 1),
                      b.load(record.addr + i, 1))
                << "byte 0x" << std::hex << record.addr + i;
        }
    }
}

TEST(FaultModel, DisabledModelMatchesReconstructImage)
{
    // A multi-thread stochastic log with coalescing, conflicts, and
    // sub-word pieces; at every interesting crash time the disabled
    // model must reproduce reconstructImage byte-for-byte.
    TraceBuilder builder;
    builder.store(0, paddr(0), 0x1111)
           .store(1, paddr(1), 0x2222)
           .barrier(0)
           .store(0, paddr(0), 0x3333)
           .store(0, paddr(2), 0x4444, 4)
           .barrier(1)
           .store(1, paddr(2) + 4, 0x5555, 4)
           .store(1, paddr(3), 0x6666);
    const PersistLog log = stochasticLog(builder.trace(),
                                         ModelConfig::epoch(), 42, 1.0);
    ASSERT_FALSE(log.empty());

    const FaultModel model{FaultConfig{}};
    ASSERT_FALSE(model.config().enabled());
    std::vector<double> crash_times{-1.0, 0.0};
    for (const PersistRecord &record : log) {
        crash_times.push_back(record.time); // Boundary: inclusive.
        crash_times.push_back(record.time + 1e-9);
    }
    for (double t : crash_times) {
        FaultOutcome outcome;
        const MemoryImage faulty = model.crashImage(log, t, 123,
                                                    &outcome);
        expectSameOverLog(log, faulty, reconstructImage(log, t));
        EXPECT_EQ(outcome.total(), 0u);
    }
}

TEST(FaultModel, TearingIsConfinedToTheInFlightWindow)
{
    const std::uint64_t value = 0x8877665544332211ull;
    const PersistLog log{
        rec(0, paddr(0), value, 0.0, 2.0), // In flight at T=1.
        rec(1, paddr(1), value, 0.5, 0.75), // Durable at T=1.
        rec(2, paddr(2), value, 3.0, 4.0), // Not yet started at T=1.
    };

    FaultConfig config;
    config.tear_persists = true;
    config.atomic_write_unit = 4;

    // tear_land_p = 1: every unit of the in-flight piece lands (an
    // early landing, never torn); the unstarted piece stays absent.
    config.tear_land_p = 1.0;
    FaultOutcome all_land;
    const MemoryImage early = FaultModel{config}.crashImage(
        log, 1.0, 7, &all_land);
    EXPECT_EQ(early.load(paddr(0), 8), value);
    EXPECT_EQ(early.load(paddr(1), 8), value);
    EXPECT_EQ(early.load(paddr(2), 8), 0u);
    EXPECT_EQ(all_land.torn_persists, 1u);

    // tear_land_p = 0: nothing of the in-flight piece lands, and a
    // zero-unit tear is not an injection.
    config.tear_land_p = 0.0;
    FaultOutcome none_land;
    const MemoryImage none = FaultModel{config}.crashImage(
        log, 1.0, 7, &none_land);
    EXPECT_EQ(none.load(paddr(0), 8), 0u);
    EXPECT_EQ(none.load(paddr(1), 8), value);
    EXPECT_EQ(none_land.torn_persists, 0u);

    // Durable records never tear regardless of the tear setting.
    config.tear_land_p = 0.0;
    const MemoryImage after = FaultModel{config}.crashImage(log, 5.0,
                                                            7);
    EXPECT_EQ(after.load(paddr(0), 8), value);
    EXPECT_EQ(after.load(paddr(2), 8), value);
}

TEST(FaultModel, TearingLandsWholeAtomicUnits)
{
    // One 8-byte piece over a 4-byte device unit: the only possible
    // partial states expose exactly one intact half.
    const std::uint64_t value = 0x8877665544332211ull;
    const PersistLog log{rec(0, paddr(0), value, 0.0, 2.0)};

    FaultConfig config;
    config.tear_persists = true;
    config.atomic_write_unit = 4;
    const FaultModel model{config};

    bool saw_low_only = false;
    bool saw_high_only = false;
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        const MemoryImage image = model.crashImage(log, 1.0, seed);
        const std::uint64_t lo = image.load(paddr(0), 4);
        const std::uint64_t hi = image.load(paddr(0) + 4, 4);
        EXPECT_TRUE(lo == 0 || lo == (value & 0xffffffffull));
        EXPECT_TRUE(hi == 0 || hi == (value >> 32));
        saw_low_only |= (lo != 0 && hi == 0);
        saw_high_only |= (lo == 0 && hi != 0);
        // Determinism: the same (log, T, seed) triple replays
        // bit-for-bit.
        expectSameOverLog(log, image,
                          model.crashImage(log, 1.0, seed));
    }
    EXPECT_TRUE(saw_low_only);
    EXPECT_TRUE(saw_high_only);
}

TEST(FaultModel, MediaErrorsScaleWithWear)
{
    // Two wear blocks: a hot one that essentially always fails and a
    // cold one with zero writes that never can.
    const std::uint64_t hot_block = paddr(0) / 64;
    const std::uint64_t cold_block = hot_block + 1;
    FaultConfig config;
    config.media_error_per_write = 1e-3;
    config.wear_block_bytes = 64;
    config.media_kind = MediaFaultKind::StuckAtOne;
    const FaultModel model{
        config, {{hot_block, 1000000}, {cold_block, 0}}};

    // Both blocks hold all-zero bytes, so a stuck-at-1 fault is
    // always visible.
    PersistLog log;
    for (unsigned i = 0; i < 16; ++i)
        log.push_back(rec(i, hot_block * 64 + i * 8, 0, 0.0, 0.5));

    std::uint64_t faults = 0;
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        FaultOutcome outcome;
        const MemoryImage image = model.crashImage(log, 1.0, seed,
                                                   &outcome);
        faults += outcome.media_errors;
        for (const FaultInjection &injection : outcome.injected) {
            ASSERT_EQ(injection.kind,
                      FaultInjection::Kind::MediaError);
            // The corrupted byte lies inside the hot block, and the
            // stuck-at-1 bit reads back set.
            EXPECT_EQ(injection.addr / 64, hot_block);
            EXPECT_NE(image.load(injection.addr, 1) &
                          (1ull << injection.bit),
                      0u);
        }
    }
    // fail_p = 1 - (1 - 1e-3)^1e6 ~= 1: nearly every seed corrupts.
    EXPECT_GT(faults, 24u);
}

TEST(FaultModel, InvisibleStuckAtFaultIsNotCounted)
{
    // Stuck-at-0 over a block that only ever stored zero bytes can
    // never change the image, so no injection is reported.
    FaultConfig config;
    config.media_error_per_write = 1.0;
    config.media_kind = MediaFaultKind::StuckAtZero;
    const FaultModel model{config, {{paddr(0) / 64, 1000}}};
    const PersistLog log{rec(0, paddr(0), 0, 0.0, 0.5)};
    FaultOutcome outcome;
    model.crashImage(log, 1.0, 3, &outcome);
    EXPECT_EQ(outcome.media_errors, 0u);
}

TEST(FaultModel, DroppedDrainsFollowTheSerialDrainLaw)
{
    const PersistLog log{
        rec(0, paddr(0), 1, 0.0, 1.0),
        rec(1, paddr(1), 2, 0.0, 2.0),
    };
    FaultConfig config;
    config.drop_drain_p = 1.0;

    // Slow drain: both device writes still queue at T=3, and with
    // p=1 both vanish.
    config.drain_latency = 10.0;
    FaultOutcome slow;
    const MemoryImage lost = FaultModel{config}.crashImage(
        log, 3.0, 11, &slow);
    EXPECT_EQ(lost.load(paddr(0), 8), 0u);
    EXPECT_EQ(lost.load(paddr(1), 8), 0u);
    EXPECT_EQ(slow.dropped_drains, 2u);

    // Fast drain: both writes drained before T=3; nothing to drop.
    config.drain_latency = 0.1;
    FaultOutcome fast;
    const MemoryImage kept = FaultModel{config}.crashImage(
        log, 3.0, 11, &fast);
    EXPECT_EQ(kept.load(paddr(0), 8), 1u);
    EXPECT_EQ(kept.load(paddr(1), 8), 2u);
    EXPECT_EQ(fast.dropped_drains, 0u);
}

TEST(FaultModel, DropsWholeCoalescingGroups)
{
    // Record 1 coalesced into record 0: one device write, so both
    // pieces vanish together and the drop counts once.
    PersistRecord founder = rec(0, paddr(0), 1, 0.0, 1.0);
    PersistRecord member = rec(1, paddr(1), 2, 0.0, 1.0);
    member.binding = 0;
    member.binding_source = DepSource::Coalesced;
    const PersistLog log{founder, member};

    FaultConfig config;
    config.drop_drain_p = 1.0;
    config.drain_latency = 10.0;
    FaultOutcome outcome;
    const MemoryImage image = FaultModel{config}.crashImage(
        log, 3.0, 11, &outcome);
    EXPECT_EQ(image.load(paddr(0), 8), 0u);
    EXPECT_EQ(image.load(paddr(1), 8), 0u);
    EXPECT_EQ(outcome.dropped_drains, 1u);
}

/** Indices [first, last) of writes still buffered at @p crash_time. */
std::pair<std::size_t, std::size_t>
pendingAtCrash(const std::vector<double> &issues, double crash_time,
               double drain_latency)
{
    const std::vector<double> finish =
        drainFinishTimes(issues, drain_latency);
    return {static_cast<std::size_t>(
                std::upper_bound(finish.begin(), finish.end(),
                                 crash_time) - finish.begin()),
            static_cast<std::size_t>(
                std::upper_bound(issues.begin(), issues.end(),
                                 crash_time) - issues.begin())};
}

TEST(DrainSim, PendingAtCrashTracksTheSerialDrainClock)
{
    // Issues at 1, 2, 3 with unit latency: drains complete at 2, 3,
    // 4. At T=2.5 the first has drained, the second is in the device,
    // and the third has not issued yet.
    const std::vector<double> issues{1.0, 2.0, 3.0};
    EXPECT_EQ(drainFinishTimes(issues, 1.0),
              (std::vector<double>{2.0, 3.0, 4.0}));
    const auto pending = pendingAtCrash(issues, 2.5, 1.0);
    EXPECT_EQ(pending, (std::pair<std::size_t, std::size_t>{1, 2}));

    const auto drained = pendingAtCrash(issues, 10.0, 1.0);
    EXPECT_EQ(drained.first, drained.second);
    EXPECT_TRUE(drainFinishTimes({}, 1.0).empty());

    // Back-to-back issues queue behind each other: at T=1.5 the
    // first write is in the device and the rest wait in the buffer.
    const std::vector<double> burst{1.0, 1.0, 1.0};
    EXPECT_EQ(pendingAtCrash(burst, 1.5, 1.0),
              (std::pair<std::size_t, std::size_t>{0, 3}));
}

} // namespace
} // namespace persim
