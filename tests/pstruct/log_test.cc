/**
 * @file
 * PersistentLog tests: the checksummed-record durability protocol.
 * Integrity needs no barriers at all (a torn record never validates);
 * the ordering annotations buy the no-holes property — a durable
 * record implies every earlier record is durable.
 */

#include <gtest/gtest.h>

#include "pstruct/log.hh"
#include "recovery/fault_campaign.hh"
#include "recovery/recovery.hh"

namespace persim {
namespace {

std::vector<std::uint8_t>
bytesFor(std::uint64_t id, std::uint64_t len)
{
    std::vector<std::uint8_t> out(len);
    for (std::uint64_t i = 0; i < len; ++i)
        out[i] = static_cast<std::uint8_t>(id * 131 + i);
    return out;
}

TEST(Log, AppendAndRecoverAll)
{
    ExecutionEngine engine(EngineConfig{}, nullptr);
    auto log = std::make_shared<PersistentLog>();
    engine.runSetup([&log](ThreadCtx &ctx) {
        *log = PersistentLog::create(ctx, {.capacity = 4096}, 1);
    });
    engine.run({[log](ThreadCtx &ctx) {
        for (std::uint64_t id = 1; id <= 10; ++id) {
            const auto payload = bytesFor(id, 10 + id * 3);
            log->append(ctx, 0, payload.data(), payload.size());
        }
        EXPECT_GT(log->tailOffset(ctx), 0u);
    }});

    const auto recovered =
        PersistentLog::recover(engine.memory(), log->layout());
    ASSERT_EQ(recovered.records.size(), 10u);
    for (std::uint64_t id = 1; id <= 10; ++id) {
        EXPECT_EQ(recovered.records[id - 1].seq, id - 1);
        EXPECT_EQ(recovered.records[id - 1].payload,
                  bytesFor(id, 10 + id * 3));
    }
}

TEST(Log, RecoverStopsAtCorruption)
{
    ExecutionEngine engine(EngineConfig{}, nullptr);
    auto log = std::make_shared<PersistentLog>();
    engine.runSetup([&log](ThreadCtx &ctx) {
        *log = PersistentLog::create(ctx, {.capacity = 4096}, 1);
    });
    std::uint64_t third_offset = 0;
    engine.run({[log, &third_offset](ThreadCtx &ctx) {
        for (std::uint64_t id = 1; id <= 5; ++id) {
            const auto payload = bytesFor(id, 24);
            const auto offset =
                log->append(ctx, 0, payload.data(), payload.size());
            if (id == 3)
                third_offset = offset;
        }
    }});

    // Flip a payload byte of record 3 in a copy of the image.
    MemoryImage image;
    std::vector<std::uint8_t> blob(log->layout().capacity);
    engine.memory().readBytes(blob.data(), log->layout().base,
                              blob.size());
    image.writeBytes(log->layout().base, blob.data(), blob.size());
    const Addr victim = log->layout().base + third_offset + 20;
    image.store(victim, 1, image.load(victim, 1) ^ 0xff);

    const auto recovered = PersistentLog::recover(image, log->layout());
    EXPECT_EQ(recovered.records.size(), 2u);
    EXPECT_EQ(recovered.valid_bytes, third_offset);
}

TEST(Log, StalePositionNeverValidates)
{
    // Bytes copied from one log offset to another must not validate:
    // the checksum covers the position.
    ExecutionEngine engine(EngineConfig{}, nullptr);
    auto log = std::make_shared<PersistentLog>();
    engine.runSetup([&log](ThreadCtx &ctx) {
        *log = PersistentLog::create(ctx, {.capacity = 4096}, 1);
    });
    std::uint64_t second_offset = 0;
    engine.run({[log, &second_offset](ThreadCtx &ctx) {
        const auto a = bytesFor(1, 16);
        log->append(ctx, 0, a.data(), a.size());
        const auto b = bytesFor(2, 16);
        second_offset = log->append(ctx, 0, b.data(), b.size());
    }});

    MemoryImage image;
    std::vector<std::uint8_t> blob(log->layout().capacity);
    engine.memory().readBytes(blob.data(), log->layout().base,
                              blob.size());
    image.writeBytes(log->layout().base, blob.data(), blob.size());
    // Overwrite record 2's region with a byte-exact copy of record 1.
    std::vector<std::uint8_t> rec(LogLayout::recordBytes(16));
    engine.memory().readBytes(rec.data(), log->layout().base,
                              rec.size());
    image.writeBytes(log->layout().base + second_offset, rec.data(),
                     rec.size());

    const auto recovered = PersistentLog::recover(image, log->layout());
    EXPECT_EQ(recovered.records.size(), 1u);
}

TEST(Log, FullIsFatalAndEmptyPayloadRejected)
{
    ExecutionEngine engine(EngineConfig{}, nullptr);
    engine.runSetup([](ThreadCtx &ctx) {
        auto log = PersistentLog::create(ctx, {.capacity = 64}, 1);
        const auto payload = bytesFor(1, 24); // 48-byte records.
        log.append(ctx, 0, payload.data(), payload.size());
        EXPECT_THROW(log.append(ctx, 0, payload.data(), payload.size()),
                     FatalError);
        EXPECT_THROW(log.append(ctx, 0, payload.data(), 0), FatalError);
    });
}

/** Run a concurrent append workload; return trace + layout. */
std::pair<InMemoryTrace, LogLayout>
logWorkload(std::uint64_t seed, LogOptions options)
{
    InMemoryTrace trace;
    EngineConfig config;
    config.seed = seed;
    config.quantum = 4;
    ExecutionEngine engine(config, &trace);
    auto log = std::make_shared<PersistentLog>();
    engine.runSetup([&](ThreadCtx &ctx) {
        *log = PersistentLog::create(ctx, options, 3);
    });
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < 3; ++t) {
        workers.push_back([log, t](ThreadCtx &ctx) {
            for (std::uint64_t i = 1; i <= 12; ++i) {
                const auto payload = bytesFor(t * 100 + i, 20);
                log->append(ctx, t, payload.data(), payload.size());
            }
        });
    }
    engine.run(workers);
    return {std::move(trace), log->layout()};
}

/** Integrity invariant: whatever validates has correct contents. */
std::string
logIntegrity(const MemoryImage &image, const LogLayout &layout)
{
    const auto recovered = PersistentLog::recover(image, layout);
    for (const auto &record : recovered.records) {
        if (record.payload.size() != 20)
            return "impossible record length";
        const std::uint8_t first = record.payload[0];
        for (std::uint64_t i = 0; i < record.payload.size(); ++i) {
            if (record.payload[i] !=
                static_cast<std::uint8_t>(first + i))
                return "record content no writer produced";
        }
    }
    return "";
}

TEST(Log, IntegrityHoldsEvenWithoutOrderingAnnotations)
{
    // Checksummed records protect integrity with zero barriers: no
    // crash state yields wrong bytes, only shorter prefixes.
    LogOptions options;
    options.capacity = 1 << 16;
    options.omit_order_annotations = true;
    const auto [trace, layout] = logWorkload(5, options);

    InjectionConfig injection;
    injection.model = ModelConfig::strand();
    injection.realizations = 12;
    injection.crashes_per_realization = 48;
    const auto result = runFaultCampaign(
        trace, {.injection = injection},
        [&layout = layout](const MemoryImage &image) {
            return logIntegrity(image, layout);
        });
    EXPECT_TRUE(result.ok()) << result.first_violation;
}

/** No-holes: a valid record implies every earlier record is valid. */
bool
hasHole(const MemoryImage &image, const LogLayout &layout,
        std::uint64_t appended_bytes)
{
    // Walk records structurally using known record size (all appends
    // are 20-byte payloads -> 48-byte records) and check validity
    // independently of the prefix scan.
    const std::uint64_t record_bytes = LogLayout::recordBytes(20);
    bool seen_invalid = false;
    for (std::uint64_t pos = 0; pos + record_bytes <= appended_bytes;
         pos += record_bytes) {
        std::uint8_t payload[20];
        image.readBytes(payload, layout.base + pos + 16, 20);
        const std::uint64_t len = image.load(layout.base + pos, 8);
        const std::uint64_t seq = image.load(layout.base + pos + 8, 8);
        const std::uint64_t stored =
            image.load(layout.base + pos + 16 + 24, 8);
        const bool valid = len == 20 && seq == pos / record_bytes &&
            stored == LogLayout::checksum(pos, seq, 20, payload);
        if (!valid) {
            seen_invalid = true;
        } else if (seen_invalid) {
            return true; // Valid after invalid: a hole.
        }
    }
    return false;
}

TEST(Log, OrderingAnnotationsPreventHoles)
{
    LogOptions options;
    options.capacity = 1 << 16;
    const auto [trace, layout] = logWorkload(9, options);
    const std::uint64_t appended = 36 * LogLayout::recordBytes(20);

    Rng rng(77);
    for (int realization = 0; realization < 10; ++realization) {
        const auto log_records =
            stochasticLog(trace, ModelConfig::strand(), rng.next());
        double span = 0.0;
        for (const auto &record : log_records)
            span = std::max(span, record.time);
        for (int crash = 0; crash < 24; ++crash) {
            const auto image = reconstructImage(
                log_records, rng.nextDouble() * span);
            EXPECT_FALSE(hasHole(image, layout, appended));
        }
    }
}

TEST(Log, WithoutAnnotationsHolesAppear)
{
    LogOptions options;
    options.capacity = 1 << 16;
    options.omit_order_annotations = true;
    const auto [trace, layout] = logWorkload(9, options);
    const std::uint64_t appended = 36 * LogLayout::recordBytes(20);

    Rng rng(78);
    bool found_hole = false;
    for (int realization = 0; realization < 20 && !found_hole;
         ++realization) {
        const auto log_records =
            stochasticLog(trace, ModelConfig::strand(), rng.next());
        double span = 0.0;
        for (const auto &record : log_records)
            span = std::max(span, record.time);
        for (int crash = 0; crash < 32 && !found_hole; ++crash) {
            const auto image = reconstructImage(
                log_records, rng.nextDouble() * span);
            found_hole = hasHole(image, layout, appended);
        }
    }
    EXPECT_TRUE(found_hole)
        << "unordered appends should produce durable holes";
}

TEST(Log, StrandAppendsAreNearlyConcurrentYetOrdered)
{
    LogOptions options;
    options.capacity = 1 << 16;
    const auto [trace, layout] = logWorkload(3, options);
    (void)layout;

    PersistTimingEngine strict({.model = ModelConfig::strict()});
    PersistTimingEngine strand({.model = ModelConfig::strand()});
    trace.replay(strict);
    trace.replay(strand);
    // Records chain one level per append under strand persistency
    // (the minimal requirement), far below strict's serialization.
    EXPECT_LT(strand.result().critical_path,
              strict.result().critical_path / 3.0);
    EXPECT_GE(strand.result().critical_path, 36.0);
}

} // namespace
} // namespace persim
