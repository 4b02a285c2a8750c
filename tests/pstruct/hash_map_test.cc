/**
 * @file
 * PersistentHashMap tests: functional behavior, probe-chain edge
 * cases, concurrency across seeds, recovery invariants under crash
 * injection for every persistency model, and the negative case
 * (removing the publish barrier corrupts recovery).
 */

#include <gtest/gtest.h>

#include "pstruct/hash_map.hh"
#include "recovery/fault_campaign.hh"
#include "recovery/recovery.hh"

namespace persim {
namespace {

TEST(HashMap, PutGetEraseBasics)
{
    ExecutionEngine engine(EngineConfig{}, nullptr);
    engine.run({[](ThreadCtx &ctx) {
        auto map = PersistentHashMap::create(ctx, {.buckets = 64}, 1);
        std::uint64_t value = 0;
        EXPECT_FALSE(map.get(ctx, 5, value));
        EXPECT_EQ(map.put(ctx, 0, 5, 500), PutStatus::Inserted);
        ASSERT_TRUE(map.get(ctx, 5, value));
        EXPECT_EQ(value, 500u);
        EXPECT_EQ(map.put(ctx, 0, 5, 501), PutStatus::Updated);
        ASSERT_TRUE(map.get(ctx, 5, value));
        EXPECT_EQ(value, 501u);
        EXPECT_EQ(map.count(ctx), 1u);
        EXPECT_TRUE(map.erase(ctx, 0, 5));
        EXPECT_FALSE(map.get(ctx, 5, value));
        EXPECT_FALSE(map.erase(ctx, 0, 5));
        EXPECT_EQ(map.count(ctx), 0u);
    }});
}

TEST(HashMap, ManyKeysWithCollisions)
{
    ExecutionEngine engine(EngineConfig{}, nullptr);
    engine.run({[](ThreadCtx &ctx) {
        // Tiny table: heavy collisions and wraparound probing.
        auto map = PersistentHashMap::create(ctx, {.buckets = 32}, 1);
        for (std::uint64_t key = 1; key <= 24; ++key)
            EXPECT_EQ(map.put(ctx, 0, key, key * 10),
                      PutStatus::Inserted);
        EXPECT_EQ(map.count(ctx), 24u);
        std::uint64_t value = 0;
        for (std::uint64_t key = 1; key <= 24; ++key) {
            ASSERT_TRUE(map.get(ctx, key, value)) << key;
            EXPECT_EQ(value, key * 10);
        }
        EXPECT_FALSE(map.get(ctx, 99, value));
    }});
}

TEST(HashMap, TombstoneReuseKeepsChainsIntact)
{
    ExecutionEngine engine(EngineConfig{}, nullptr);
    engine.run({[](ThreadCtx &ctx) {
        auto map = PersistentHashMap::create(ctx, {.buckets = 8}, 1);
        // Fill a chain, delete the middle, ensure later keys stay
        // reachable and the tombstone is reused.
        for (std::uint64_t key = 1; key <= 6; ++key)
            EXPECT_EQ(map.put(ctx, 0, key, key), PutStatus::Inserted);
        EXPECT_TRUE(map.erase(ctx, 0, 3));
        std::uint64_t value = 0;
        for (std::uint64_t key : {1, 2, 4, 5, 6})
            EXPECT_TRUE(map.get(ctx, key, value)) << key;
        // Should reuse the tombstone.
        EXPECT_EQ(map.put(ctx, 0, 7, 70), PutStatus::Inserted);
        EXPECT_TRUE(map.get(ctx, 7, value));
        EXPECT_EQ(value, 70u);
        EXPECT_EQ(map.count(ctx), 6u);
    }});
}

TEST(HashMap, FullTableReturnsRecoverableStatus)
{
    ExecutionEngine engine(EngineConfig{}, nullptr);
    engine.run({[](ThreadCtx &ctx) {
        auto map = PersistentHashMap::create(ctx, {.buckets = 4}, 1);
        for (std::uint64_t key = 1; key <= 4; ++key)
            EXPECT_EQ(map.put(ctx, 0, key, key), PutStatus::Inserted);
        // Full table: rejected, nothing written, map still usable.
        EXPECT_EQ(map.put(ctx, 0, 5, 5), PutStatus::TableFull);
        EXPECT_EQ(map.count(ctx), 4u);
        std::uint64_t value = 0;
        EXPECT_FALSE(map.get(ctx, 5, value));
        // Existing keys still update and erase fine.
        EXPECT_EQ(map.put(ctx, 0, 2, 22), PutStatus::Updated);
        EXPECT_TRUE(map.erase(ctx, 0, 3));
        // Freeing a bucket makes inserts succeed again.
        EXPECT_EQ(map.put(ctx, 0, 5, 5), PutStatus::Inserted);
        EXPECT_STREQ(putStatusName(PutStatus::TableFull), "table-full");
    }});
}

TEST(HashMap, ZeroKeyRejected)
{
    ExecutionEngine engine(EngineConfig{}, nullptr);
    EXPECT_THROW(engine.run({[](ThreadCtx &ctx) {
        auto map = PersistentHashMap::create(ctx, {.buckets = 8}, 1);
        (void)map.put(ctx, 0, 0, 1);
    }}), FatalError);
}

TEST(HashMap, BadGeometryRejected)
{
    ExecutionEngine engine(EngineConfig{}, nullptr);
    engine.runSetup([](ThreadCtx &ctx) {
        EXPECT_THROW(PersistentHashMap::create(ctx, {.buckets = 20}, 1),
                     FatalError);
        EXPECT_THROW(PersistentHashMap::create(ctx, {.buckets = 8}, 0),
                     FatalError);
    });
}

TEST(HashMap, ConcurrentWritersAcrossSeeds)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        EngineConfig config;
        config.seed = seed;
        config.quantum = 3;
        ExecutionEngine engine(config, nullptr);
        auto map = std::make_shared<PersistentHashMap>();
        engine.runSetup([&map](ThreadCtx &ctx) {
            *map = PersistentHashMap::create(ctx, {.buckets = 256}, 4);
        });
        std::vector<ExecutionEngine::WorkerFn> workers;
        for (int t = 0; t < 4; ++t) {
            workers.push_back([map, t](ThreadCtx &ctx) {
                for (std::uint64_t i = 1; i <= 25; ++i) {
                    const std::uint64_t key = t * 100 + i;
                    EXPECT_EQ(map->put(ctx, t, key, key * 7),
                              PutStatus::Inserted);
                    if (i % 5 == 0) {
                        EXPECT_TRUE(map->erase(ctx, t, key));
                    }
                }
                std::uint64_t value = 0;
                EXPECT_TRUE(map->get(ctx, t * 100 + 1, value));
            });
        }
        engine.run(workers);
    }
}

/** Build a concurrent workload and return its trace + layout. */
std::pair<InMemoryTrace, HashMapLayout>
mapWorkload(std::uint64_t seed, HashMapOptions options)
{
    InMemoryTrace trace;
    EngineConfig config;
    config.seed = seed;
    config.quantum = 4;
    ExecutionEngine engine(config, &trace);
    auto map = std::make_shared<PersistentHashMap>();
    engine.runSetup([&map, &options](ThreadCtx &ctx) {
        *map = PersistentHashMap::create(ctx, options, 3);
    });
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < 3; ++t) {
        workers.push_back([map, t](ThreadCtx &ctx) {
            for (std::uint64_t i = 1; i <= 15; ++i) {
                const std::uint64_t key = t * 50 + i;
                (void)map->put(ctx, t, key, key * 1000 + 1);
                if (i % 3 == 0) // Update.
                    (void)map->put(ctx, t, key, key * 1000 + 2);
                if (i % 4 == 0)
                    map->erase(ctx, t, key);
            }
        });
    }
    engine.run(workers);
    return {std::move(trace), map->layout()};
}

/** Recovery invariant: structure parses and values are plausible. */
std::string
mapInvariant(const MemoryImage &image, const HashMapLayout &layout)
{
    const auto recovered = PersistentHashMap::recover(image, layout);
    if (!recovered.ok)
        return recovered.error;
    for (const auto &[key, value] : recovered.entries) {
        if (value != key * 1000 + 1 && value != key * 1000 + 2)
            return "key " + std::to_string(key) +
                " has a value no writer wrote";
    }
    return "";
}

struct MapInjectionCase
{
    ModelConfig model;
    const char *name;
};

// gtest prints a parameter into the ctest name; by default that is a
// byte dump of padding and the name pointer, which changes per run.
void
PrintTo(const MapInjectionCase &c, std::ostream *os)
{
    *os << c.name;
}

class HashMapInjection
    : public ::testing::TestWithParam<MapInjectionCase>
{
};

TEST_P(HashMapInjection, CrashStatesRecover)
{
    HashMapOptions options;
    options.buckets = 128;
    options.use_strands = true;
    const auto [trace, layout] = mapWorkload(7, options);

    InjectionConfig injection;
    injection.model = GetParam().model;
    injection.realizations = 8;
    injection.crashes_per_realization = 48;
    const auto result = runFaultCampaign(
        trace, {.injection = injection},
        [&layout](const MemoryImage &image) {
            return mapInvariant(image, layout);
        });
    EXPECT_TRUE(result.ok())
        << GetParam().name << ": " << result.first_violation;
}

INSTANTIATE_TEST_SUITE_P(
    Models, HashMapInjection,
    ::testing::Values(
        MapInjectionCase{ModelConfig::strict(), "strict"},
        MapInjectionCase{ModelConfig::epoch(), "epoch"},
        MapInjectionCase{ModelConfig::strand(), "strand"}),
    [](const ::testing::TestParamInfo<MapInjectionCase> &info) {
        return std::string(info.param.name);
    });

TEST(HashMapNegative, OmittingPublishBarrierCorruptsRecovery)
{
    HashMapOptions options;
    options.buckets = 128;
    options.use_strands = true;
    options.omit_publish_barrier = true;
    const auto [trace, layout] = mapWorkload(11, options);

    InjectionConfig injection;
    injection.model = ModelConfig::strand();
    injection.realizations = 24;
    injection.crashes_per_realization = 64;
    const auto result = runFaultCampaign(
        trace, {.injection = injection},
        [&layout = layout](const MemoryImage &image) {
            return mapInvariant(image, layout);
        });
    EXPECT_GT(result.violations, 0u)
        << "the publish barrier should be load-bearing";
}

TEST(HashMapNegative, RecoverDetectsHandcraftedCorruption)
{
    HashMapLayout layout;
    layout.table = persistent_base;
    layout.buckets = 8;

    // Duplicate live key (in its home bucket and the next probe slot,
    // so the surviving copy stays reachable).
    {
        MemoryImage image;
        const std::uint64_t home =
            PersistentHashMap::hashIndex(42, layout.buckets);
        for (std::uint64_t i : {home, home + 1}) {
            image.store(layout.bucketAddr(i) + HashMapLayout::key_off,
                        8, 42);
            image.store(layout.bucketAddr(i) + HashMapLayout::state_off,
                        8, HashMapLayout::state_live);
        }
        const auto result = PersistentHashMap::recover(image, layout);
        EXPECT_FALSE(result.ok);
        EXPECT_NE(result.error.find("two buckets"), std::string::npos);
        ASSERT_EQ(result.faults.size(), 1u);
        EXPECT_EQ(result.faults[0].kind, BucketFaultKind::DuplicateKey);
        // The first occurrence keeps its entry.
        EXPECT_EQ(result.entries.count(42), 1u);
    }
    // Zero live key.
    {
        MemoryImage image;
        image.store(layout.bucketAddr(3) + HashMapLayout::state_off, 8,
                    HashMapLayout::state_live);
        const auto result = PersistentHashMap::recover(image, layout);
        EXPECT_FALSE(result.ok);
        EXPECT_NE(result.error.find("zero key"), std::string::npos);
        ASSERT_EQ(result.faults.size(), 1u);
        EXPECT_EQ(result.faults[0].kind, BucketFaultKind::ZeroKey);
        EXPECT_EQ(result.faults[0].bucket, 3u);
    }
    // Invalid state.
    {
        MemoryImage image;
        image.store(layout.bucketAddr(2) + HashMapLayout::state_off, 8,
                    77);
        const auto result = PersistentHashMap::recover(image, layout);
        EXPECT_FALSE(result.ok);
        EXPECT_NE(result.error.find("invalid state"), std::string::npos);
        ASSERT_EQ(result.faults.size(), 1u);
        EXPECT_EQ(result.faults[0].kind, BucketFaultKind::InvalidState);
    }
    // Unreachable live key (empty bucket breaks its probe chain).
    {
        MemoryImage image;
        const std::uint64_t key = 42;
        const std::uint64_t home =
            PersistentHashMap::hashIndex(key, layout.buckets);
        const std::uint64_t far = (home + 3) & (layout.buckets - 1);
        image.store(layout.bucketAddr(far) + HashMapLayout::key_off, 8,
                    key);
        image.store(layout.bucketAddr(far) + HashMapLayout::state_off, 8,
                    HashMapLayout::state_live);
        const auto result = PersistentHashMap::recover(image, layout);
        EXPECT_FALSE(result.ok);
        EXPECT_NE(result.error.find("unreachable"), std::string::npos);
        ASSERT_EQ(result.faults.size(), 1u);
        EXPECT_EQ(result.faults[0].kind, BucketFaultKind::Unreachable);
        // Unreachable entries are not served in degraded mode.
        EXPECT_EQ(result.entries.count(key), 0u);
    }
    // A clean image parses.
    {
        MemoryImage image;
        const std::uint64_t key = 42;
        const std::uint64_t home =
            PersistentHashMap::hashIndex(key, layout.buckets);
        image.store(layout.bucketAddr(home) + HashMapLayout::key_off, 8,
                    key);
        image.store(layout.bucketAddr(home) + HashMapLayout::value_off,
                    8, 9);
        image.store(layout.bucketAddr(home) + HashMapLayout::state_off,
                    8, HashMapLayout::state_live);
        const auto result = PersistentHashMap::recover(image, layout);
        ASSERT_TRUE(result.ok) << result.error;
        EXPECT_TRUE(result.faults.empty());
        EXPECT_EQ(result.entries.at(key), 9u);
    }
}

TEST(HashMapNegative, RecoverCollectsEveryFaultWithItsCause)
{
    HashMapLayout layout;
    layout.table = persistent_base;
    layout.buckets = 8;

    // One image with three independent faults: recovery must report
    // all of them (not stop at the first) and still serve the healthy
    // entries.
    MemoryImage image;
    image.store(layout.bucketAddr(2) + HashMapLayout::state_off, 8, 77);
    image.store(layout.bucketAddr(3) + HashMapLayout::state_off, 8,
                HashMapLayout::state_live); // Zero key.
    // Key 42 hashes to bucket 4; duplicate it in its home bucket and
    // the next probe slot so the home copy stays valid and reachable.
    const std::uint64_t dup_key = 42;
    const std::uint64_t dup_home =
        PersistentHashMap::hashIndex(dup_key, layout.buckets);
    ASSERT_EQ(dup_home, 4u);
    for (std::uint64_t i : {dup_home, dup_home + 1}) {
        image.store(layout.bucketAddr(i) + HashMapLayout::key_off, 8,
                    dup_key);
        image.store(layout.bucketAddr(i) + HashMapLayout::value_off, 8,
                    420 + i);
        image.store(layout.bucketAddr(i) + HashMapLayout::state_off, 8,
                    HashMapLayout::state_live);
    }
    // Key 19 hashes to bucket 1, away from all faulted chains.
    const std::uint64_t good_key = 19;
    const std::uint64_t home =
        PersistentHashMap::hashIndex(good_key, layout.buckets);
    ASSERT_EQ(home, 1u);
    image.store(layout.bucketAddr(home) + HashMapLayout::key_off, 8,
                good_key);
    image.store(layout.bucketAddr(home) + HashMapLayout::value_off, 8,
                90);
    image.store(layout.bucketAddr(home) + HashMapLayout::state_off, 8,
                HashMapLayout::state_live);

    const auto result = PersistentHashMap::recover(image, layout);
    EXPECT_FALSE(result.ok);
    ASSERT_EQ(result.faults.size(), 3u);
    EXPECT_EQ(result.faultCount(BucketFaultKind::InvalidState), 1u);
    EXPECT_EQ(result.faultCount(BucketFaultKind::ZeroKey), 1u);
    EXPECT_EQ(result.faultCount(BucketFaultKind::DuplicateKey), 1u);
    // `error` still summarizes the first fault for old callers.
    EXPECT_FALSE(result.error.empty());
    // Healthy entries are still served in degraded mode; the dup key
    // keeps its first (home-bucket) value.
    EXPECT_EQ(result.entries.at(good_key), 90u);
    EXPECT_EQ(result.entries.at(dup_key), 420u + dup_home);
}

TEST(HashMap, PersistConcurrencyUnderStrand)
{
    // The strand-annotated map persists almost entirely concurrently.
    HashMapOptions options;
    options.buckets = 256;
    const auto [trace, layout] = mapWorkload(3, options);
    (void)layout;

    PersistTimingEngine strict({.model = ModelConfig::strict()});
    PersistTimingEngine strand({.model = ModelConfig::strand()});
    trace.replay(strict);
    InMemoryTrace copy;
    trace.replay(copy);
    copy.replay(strand);
    EXPECT_LT(strand.result().critical_path,
              strict.result().critical_path / 4.0);
}

} // namespace
} // namespace persim
