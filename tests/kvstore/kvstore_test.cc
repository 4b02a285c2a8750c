/**
 * @file
 * KvStore functional tests: put/get/erase across update strategies,
 * backpressure statuses (table/heap/journal full, oversized values),
 * golden history, journal record encoding, and concurrency.
 */

#include <gtest/gtest.h>

#include "bench_util/kv_workload.hh"
#include "kvstore/kvstore.hh"

namespace persim {
namespace {

std::vector<std::uint8_t>
bytes(std::initializer_list<std::uint8_t> list)
{
    return std::vector<std::uint8_t>(list);
}

class KvStoreStrategies
    : public ::testing::TestWithParam<KvUpdateStrategy>
{
};

TEST_P(KvStoreStrategies, PutGetEraseBasics)
{
    ExecutionEngine engine(EngineConfig{}, nullptr);
    engine.run({[](ThreadCtx &ctx) {
        KvOptions options;
        options.buckets = 64;
        options.heap_bytes = 4096;
        options.strategy = GetParam();
        auto store = KvStore::create(ctx, options, 1);

        std::vector<std::uint8_t> value;
        EXPECT_FALSE(store.get(ctx, 5, value));

        const auto v1 = bytes({1, 2, 3, 4, 5});
        ASSERT_EQ(store.put(ctx, 0, 5, v1.data(), v1.size()),
                  KvStatus::Ok);
        ASSERT_TRUE(store.get(ctx, 5, value));
        EXPECT_EQ(value, v1);

        // Same-length update.
        const auto v2 = bytes({9, 8, 7, 6, 5});
        ASSERT_EQ(store.put(ctx, 0, 5, v2.data(), v2.size()),
                  KvStatus::Ok);
        ASSERT_TRUE(store.get(ctx, 5, value));
        EXPECT_EQ(value, v2);

        // Length-changing update.
        const auto v3 = bytes({42});
        ASSERT_EQ(store.put(ctx, 0, 5, v3.data(), v3.size()),
                  KvStatus::Ok);
        ASSERT_TRUE(store.get(ctx, 5, value));
        EXPECT_EQ(value, v3);

        EXPECT_EQ(store.count(ctx), 1u);
        EXPECT_EQ(store.erase(ctx, 0, 5), KvStatus::Ok);
        EXPECT_FALSE(store.get(ctx, 5, value));
        EXPECT_EQ(store.erase(ctx, 0, 5), KvStatus::NotFound);
        EXPECT_EQ(store.count(ctx), 0u);

        // Tombstone reuse.
        ASSERT_EQ(store.put(ctx, 0, 5, v1.data(), v1.size()),
                  KvStatus::Ok);
        ASSERT_TRUE(store.get(ctx, 5, value));
        EXPECT_EQ(value, v1);
    }});
}

TEST_P(KvStoreStrategies, ManyKeysWithCollisions)
{
    ExecutionEngine engine(EngineConfig{}, nullptr);
    engine.run({[](ThreadCtx &ctx) {
        KvOptions options;
        options.buckets = 32; // Heavy collisions and wraparound.
        options.heap_bytes = 1 << 14;
        options.strategy = GetParam();
        auto store = KvStore::create(ctx, options, 1);
        for (std::uint64_t key = 1; key <= 24; ++key) {
            const auto v = bytes({static_cast<std::uint8_t>(key),
                                  static_cast<std::uint8_t>(key * 3)});
            ASSERT_EQ(store.put(ctx, 0, key, v.data(), v.size()),
                      KvStatus::Ok);
        }
        EXPECT_EQ(store.count(ctx), 24u);
        std::vector<std::uint8_t> value;
        for (std::uint64_t key = 1; key <= 24; ++key) {
            ASSERT_TRUE(store.get(ctx, key, value)) << key;
            EXPECT_EQ(value[0], static_cast<std::uint8_t>(key));
        }
        EXPECT_FALSE(store.get(ctx, 99, value));
    }});
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, KvStoreStrategies,
    ::testing::Values(KvUpdateStrategy::InPlace, KvUpdateStrategy::Cow,
                      KvUpdateStrategy::LogStructured),
    [](const ::testing::TestParamInfo<KvUpdateStrategy> &info) {
        return std::string(kvUpdateStrategyName(info.param));
    });

TEST(KvStore, TableFullIsBackpressureNotFatal)
{
    ExecutionEngine engine(EngineConfig{}, nullptr);
    engine.run({[](ThreadCtx &ctx) {
        KvOptions options;
        options.buckets = 4;
        options.heap_bytes = 4096;
        auto store = KvStore::create(ctx, options, 1);
        const auto v = bytes({1});
        for (std::uint64_t key = 1; key <= 4; ++key)
            ASSERT_EQ(store.put(ctx, 0, key, v.data(), 1),
                      KvStatus::Ok);
        EXPECT_EQ(store.put(ctx, 0, 5, v.data(), 1),
                  KvStatus::TableFull);
        EXPECT_EQ(store.count(ctx), 4u);
        // Updates and erases still work; freeing re-enables inserts.
        EXPECT_EQ(store.put(ctx, 0, 2, v.data(), 1), KvStatus::Ok);
        EXPECT_EQ(store.erase(ctx, 0, 3), KvStatus::Ok);
        EXPECT_EQ(store.put(ctx, 0, 5, v.data(), 1), KvStatus::Ok);
    }});
}

TEST(KvStore, HeapFullIsBackpressureNotFatal)
{
    ExecutionEngine engine(EngineConfig{}, nullptr);
    engine.run({[](ThreadCtx &ctx) {
        KvOptions options;
        options.buckets = 64;
        options.heap_bytes = 64; // Room for exactly 4 x 16 bytes.
        options.max_value_bytes = 16;
        options.strategy = KvUpdateStrategy::InPlace;
        auto store = KvStore::create(ctx, options, 1);
        std::vector<std::uint8_t> v(16, 7);
        for (std::uint64_t key = 1; key <= 4; ++key)
            ASSERT_EQ(store.put(ctx, 0, key, v.data(), v.size()),
                      KvStatus::Ok);
        EXPECT_EQ(store.put(ctx, 0, 5, v.data(), v.size()),
                  KvStatus::HeapFull);
        // The store still serves what it has.
        std::vector<std::uint8_t> out;
        EXPECT_TRUE(store.get(ctx, 1, out));
        EXPECT_EQ(out, v);
        // Same-length in-place updates need no new heap.
        std::vector<std::uint8_t> v2(16, 9);
        EXPECT_EQ(store.put(ctx, 0, 1, v2.data(), v2.size()),
                  KvStatus::Ok);
    }});
}

TEST(KvStore, LogFullIsBackpressureNotFatal)
{
    ExecutionEngine engine(EngineConfig{}, nullptr);
    engine.run({[](ThreadCtx &ctx) {
        KvOptions options;
        options.buckets = 64;
        options.heap_bytes = 4096;
        options.strategy = KvUpdateStrategy::LogStructured;
        // One journal record of an 8-byte put is 8+8+32+8 = 56 bytes.
        options.log_capacity = 64;
        auto store = KvStore::create(ctx, options, 1);
        std::vector<std::uint8_t> v(8, 1);
        ASSERT_EQ(store.put(ctx, 0, 1, v.data(), v.size()),
                  KvStatus::Ok);
        EXPECT_EQ(store.put(ctx, 0, 2, v.data(), v.size()),
                  KvStatus::LogFull);
        EXPECT_EQ(store.erase(ctx, 0, 1), KvStatus::LogFull);
        // The rejected mutations left no trace.
        EXPECT_EQ(store.count(ctx), 1u);
        std::vector<std::uint8_t> out;
        EXPECT_TRUE(store.get(ctx, 1, out));
        EXPECT_EQ(out, v);
    }});
}

TEST(KvStore, OversizedValueRejected)
{
    ExecutionEngine engine(EngineConfig{}, nullptr);
    engine.run({[](ThreadCtx &ctx) {
        KvOptions options;
        options.buckets = 8;
        options.heap_bytes = 4096;
        options.max_value_bytes = 16;
        auto store = KvStore::create(ctx, options, 1);
        std::vector<std::uint8_t> v(17, 1);
        EXPECT_EQ(store.put(ctx, 0, 1, v.data(), v.size()),
                  KvStatus::ValueTooLarge);
        EXPECT_EQ(store.count(ctx), 0u);
    }});
}

TEST(KvStore, GoldenHistoryTracksVersions)
{
    ExecutionEngine engine(EngineConfig{}, nullptr);
    auto store = std::make_shared<KvStore>();
    engine.run({[&store](ThreadCtx &ctx) {
        KvOptions options;
        options.buckets = 16;
        options.heap_bytes = 4096;
        *store = KvStore::create(ctx, options, 1);
        const auto v1 = bytes({1});
        const auto v2 = bytes({2, 2});
        ASSERT_EQ(store->put(ctx, 0, 7, v1.data(), v1.size()),
                  KvStatus::Ok);
        ASSERT_EQ(store->put(ctx, 0, 7, v2.data(), v2.size()),
                  KvStatus::Ok);
        ASSERT_EQ(store->erase(ctx, 0, 7), KvStatus::Ok);
    }});
    const KvGoldenHistory history = store->goldenHistory();
    ASSERT_EQ(history.size(), 1u);
    const auto &versions = history.at(7);
    ASSERT_EQ(versions.size(), 3u);
    EXPECT_EQ(versions[0].value, bytes({1}));
    EXPECT_FALSE(versions[0].erased);
    EXPECT_EQ(versions[1].value, bytes({2, 2}));
    EXPECT_TRUE(versions[2].erased);
    EXPECT_LT(versions[0].seq, versions[1].seq);
    EXPECT_LT(versions[1].seq, versions[2].seq);
}

TEST(KvStore, JournalRecordRoundTrip)
{
    KvJournalRecord put;
    put.kind = KvJournalRecord::kind_put;
    put.key = 0x1122334455667788ULL;
    put.seq = 42;
    put.value = bytes({1, 2, 3});
    KvJournalRecord decoded;
    ASSERT_TRUE(KvJournalRecord::decode(put.encode(), decoded));
    EXPECT_EQ(decoded.kind, put.kind);
    EXPECT_EQ(decoded.key, put.key);
    EXPECT_EQ(decoded.seq, put.seq);
    EXPECT_EQ(decoded.value, put.value);

    KvJournalRecord erase;
    erase.kind = KvJournalRecord::kind_erase;
    erase.key = 9;
    erase.seq = 43;
    ASSERT_TRUE(KvJournalRecord::decode(erase.encode(), decoded));
    EXPECT_EQ(decoded.kind, KvJournalRecord::kind_erase);
    EXPECT_TRUE(decoded.value.empty());

    // Malformed payloads are rejected, not trusted.
    KvJournalRecord out;
    EXPECT_FALSE(KvJournalRecord::decode(bytes({1, 2, 3}), out));
    KvJournalRecord zero_key = put;
    zero_key.key = 0;
    EXPECT_FALSE(KvJournalRecord::decode(zero_key.encode(), out));
    KvJournalRecord bad_kind = put;
    bad_kind.kind = 77;
    EXPECT_FALSE(KvJournalRecord::decode(bad_kind.encode(), out));
    KvJournalRecord empty_put = put;
    empty_put.value.clear();
    EXPECT_FALSE(KvJournalRecord::decode(empty_put.encode(), out));
}

TEST(KvStore, NamesAreStable)
{
    EXPECT_STREQ(kvStatusName(KvStatus::HeapFull), "heap-full");
    EXPECT_STREQ(kvUpdateStrategyName(KvUpdateStrategy::Cow), "cow");
    KvUpdateStrategy strategy = KvUpdateStrategy::InPlace;
    EXPECT_TRUE(kvUpdateStrategyByName("log_structured", strategy));
    EXPECT_EQ(strategy, KvUpdateStrategy::LogStructured);
    EXPECT_FALSE(kvUpdateStrategyByName("bogus", strategy));
}

TEST(KvWorkload, DeterministicAndCountsAdd)
{
    KvWorkloadConfig config;
    config.store.buckets = 1 << 10;
    config.store.heap_bytes = 1 << 18;
    config.threads = 3;
    config.ops_per_thread = 400;
    config.key_space = 200;
    config.zipf_theta = 0.9;
    config.seed = 5;
    const KvWorkloadResult a = runKvWorkload(config);
    const KvWorkloadResult b = runKvWorkload(config);
    EXPECT_EQ(a.trace.events().size(), b.trace.events().size());
    EXPECT_EQ(a.puts, b.puts);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.live_entries, b.live_entries);
    EXPECT_EQ(a.puts + a.gets + a.erases,
              config.threads * config.ops_per_thread);
    EXPECT_GT(a.hits, 0u);
    EXPECT_GT(a.live_entries, 0u);
}

TEST(KvWorkload, BackpressureCountedNotFatal)
{
    KvWorkloadConfig config;
    config.store.buckets = 16; // Far too small: inserts bounce.
    config.store.heap_bytes = 1 << 12;
    config.threads = 2;
    config.ops_per_thread = 300;
    config.key_space = 500;
    config.put_ratio = 0.9;
    config.get_ratio = 0.1;
    const KvWorkloadResult result = runKvWorkload(config);
    EXPECT_GT(result.rejectedTotal(), 0u);
    EXPECT_GT(result.rejected[static_cast<std::size_t>(
                  KvStatus::TableFull)],
              0u);
}

TEST(KvWorkload, ZipfianSkewsAndUniformDoesNot)
{
    Rng rng(7);
    ZipfianSampler hot(1000, 0.99);
    ZipfianSampler uniform(1000, 0.0);
    std::uint64_t hot_top = 0, uniform_top = 0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i) {
        if (hot.sample(rng) <= 10)
            ++hot_top;
        if (uniform.sample(rng) <= 10)
            ++uniform_top;
    }
    // Under theta=0.99 the top-10 ranks soak up a large share; under
    // uniform they get ~1%.
    EXPECT_GT(hot_top, draws / 4);
    EXPECT_LT(uniform_top, draws / 20);
    // Ranks scramble to nonzero in-range keys.
    for (std::uint64_t rank = 1; rank <= 100; ++rank) {
        const std::uint64_t key = kvWorkloadKey(rank, 50);
        EXPECT_GE(key, 1u);
        EXPECT_LE(key, 50u);
    }
}

TEST(KvStore, ConcurrentWritersAcrossSeeds)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        EngineConfig config;
        config.seed = seed;
        config.quantum = 3;
        ExecutionEngine engine(config, nullptr);
        auto store = std::make_shared<KvStore>();
        engine.runSetup([&store](ThreadCtx &ctx) {
            KvOptions options;
            options.buckets = 256;
            options.heap_bytes = 1 << 16;
            *store = KvStore::create(ctx, options, 4);
        });
        std::vector<ExecutionEngine::WorkerFn> workers;
        for (int t = 0; t < 4; ++t) {
            workers.push_back([store, t](ThreadCtx &ctx) {
                std::vector<std::uint8_t> v(8);
                for (std::uint64_t i = 1; i <= 20; ++i) {
                    const std::uint64_t key = t * 100 + i;
                    v[0] = static_cast<std::uint8_t>(key);
                    ASSERT_EQ(store->put(ctx, t, key, v.data(),
                                         v.size()),
                              KvStatus::Ok);
                    if (i % 5 == 0) {
                        ASSERT_EQ(store->erase(ctx, t, key),
                                  KvStatus::Ok);
                    }
                }
                std::vector<std::uint8_t> out;
                EXPECT_TRUE(store->get(ctx, t * 100 + 1, out));
            });
        }
        engine.run(workers);
    }
}

} // namespace
} // namespace persim
