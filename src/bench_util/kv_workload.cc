#include "bench_util/kv_workload.hh"

#include <cmath>
#include <vector>

#include "common/error.hh"
#include "nvram/faults.hh"
#include "sim/engine.hh"

namespace persim {

ZipfianSampler::ZipfianSampler(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    PERSIM_REQUIRE(n >= 1, "zipfian needs a nonempty rank space");
    PERSIM_REQUIRE(theta >= 0.0 && theta < 1.0,
                   "zipfian theta must be in [0, 1)");
    if (theta_ == 0.0)
        return;
    for (std::uint64_t i = 1; i <= n_; ++i)
        zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_),
                           1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
}

std::uint64_t
ZipfianSampler::sample(Rng &rng) const
{
    if (theta_ == 0.0)
        return 1 + rng.nextBounded(n_);
    const double u = rng.nextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 1;
    if (uz < 1.0 + std::pow(0.5, theta_))
        return 2;
    const std::uint64_t rank =
        1 + static_cast<std::uint64_t>(
                static_cast<double>(n_) *
                std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank > n_ ? n_ : rank;
}

std::uint64_t
kvWorkloadKey(std::uint64_t rank, std::uint64_t key_space)
{
    // Scramble the rank so hot keys are spread over the key space.
    std::uint64_t h = rank;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return 1 + h % key_space;
}

namespace {

/** Per-thread op counters (merged after the run). */
struct ClientStats
{
    std::uint64_t puts = 0, gets = 0, erases = 0, hits = 0;
    std::array<std::uint64_t, 6> rejected{};
};

void
fillValue(std::vector<std::uint8_t> &value, std::uint64_t key,
          std::uint64_t op, std::uint32_t thread, std::uint64_t len)
{
    value.resize(len);
    for (std::uint64_t j = 0; j < len; ++j)
        value[j] = static_cast<std::uint8_t>(
            (key * 131 + op * 31 + thread * 7 + j) & 0xff);
}

} // namespace

KvWorkloadResult
runKvWorkload(const KvWorkloadConfig &config)
{
    PERSIM_REQUIRE(config.threads >= 1, "need at least one client");
    PERSIM_REQUIRE(config.key_space >= 1, "need a nonempty key space");
    PERSIM_REQUIRE(config.min_value_bytes >= 1 &&
                   config.min_value_bytes <= config.max_value_bytes,
                   "bad value size range");
    const double mix = config.put_ratio + config.get_ratio;
    PERSIM_REQUIRE(config.put_ratio >= 0 && config.get_ratio >= 0 &&
                   mix <= 1.0 + 1e-9,
                   "op ratios must be nonnegative and sum to <= 1");

    KvWorkloadResult result;
    EngineConfig engine_config;
    engine_config.seed = config.seed;
    engine_config.quantum = config.quantum;
    ExecutionEngine engine(engine_config, &result.trace);

    auto store = std::make_shared<KvStore>();
    engine.runSetup([&store, &config](ThreadCtx &ctx) {
        *store = KvStore::create(ctx, config.store, config.threads);
    });

    const ZipfianSampler sampler(config.key_space, config.zipf_theta);
    std::vector<ClientStats> stats(config.threads);
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (std::uint32_t t = 0; t < config.threads; ++t) {
        workers.push_back([store, &config, &sampler, &stats,
                           t](ThreadCtx &ctx) {
            Rng rng(mixSeed(config.seed, t + 1));
            ClientStats &mine = stats[t];
            std::vector<std::uint8_t> value;
            for (std::uint64_t i = 0; i < config.ops_per_thread; ++i) {
                const std::uint64_t key = kvWorkloadKey(
                    sampler.sample(rng), config.key_space);
                const double kind = rng.nextDouble();
                if (kind < config.put_ratio) {
                    ++mine.puts;
                    const std::uint64_t len = rng.nextRange(
                        config.min_value_bytes, config.max_value_bytes);
                    fillValue(value, key, i, t, len);
                    const KvStatus status = store->put(
                        ctx, t, key, value.data(), value.size());
                    if (status != KvStatus::Ok)
                        ++mine.rejected[static_cast<std::size_t>(
                            status)];
                } else if (kind < config.put_ratio + config.get_ratio) {
                    ++mine.gets;
                    if (store->get(ctx, key, value))
                        ++mine.hits;
                } else {
                    ++mine.erases;
                    const KvStatus status = store->erase(ctx, t, key);
                    if (status != KvStatus::Ok &&
                        status != KvStatus::NotFound)
                        ++mine.rejected[static_cast<std::size_t>(
                            status)];
                }
            }
        });
    }
    engine.run(workers);

    for (const ClientStats &s : stats) {
        result.puts += s.puts;
        result.gets += s.gets;
        result.erases += s.erases;
        result.hits += s.hits;
        for (std::size_t i = 0; i < s.rejected.size(); ++i)
            result.rejected[i] += s.rejected[i];
    }

    result.layout = store->layout();
    if (config.store.strategy == KvUpdateStrategy::LogStructured)
        result.journal = store->journalLayout();
    auto golden =
        std::make_shared<KvGoldenHistory>(store->goldenHistory());
    for (const auto &[key, versions] : *golden) {
        if (!versions.empty() && !versions.back().erased)
            ++result.live_entries;
    }
    result.golden = std::move(golden);
    return result;
}

namespace {

/** Per-thread router-op counters (merged after the run). */
struct RouterClientStats
{
    std::uint64_t puts = 0, gets = 0, erases = 0, hits = 0;
    std::uint64_t txns = 0, txns_committed = 0;
    std::uint64_t snapshots = 0, snapshots_failed = 0;
    std::uint64_t migrations = 0, migrations_rejected = 0;
    std::array<std::uint64_t, 6> rejected{};
    std::array<std::uint64_t, 7> txn_rejected{};
};

} // namespace

KvRouterWorkloadResult
runKvRouterWorkload(const KvRouterWorkloadConfig &config)
{
    PERSIM_REQUIRE(config.threads >= 1, "need at least one client");
    PERSIM_REQUIRE(config.key_space >= 1, "need a nonempty key space");
    PERSIM_REQUIRE(config.min_value_bytes >= 1 &&
                   config.min_value_bytes <= config.max_value_bytes,
                   "bad value size range");
    PERSIM_REQUIRE(config.min_txn_keys >= 1 &&
                   config.min_txn_keys <= config.max_txn_keys,
                   "bad txn key range");
    const double mix = config.txn_ratio + config.snapshot_ratio +
                       config.put_ratio + config.get_ratio;
    PERSIM_REQUIRE(config.txn_ratio >= 0 &&
                   config.snapshot_ratio >= 0 &&
                   config.put_ratio >= 0 && config.get_ratio >= 0 &&
                   mix <= 1.0 + 1e-9,
                   "op ratios must be nonnegative and sum to <= 1");

    KvRouterWorkloadResult result;
    EngineConfig engine_config;
    engine_config.seed = config.seed;
    engine_config.quantum = config.quantum;
    ExecutionEngine engine(engine_config, &result.trace);

    auto router = std::make_shared<KvRouter>();
    engine.runSetup([&router, &config](ThreadCtx &ctx) {
        *router = KvRouter::create(ctx, config.router, config.threads);
    });

    const ZipfianSampler sampler(config.key_space, config.zipf_theta);
    std::vector<RouterClientStats> stats(config.threads);
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (std::uint32_t t = 0; t < config.threads; ++t) {
        workers.push_back([router, &config, &sampler, &stats,
                           t](ThreadCtx &ctx) {
            Rng rng(mixSeed(config.seed, t + 1));
            RouterClientStats &mine = stats[t];
            std::vector<std::uint8_t> value;
            const double txn_edge = config.txn_ratio;
            const double snap_edge = txn_edge + config.snapshot_ratio;
            const double put_edge = snap_edge + config.put_ratio;
            const double get_edge = put_edge + config.get_ratio;
            for (std::uint64_t i = 0; i < config.ops_per_thread; ++i) {
                if (t == 0 && config.migrate_every != 0 &&
                    i % config.migrate_every == 0) {
                    const std::uint32_t partition =
                        static_cast<std::uint32_t>(rng.nextBounded(
                            config.router.partitions));
                    const std::uint32_t to =
                        static_cast<std::uint32_t>(
                            rng.nextBounded(config.router.shards));
                    const KvMigrateStatus status =
                        router->migrate(ctx, t, partition, to);
                    if (status == KvMigrateStatus::Ok)
                        ++mine.migrations;
                    else if (status != KvMigrateStatus::NoOp)
                        ++mine.migrations_rejected;
                }
                const double kind = rng.nextDouble();
                if (kind < txn_edge) {
                    ++mine.txns;
                    KvTxn txn;
                    const std::uint32_t nkeys =
                        static_cast<std::uint32_t>(rng.nextRange(
                            config.min_txn_keys, config.max_txn_keys));
                    for (std::uint32_t k = 0; k < nkeys; ++k) {
                        const std::uint64_t key = kvWorkloadKey(
                            sampler.sample(rng), config.key_space);
                        if (rng.nextDouble() <
                            config.txn_erase_ratio) {
                            txn.erase(key);
                        } else {
                            const std::uint64_t len = rng.nextRange(
                                config.min_value_bytes,
                                config.max_value_bytes);
                            fillValue(value, key, i, t, len);
                            txn.put(key, value.data(), value.size());
                        }
                    }
                    const KvTxnStatus status =
                        router->commit(ctx, t, txn);
                    if (status == KvTxnStatus::Committed)
                        ++mine.txns_committed;
                    else
                        ++mine.txn_rejected[static_cast<std::size_t>(
                            status)];
                } else if (kind < snap_edge) {
                    ++mine.snapshots;
                    std::vector<std::uint64_t> keys;
                    for (std::uint32_t k = 0; k < 3; ++k)
                        keys.push_back(kvWorkloadKey(
                            sampler.sample(rng), config.key_space));
                    std::map<std::uint64_t,
                             std::vector<std::uint8_t>> out;
                    std::uint64_t snapshot_seq = 0;
                    if (!router->multiGet(ctx, keys, out,
                                          snapshot_seq))
                        ++mine.snapshots_failed;
                } else if (kind < put_edge) {
                    ++mine.puts;
                    const std::uint64_t key = kvWorkloadKey(
                        sampler.sample(rng), config.key_space);
                    const std::uint64_t len = rng.nextRange(
                        config.min_value_bytes,
                        config.max_value_bytes);
                    fillValue(value, key, i, t, len);
                    const KvStatus status = router->put(
                        ctx, t, key, value.data(), value.size());
                    if (status != KvStatus::Ok)
                        ++mine.rejected[static_cast<std::size_t>(
                            status)];
                } else if (kind < get_edge) {
                    ++mine.gets;
                    const std::uint64_t key = kvWorkloadKey(
                        sampler.sample(rng), config.key_space);
                    if (router->get(ctx, key, value))
                        ++mine.hits;
                } else {
                    ++mine.erases;
                    const std::uint64_t key = kvWorkloadKey(
                        sampler.sample(rng), config.key_space);
                    const KvStatus status = router->erase(ctx, t, key);
                    if (status != KvStatus::Ok &&
                        status != KvStatus::NotFound)
                        ++mine.rejected[static_cast<std::size_t>(
                            status)];
                }
            }
        });
    }
    engine.run(workers);
    result.sim = engine.counters();

    for (const RouterClientStats &s : stats) {
        result.puts += s.puts;
        result.gets += s.gets;
        result.erases += s.erases;
        result.hits += s.hits;
        result.txns += s.txns;
        result.txns_committed += s.txns_committed;
        result.snapshots += s.snapshots;
        result.snapshots_failed += s.snapshots_failed;
        result.migrations += s.migrations;
        result.migrations_rejected += s.migrations_rejected;
        for (std::size_t i = 0; i < s.rejected.size(); ++i)
            result.rejected[i] += s.rejected[i];
        for (std::size_t i = 0; i < s.txn_rejected.size(); ++i)
            result.txn_rejected[i] += s.txn_rejected[i];
    }

    result.layout = router->layout();
    result.golden = router->goldenHistory();
    result.txn_golden = router->txnGolden();
    return result;
}

} // namespace persim
