/**
 * @file
 * Deterministic KV-store workloads for benches and tests.
 *
 * runKvWorkload drives a KvStore with N client threads over a
 * configurable key space and op mix (put/get/erase ratios, zipfian or
 * uniform key popularity, variable value sizes), entirely seeded — the
 * same config always produces the same trace. Capacity rejections
 * (table/heap/journal full) are counted and skipped, exercising the
 * store's backpressure instead of dying on it.
 *
 * The zipfian sampler is the standard YCSB/Gray construction with an
 * O(n) one-time zeta precompute and O(1) draws; ranks are scrambled
 * through a 64-bit mix so the hot keys are spread across the key
 * space rather than clustered at its start.
 */

#ifndef PERSIM_BENCH_UTIL_KV_WORKLOAD_HH
#define PERSIM_BENCH_UTIL_KV_WORKLOAD_HH

#include <array>
#include <cstdint>
#include <memory>

#include "common/rng.hh"
#include "kvstore/kvstore.hh"
#include "kvstore/router.hh"
#include "memtrace/sink.hh"
#include "sim/engine.hh"

namespace persim {

/** Zipfian rank sampler (theta in [0, 1)); theta = 0 is uniform. */
class ZipfianSampler
{
  public:
    ZipfianSampler(std::uint64_t n, double theta);

    /** Draw a rank in [1, n]; rank 1 is the hottest. */
    std::uint64_t sample(Rng &rng) const;

    double theta() const { return theta_; }

  private:
    std::uint64_t n_ = 0;
    double theta_ = 0.0;
    double zetan_ = 0.0;
    double eta_ = 0.0;
    double alpha_ = 0.0;
};

/** One seeded KV workload. */
struct KvWorkloadConfig
{
    /** Store geometry and update strategy. */
    KvOptions store;

    std::uint32_t threads = 4;
    std::uint64_t ops_per_thread = 1000;
    std::uint64_t key_space = 1000;

    /** Key popularity skew; 0 = uniform, 0.99 = YCSB-hot. */
    double zipf_theta = 0.0;

    /** Op mix (normalized internally; erase gets the remainder). */
    double put_ratio = 0.5;
    double get_ratio = 0.4;

    /** Value sizes drawn uniformly from [min, max]. */
    std::uint64_t min_value_bytes = 8;
    std::uint64_t max_value_bytes = 64;

    std::uint64_t seed = 1;
    std::uint64_t quantum = 4; //!< Engine scheduling quantum.
};

/** Counters and artifacts of one run. */
struct KvWorkloadResult
{
    InMemoryTrace trace;
    KvLayout layout;
    LogLayout journal; //!< Valid only under LogStructured.
    std::shared_ptr<const KvGoldenHistory> golden;

    std::uint64_t puts = 0;
    std::uint64_t gets = 0;
    std::uint64_t erases = 0;
    std::uint64_t hits = 0; //!< get() found the key.

    /** Rejections by KvStatus enumerator (backpressure taken). */
    std::array<std::uint64_t, 6> rejected{};

    std::uint64_t live_entries = 0; //!< Final live count.

    std::uint64_t rejectedTotal() const
    {
        std::uint64_t total = 0;
        for (std::uint64_t r : rejected)
            total += r;
        return total;
    }
};

/** Run the workload; deterministic in the config. */
KvWorkloadResult runKvWorkload(const KvWorkloadConfig &config);

/** The key a scrambled rank maps to (nonzero, < 2^63). */
std::uint64_t kvWorkloadKey(std::uint64_t rank,
                            std::uint64_t key_space);

/** One seeded router workload: single-key ops + cross-shard
    transactions + snapshot reads + shard migrations. */
struct KvRouterWorkloadConfig
{
    /** Group geometry (shards, partitions, per-shard store, ...). */
    KvRouterOptions router;

    std::uint32_t threads = 4;
    std::uint64_t ops_per_thread = 400;
    std::uint64_t key_space = 400;

    /** Key popularity skew; 0 = uniform. */
    double zipf_theta = 0.0;

    /** Op mix: txn and snapshot first, the rest split between
        put/get/erase (normalized internally; erase is remainder). */
    double txn_ratio = 0.15;
    double snapshot_ratio = 0.1;
    double put_ratio = 0.4;
    double get_ratio = 0.25;

    /** Keys per transaction, drawn uniformly from [min, max]. */
    std::uint32_t min_txn_keys = 2;
    std::uint32_t max_txn_keys = 4;

    /** Probability a staged txn op is an erase (rest are puts). */
    double txn_erase_ratio = 0.2;

    /** Thread 0 migrates a random partition every N of its ops
        (0 disables migrations). */
    std::uint64_t migrate_every = 0;

    /** Value sizes drawn uniformly from [min, max]. */
    std::uint64_t min_value_bytes = 8;
    std::uint64_t max_value_bytes = 64;

    std::uint64_t seed = 1;
    std::uint64_t quantum = 4; //!< Engine scheduling quantum.
};

/** Counters and artifacts of one router run. */
struct KvRouterWorkloadResult
{
    InMemoryTrace trace;
    KvRouterLayout layout;
    std::shared_ptr<const KvGoldenHistory> golden;
    std::shared_ptr<const KvTxnGoldenList> txn_golden;

    std::uint64_t puts = 0;
    std::uint64_t gets = 0;
    std::uint64_t erases = 0;
    std::uint64_t hits = 0;

    std::uint64_t txns = 0;           //!< commit() attempts.
    std::uint64_t txns_committed = 0; //!< ... that returned Committed.

    std::uint64_t snapshots = 0;        //!< multiGet attempts.
    std::uint64_t snapshots_failed = 0; //!< Retry budget exhausted.

    std::uint64_t migrations = 0;          //!< Actual moves (Ok).
    std::uint64_t migrations_rejected = 0; //!< Backpressured moves.

    /** Single-key rejections by KvStatus enumerator. */
    std::array<std::uint64_t, 6> rejected{};

    /** Txn rejections by KvTxnStatus enumerator. */
    std::array<std::uint64_t, 7> txn_rejected{};

    /** Scheduler counters of the generating engine. */
    SimCounters sim;
};

/** Run the router workload; deterministic in the config. */
KvRouterWorkloadResult
runKvRouterWorkload(const KvRouterWorkloadConfig &config);

} // namespace persim

#endif // PERSIM_BENCH_UTIL_KV_WORKLOAD_HH
