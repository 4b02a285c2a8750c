/**
 * @file
 * Seeded crash + corruption fuzzer for the cross-shard service layer
 * (transactions, snapshots, migrations).
 *
 * Each iteration runs a seed-varied router workload, builds a
 * stochastic persist timeline under a seed-chosen persistency model,
 * crashes it at a random point, and then flips seeded random bits
 * across the regions group recovery trusts least — the group journal
 * (commit + migration records), the transaction status table, and the
 * owner table — before handing the image to every tier of the
 * recovery ladder. What must hold on every (seed, image, tier):
 *
 *  - recoverKvRouter never throws and never aborts, no matter what
 *    the corruption did to the commit records;
 *  - exactly one owner: every partition resolves to a shard index
 *    < shards (checksum valid, journal fallback, or modulo default);
 *  - accounting coherence: the committed set and the per-transaction
 *    resolutions agree in both directions, the served map is exactly
 *    the owner-filtered union of the per-shard results (stale copies
 *    counted, never silently dropped), and the TxnResolve tier's
 *    served state is a subset of Repair's (scrubbing only removes);
 *  - the fully-drained, uncorrupted image recovers clean under
 *    TxnResolve: zero fault counters, every committed golden
 *    transaction resolved committed, and the group invariant
 *    (makeKvRouterInvariant) holds.
 *
 * Iteration count comes from PERSIM_FUZZ_ITERS (default 25). Any
 * failure prints a one-line repro: re-run this binary with
 * PERSIM_FUZZ_SEED=<seed> to replay exactly the failing workload,
 * crash point, and corruption.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util/kv_workload.hh"
#include "kvstore/router.hh"
#include "nvram/faults.hh"
#include "recovery/recovery.hh"

using namespace persim;

namespace {

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return fallback;
    return std::strtoull(value, nullptr, 10);
}

/** Seed-varied but deliberately small: the fuzzer's value is in the
    number of (crash, corruption, tier) combinations, not in any one
    workload's size. */
KvRouterWorkloadConfig
configFor(std::uint64_t seed)
{
    KvRouterWorkloadConfig config;
    config.router.shards = 2 + static_cast<std::uint32_t>(seed % 2);
    config.router.partitions = 8;
    config.router.max_txns = 256;
    config.router.group_log_capacity = 1 << 16;
    config.router.store.buckets = 128;
    config.router.store.heap_bytes = 1 << 15;
    config.router.store.max_value_bytes = 64;
    config.router.store.log_capacity = 1 << 16;
    config.router.store.strategy = static_cast<KvUpdateStrategy>(
        seed % 3);
    config.threads = 2;
    config.ops_per_thread = 60 + seed % 40;
    config.key_space = 48;
    config.txn_ratio = 0.3;
    config.snapshot_ratio = 0.1;
    config.put_ratio = 0.3;
    config.get_ratio = 0.15;
    config.migrate_every = 12;
    config.max_value_bytes = 40;
    config.seed = seed;
    return config;
}

/** Flip 1-8 random bits in one of the trust-critical regions. */
void
corrupt(MemoryImage &image, const KvRouterLayout &layout, Rng &rng)
{
    Addr base = 0;
    std::uint64_t bytes = 0;
    switch (rng.nextBounded(4)) {
    case 0: // Commit + migration records.
        base = layout.group_journal.base;
        bytes = layout.group_journal.capacity;
        break;
    case 1:
        base = layout.txn_status;
        bytes = layout.max_txns * 8;
        break;
    case 2:
        base = layout.owner_table;
        bytes = layout.partitions * 16;
        break;
    default: { // A shard journal: staged-record evidence.
        const std::size_t s =
            rng.nextBounded(layout.shard_journals.size());
        base = layout.shard_journals[s].base;
        bytes = layout.shard_journals[s].capacity;
        break;
    }
    }
    const std::uint64_t flips = 1 + rng.nextBounded(8);
    for (std::uint64_t i = 0; i < flips; ++i) {
        const Addr addr = base + rng.nextBounded(bytes);
        const std::uint64_t byte = image.load(addr, 1);
        image.store(addr, 1, byte ^ (1ULL << rng.nextBounded(8)));
    }
}

const KvRecoveryMode kTiers[] = {
    KvRecoveryMode::Strict,
    KvRecoveryMode::DetectAndDiscard,
    KvRecoveryMode::Repair,
    KvRecoveryMode::TxnResolve,
};

/** The tier-independent coherence contract of one recovery result. */
void
checkCoherence(const KvGroupRecovery &rec, const KvRouterLayout &layout,
               KvRecoveryMode mode)
{
    EXPECT_EQ(rec.mode, mode);
    ASSERT_EQ(rec.shards.size(), layout.shards);

    // Exactly one owner, always in range — even when the checksummed
    // entry, the journal fallback, and the status table all lied.
    ASSERT_EQ(rec.owners.size(), layout.partitions);
    for (std::uint32_t owner : rec.owners)
        EXPECT_LT(owner, layout.shards);

    // committed <-> resolutions agree in both directions.
    for (std::uint64_t t : rec.committed) {
        auto it = rec.txns.find(t);
        ASSERT_NE(it, rec.txns.end()) << "committed txn " << t
                                      << " has no resolution";
        EXPECT_TRUE(it->second.committed);
    }
    for (const auto &[t, res] : rec.txns) {
        if (res.committed) {
            EXPECT_EQ(rec.committed.count(t), 1u) << "txn " << t;
        }
    }

    // Served map == owner-filtered union, with every filtered entry
    // counted as a stale copy (dropped loudly, never silently).
    std::uint64_t shard_entries = 0;
    for (const KvRecovery &shard : rec.shards)
        shard_entries += shard.entries.size();
    EXPECT_EQ(rec.entries.size() + rec.stale_copies, shard_entries);
    for (const auto &[key, entry] : rec.entries) {
        const std::uint64_t p =
            KvRouterLayout::partitionOf(key, layout.partitions);
        const KvRecovery &owner = rec.shards[rec.owners[p]];
        auto it = owner.entries.find(key);
        ASSERT_NE(it, owner.entries.end()) << "key " << key;
        EXPECT_EQ(it->second.seq, entry.seq);
        EXPECT_EQ(it->second.value, entry.value);
    }

    // Non-strict tiers degrade, never fail; Strict fails loudly.
    if (mode != KvRecoveryMode::Strict) {
        EXPECT_TRUE(rec.ok);
    } else if (!rec.ok) {
        EXPECT_FALSE(rec.error.empty());
    }
}

struct FuzzStats
{
    std::uint64_t workloads = 0;
    std::uint64_t images = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t committed = 0;
    std::uint64_t migrations = 0;
    std::uint64_t faulted_recoveries = 0;
};

void
checkSeed(std::uint64_t seed, FuzzStats &stats)
{
    SCOPED_TRACE("repro: PERSIM_FUZZ_SEED=" + std::to_string(seed) +
                 " ./tests/kv_router_fuzz_test");
    const KvRouterWorkloadConfig config = configFor(seed);
    const KvRouterWorkloadResult run = runKvRouterWorkload(config);
    ++stats.workloads;
    stats.committed += run.txns_committed;
    stats.migrations += run.migrations;

    const ModelConfig models[] = {
        ModelConfig::strict(), ModelConfig::epoch(),
        ModelConfig::strand(), ModelConfig::px86()};
    const PersistLog log =
        stochasticLog(run.trace, models[seed % 4], seed);
    double t_max = 0;
    for (const PersistRecord &record : log)
        t_max = std::max(t_max, record.time);

    Rng rng(mixSeed(seed, 0xf02));
    KvGroupRecoveryOptions options;

    // Image 0: clean, fully drained — must recover exactly.
    {
        const MemoryImage image = reconstructImage(log, 1e30);
        options.mode = KvRecoveryMode::TxnResolve;
        const KvGroupRecovery rec =
            recoverKvRouter(image, run.layout, options);
        checkCoherence(rec, run.layout, options.mode);
        EXPECT_FALSE(rec.anyTxnFaults())
            << rec.in_doubt << " in doubt, " << rec.txn_lost
            << " lost, " << rec.txn_partial << " partial, "
            << rec.owner_faults << " owner, " << rec.status_faults
            << " status";
        for (const KvTxnGolden &txn : *run.txn_golden)
            EXPECT_EQ(rec.committed.count(txn.txn), 1u)
                << "committed txn " << txn.txn << " lost on a clean "
                << "fully-drained image";
        // No silent corruption either: in particular, no key a
        // migration scrubbed comes back from an older journal record.
        EXPECT_EQ(makeKvRouterInvariant(run.layout, run.golden,
                                        run.txn_golden, options)(image),
                  "")
            << "fully-drained image";
        ++stats.images;
        ++stats.recoveries;
    }

    // Crashed + corrupted images, all four tiers each.
    const unsigned kCrashes = 3;
    for (unsigned c = 0; c < kCrashes; ++c) {
        MemoryImage image =
            reconstructImage(log, rng.nextDouble() * t_max);
        corrupt(image, run.layout, rng);
        ++stats.images;

        KvGroupRecovery repair_rec;
        for (KvRecoveryMode mode : kTiers) {
            options.mode = mode;
            // The contract under fire: pure function of the image,
            // never throws, whatever the bit flips fabricated.
            const KvGroupRecovery rec =
                recoverKvRouter(image, run.layout, options);
            ++stats.recoveries;
            checkCoherence(rec, run.layout, mode);
            if (rec.anyTxnFaults())
                ++stats.faulted_recoveries;
            if (mode == KvRecoveryMode::Repair)
                repair_rec = rec;
            if (mode == KvRecoveryMode::TxnResolve) {
                // Scrubbing only removes: TxnResolve's served state
                // must be a (seq, value)-exact subset of Repair's.
                for (const auto &[key, entry] : rec.entries) {
                    auto it = repair_rec.entries.find(key);
                    ASSERT_NE(it, repair_rec.entries.end())
                        << "key " << key;
                    EXPECT_EQ(it->second.seq, entry.seq);
                    EXPECT_EQ(it->second.value, entry.value);
                }
            }
        }
    }
}

} // namespace

TEST(KvRouterFuzz, CrashCorruptRecover)
{
    FuzzStats stats;
    if (const char *pinned = std::getenv("PERSIM_FUZZ_SEED");
        pinned && *pinned) {
        checkSeed(std::strtoull(pinned, nullptr, 10), stats);
    } else {
        const std::uint64_t iters = envU64("PERSIM_FUZZ_ITERS", 25);
        for (std::uint64_t i = 0; i < iters; ++i)
            checkSeed(i + 1, stats);
    }
    // The corpus must exercise what it claims to: transactions
    // committed, partitions migrated, and corruption that the ladder
    // actually detected (faulted recoveries are the fuzzer's teeth —
    // if every image recovered clean, the bit flips hit nothing).
    EXPECT_GT(stats.committed, 0u);
    EXPECT_GT(stats.migrations, 0u);
    EXPECT_GT(stats.faulted_recoveries, 0u);
    std::cout << "fuzz(kv-router): " << stats.workloads
              << " workloads, " << stats.committed
              << " committed txns, " << stats.migrations
              << " migrations, " << stats.images << " images, "
              << stats.recoveries << " recoveries ("
              << stats.faulted_recoveries << " with detected faults)\n";
}
