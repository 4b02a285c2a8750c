/**
 * @file
 * Fault-campaign tests over the cross-shard service layer: the
 * TxnResolve tier absorbs every fault mix (none / torn / media /
 * drops / all) on transaction-heavy and migration-heavy workloads
 * across all three update strategies with zero violations; the
 * no-commit-barrier mutant is *detected* under the Repair-tier
 * invariant (non-zero violations naming the torn transaction) and
 * resolved loudly — scrubbed and counted, never silent — under
 * TxnResolve; recorded violations replay from their repro lines; and
 * serial vs parallel campaigns are bit-identical on the router
 * surface, group-level stats included.
 */

#include <gtest/gtest.h>

#include "bench_util/kv_workload.hh"
#include "kvstore/router.hh"
#include "recovery/fault_campaign.hh"

namespace persim {
namespace {

/** Transaction-heavy router workload (the kv-txn surface); set
    @p migrate to add thread-0 rebalancing (the kv-migrate surface). */
KvRouterWorkloadConfig
campaignWorkload(KvUpdateStrategy strategy, bool migrate)
{
    KvRouterWorkloadConfig config;
    config.router.shards = 2;
    config.router.partitions = 8;
    config.router.max_txns = 512;
    config.router.group_log_capacity = 1 << 16;
    config.router.store.buckets = 128;
    config.router.store.heap_bytes = 1 << 15;
    config.router.store.max_value_bytes = 64;
    config.router.store.log_capacity = 1 << 17;
    config.router.store.strategy = strategy;
    config.threads = 2;
    config.ops_per_thread = 60;
    config.key_space = 40;
    config.txn_ratio = 0.35;
    config.snapshot_ratio = 0.05;
    config.put_ratio = 0.35;
    config.get_ratio = 0.15;
    config.migrate_every = migrate ? 10 : 0;
    config.max_value_bytes = 48;
    config.seed = 17;
    return config;
}

/** The five fault mixes of the acceptance criterion. */
FaultConfig
faultMix(int kind)
{
    FaultConfig faults;
    switch (kind) {
    case 0: // Pure crash cuts, no device faults.
        break;
    case 1: // Torn persists.
        faults.tear_persists = true;
        faults.atomic_write_unit = 4;
        break;
    case 2: // Media bit flips.
        faults.media_error_per_write = 5e-4;
        break;
    case 3: // Dropped drain-buffer writes.
        faults.drop_drain_p = 0.25;
        faults.drain_latency = 0.5;
        break;
    default: // Everything at once.
        faults.tear_persists = true;
        faults.atomic_write_unit = 4;
        faults.media_error_per_write = 5e-4;
        faults.drop_drain_p = 0.25;
        faults.drain_latency = 0.5;
        break;
    }
    return faults;
}

KvGroupRecoveryOptions
resolveOptions()
{
    KvGroupRecoveryOptions options;
    options.mode = KvRecoveryMode::TxnResolve;
    return options;
}

TEST(KvTxnCampaign, TxnResolveAbsorbsEveryFaultMixOnEveryStrategy)
{
    // The acceptance criterion: 5 fault mixes x 3 strategies x
    // {kv-txn, kv-migrate}, TxnResolve recovery, zero violations.
    // In-doubt transactions, scrubbed partials, and lost participants
    // are graceful, *counted* degradation — never a wrong answer.
    for (KvUpdateStrategy strategy :
         {KvUpdateStrategy::InPlace, KvUpdateStrategy::Cow,
          KvUpdateStrategy::LogStructured}) {
        for (const bool migrate : {false, true}) {
            const KvRouterWorkloadResult workload = runKvRouterWorkload(
                campaignWorkload(strategy, migrate));
            ASSERT_GT(workload.txns_committed, 0u);
            if (migrate) {
                ASSERT_GT(workload.migrations, 0u);
            }
            for (int mix = 0; mix < 5; ++mix) {
                FaultCampaignConfig campaign;
                campaign.injection.model = ModelConfig::strand();
                campaign.injection.realizations = 3;
                campaign.injection.crashes_per_realization = 16;
                campaign.injection.seed = 29 + mix;
                campaign.faults = faultMix(mix);

                auto stats =
                    std::make_shared<KvRouterInvariantStats>();
                const InjectionResult result = runFaultCampaign(
                    workload.trace, campaign,
                    makeKvRouterInvariant(workload.layout,
                                          workload.golden,
                                          workload.txn_golden,
                                          resolveOptions(), stats));
                EXPECT_TRUE(result.ok())
                    << kvUpdateStrategyName(strategy)
                    << (migrate ? " kv-migrate" : " kv-txn")
                    << " mix " << mix << ": "
                    << result.first_violation;
                EXPECT_GT(result.samples, 0u);
                EXPECT_EQ(stats->shard.images.load(), result.samples);
            }
        }
    }
}

TEST(KvTxnCampaign, NoCommitBarrierMutantIsDetectedNeverSilent)
{
    // The mutant drops the commit barriers and the per-entry publish
    // barriers, so table applications race the commit record. Two
    // claims, one campaign: under the Repair-tier invariant (no
    // scrub) sampled crash states expose partially visible
    // uncommitted transactions as *violations*; under TxnResolve the
    // same images recover with zero violations because the partial
    // state is scrubbed — and the scrubs land in the stats, so the
    // damage is counted, never silent.
    // Cow applies flip a pointer-sized word, so a sampled crash shows
    // the complete new version without its commit record directly;
    // in-place tears land in checksum quarantine more often than in
    // clean partial visibility (the exhaustive per-strategy proof is
    // the atomicity battery's job, not the sampler's).
    KvRouterWorkloadConfig config =
        campaignWorkload(KvUpdateStrategy::Cow, false);
    config.router.omit_commit_barrier = true;
    config.router.store.omit_publish_barrier = true;
    const KvRouterWorkloadResult workload = runKvRouterWorkload(config);
    ASSERT_GT(workload.txns_committed, 0u);

    FaultCampaignConfig campaign;
    campaign.injection.model = ModelConfig::strand();
    campaign.injection.realizations = 6;
    campaign.injection.crashes_per_realization = 32;
    campaign.injection.seed = 37;

    KvGroupRecoveryOptions repair;
    repair.mode = KvRecoveryMode::Repair;
    const InjectionResult caught = runFaultCampaign(
        workload.trace, campaign,
        makeKvRouterInvariant(workload.layout, workload.golden,
                              workload.txn_golden, repair));
    EXPECT_GT(caught.violations, 0u)
        << "the missing commit barrier never surfaced";
    EXPECT_NE(caught.first_violation.find("uncommitted"),
              std::string::npos)
        << caught.first_violation;

    auto stats = std::make_shared<KvRouterInvariantStats>();
    const InjectionResult resolved = runFaultCampaign(
        workload.trace, campaign,
        makeKvRouterInvariant(workload.layout, workload.golden,
                              workload.txn_golden, resolveOptions(),
                              stats));
    EXPECT_TRUE(resolved.ok()) << resolved.first_violation;
    EXPECT_GT(stats->txn_partial.load(), 0u)
        << "TxnResolve hid the mutant without counting a scrub";
}

TEST(KvTxnCampaign, ViolationsReplayFromTheirReproLines)
{
    // Round-trip every recorded violation on the router surface
    // through format -> parse -> replay, like the single-shard KV,
    // queue, and log surfaces.
    KvRouterWorkloadConfig config =
        campaignWorkload(KvUpdateStrategy::Cow, false);
    config.router.omit_commit_barrier = true;
    config.router.store.omit_publish_barrier = true;
    const KvRouterWorkloadResult workload = runKvRouterWorkload(config);

    FaultCampaignConfig campaign;
    campaign.injection.model = ModelConfig::strand();
    campaign.injection.realizations = 4;
    campaign.injection.crashes_per_realization = 24;
    campaign.injection.seed = 41;
    campaign.injection.max_recorded_violations = 8;

    KvGroupRecoveryOptions repair;
    repair.mode = KvRecoveryMode::Repair;
    const auto invariant = makeKvRouterInvariant(
        workload.layout, workload.golden, workload.txn_golden, repair);
    const InjectionResult result =
        runFaultCampaign(workload.trace, campaign, invariant);
    ASSERT_GT(result.violation_list.size(), 0u);

    for (const ViolationRecord &violation : result.violation_list) {
        const std::string line = violationRepro(violation);
        FaultRepro repro;
        ASSERT_TRUE(parseFaultRepro(line, repro)) << line;
        FaultOutcome outcome;
        const std::string verdict = replayFaultRepro(
            workload.trace, campaign, repro, invariant, &outcome);
        EXPECT_EQ(verdict, violation.verdict) << line;
        if (!violation.fault_summary.empty()) {
            EXPECT_EQ(outcome.summary(), violation.fault_summary);
        }
    }
}

TEST(KvTxnCampaign, ParallelEqualsSerial)
{
    // Full fault mix over the migration-enabled router trace, jobs=1
    // vs jobs=4: bit-identical results, recorded violations included,
    // and identical order-independent group stats.
    const KvRouterWorkloadResult workload = runKvRouterWorkload(
        campaignWorkload(KvUpdateStrategy::LogStructured, true));
    FaultCampaignConfig campaign;
    campaign.injection.model = ModelConfig::strand();
    campaign.injection.realizations = 8;
    campaign.injection.crashes_per_realization = 16;
    campaign.injection.seed = 43;
    campaign.faults = faultMix(4);

    campaign.injection.jobs = 1;
    auto serial_stats = std::make_shared<KvRouterInvariantStats>();
    const InjectionResult serial = runFaultCampaign(
        workload.trace, campaign,
        makeKvRouterInvariant(workload.layout, workload.golden,
                              workload.txn_golden, resolveOptions(),
                              serial_stats));
    campaign.injection.jobs = 4;
    auto parallel_stats = std::make_shared<KvRouterInvariantStats>();
    const InjectionResult parallel = runFaultCampaign(
        workload.trace, campaign,
        makeKvRouterInvariant(workload.layout, workload.golden,
                              workload.txn_golden, resolveOptions(),
                              parallel_stats));

    EXPECT_EQ(serial.samples, parallel.samples);
    EXPECT_EQ(serial.violations, parallel.violations);
    EXPECT_EQ(serial.first_violation, parallel.first_violation);
    EXPECT_EQ(serial.first_violation_time,
              parallel.first_violation_time);
    ASSERT_EQ(serial.violation_list.size(),
              parallel.violation_list.size());
    for (std::size_t i = 0; i < serial.violation_list.size(); ++i)
        EXPECT_EQ(violationRepro(serial.violation_list[i]),
                  violationRepro(parallel.violation_list[i]));
    EXPECT_EQ(serial_stats->shard.images.load(),
              parallel_stats->shard.images.load());
    EXPECT_EQ(serial_stats->shard.quarantined.load(),
              parallel_stats->shard.quarantined.load());
    EXPECT_EQ(serial_stats->shard.repaired.load(),
              parallel_stats->shard.repaired.load());
    EXPECT_EQ(serial_stats->in_doubt.load(),
              parallel_stats->in_doubt.load());
    EXPECT_EQ(serial_stats->txn_partial.load(),
              parallel_stats->txn_partial.load());
    EXPECT_EQ(serial_stats->txn_lost.load(),
              parallel_stats->txn_lost.load());
    EXPECT_EQ(serial_stats->owner_faults.load(),
              parallel_stats->owner_faults.load());
    EXPECT_EQ(serial_stats->stale_copies.load(),
              parallel_stats->stale_copies.load());
}

} // namespace
} // namespace persim
