/**
 * @file
 * Fault-campaign tests over the KV-store surface: the Repair tier
 * absorbs every fault kind across all three update strategies with
 * zero violations; eliding the publish barrier makes corruption
 * *detected* (quarantined) but never silent under DetectAndDiscard,
 * and a Strict failure; recorded violations replay from their repro
 * lines; and serial vs parallel campaigns are bit-identical.
 */

#include <gtest/gtest.h>

#include "bench_util/kv_workload.hh"
#include "kvstore/recovery.hh"
#include "recovery/fault_campaign.hh"

namespace persim {
namespace {

KvWorkloadConfig
campaignWorkload(KvUpdateStrategy strategy)
{
    KvWorkloadConfig config;
    config.store.buckets = 128;
    config.store.heap_bytes = 1 << 15;
    config.store.log_capacity = 1 << 17;
    config.store.strategy = strategy;
    config.threads = 2;
    config.ops_per_thread = 60;
    config.key_space = 40;
    config.put_ratio = 0.6;
    config.get_ratio = 0.2;
    config.seed = 17;
    return config;
}

/** The three device-fault mixes of the acceptance criterion. */
FaultConfig
faultMix(int kind)
{
    FaultConfig faults;
    switch (kind) {
    case 0: // Torn persists.
        faults.tear_persists = true;
        faults.atomic_write_unit = 4;
        break;
    case 1: // Media bit flips.
        faults.media_error_per_write = 5e-4;
        break;
    default: // Dropped drain-buffer writes.
        faults.drop_drain_p = 0.25;
        faults.drain_latency = 0.5;
        break;
    }
    return faults;
}

KvRecoveryOptions
repairOptions(const KvWorkloadResult &workload)
{
    KvRecoveryOptions options;
    options.mode = KvRecoveryMode::Repair;
    options.journal = workload.journal;
    return options;
}

TEST(KvCampaign, RepairTierAbsorbsEveryFaultMixOnEveryStrategy)
{
    // The acceptance criterion: 3 fault kinds x 3 update strategies,
    // Repair-tier recovery with barriers enabled, zero violations.
    // Detected corruption is graceful degradation (quarantine /
    // repair / discard in the stats), never a wrong answer.
    for (KvUpdateStrategy strategy :
         {KvUpdateStrategy::InPlace, KvUpdateStrategy::Cow,
          KvUpdateStrategy::LogStructured}) {
        const KvWorkloadResult workload =
            runKvWorkload(campaignWorkload(strategy));
        for (int mix = 0; mix < 3; ++mix) {
            FaultCampaignConfig campaign;
            campaign.injection.model = ModelConfig::epoch();
            campaign.injection.realizations = 4;
            campaign.injection.crashes_per_realization = 24;
            campaign.injection.seed = 29 + mix;
            campaign.faults = faultMix(mix);

            auto stats = std::make_shared<KvInvariantStats>();
            const InjectionResult result = runFaultCampaign(
                workload.trace, campaign,
                makeKvRecoveryInvariant(workload.layout,
                                        workload.golden,
                                        repairOptions(workload),
                                        stats));
            EXPECT_TRUE(result.ok())
                << kvUpdateStrategyName(strategy) << " mix " << mix
                << ": " << result.first_violation;
            EXPECT_GT(result.samples, 0u);
            EXPECT_EQ(stats->images.load(), result.samples);
        }
    }
}

TEST(KvCampaign, FaultsAreDetectedNotSilent)
{
    // Media bit flips must leave fingerprints: across the campaign the
    // recovery ladder quarantines at least one bucket (the checksum is
    // load-bearing), yet no silent corruption surfaces.
    const KvWorkloadResult workload =
        runKvWorkload(campaignWorkload(KvUpdateStrategy::Cow));
    FaultCampaignConfig campaign;
    campaign.injection.model = ModelConfig::epoch();
    campaign.injection.realizations = 4;
    campaign.injection.crashes_per_realization = 32;
    campaign.injection.seed = 31;
    campaign.faults.media_error_per_write = 5e-3;

    KvRecoveryOptions options;
    options.mode = KvRecoveryMode::DetectAndDiscard;
    auto stats = std::make_shared<KvInvariantStats>();
    const InjectionResult result = runFaultCampaign(
        workload.trace, campaign,
        makeKvRecoveryInvariant(workload.layout, workload.golden,
                                options, stats));
    EXPECT_TRUE(result.ok()) << result.first_violation;
    EXPECT_GT(stats->quarantined.load(), 0u)
        << "bit flips should trip the bucket checksums";
    std::uint64_t by_cause = 0;
    for (const auto &count : stats->by_cause)
        by_cause += count.load();
    EXPECT_EQ(by_cause, stats->quarantined.load());

    // The same faulted images fail the Strict tier: detection is
    // real, the ladder's policy is what differs.
    KvRecoveryOptions strict;
    strict.mode = KvRecoveryMode::Strict;
    const InjectionResult strict_result = runFaultCampaign(
        workload.trace, campaign,
        makeKvRecoveryInvariant(workload.layout, workload.golden,
                                strict));
    EXPECT_GT(strict_result.violations, 0u);
}

TEST(KvCampaign, ElidedPublishBarrierIsCaughtNeverSilent)
{
    // The mutant: omit the pre-publish barrier, so a bucket can go
    // live before its payload/checksum persist. Detect-and-discard
    // must see quarantined buckets across the campaign — and still
    // zero *silent* violations (the checksum catches every torn
    // publish; nothing unissued is ever served).
    KvWorkloadConfig config = campaignWorkload(KvUpdateStrategy::Cow);
    config.store.omit_publish_barrier = true;
    config.store.use_strands = false;
    const KvWorkloadResult workload = runKvWorkload(config);

    FaultCampaignConfig campaign;
    campaign.injection.model = ModelConfig::epoch();
    campaign.injection.realizations = 6;
    campaign.injection.crashes_per_realization = 32;
    campaign.injection.seed = 37;

    KvRecoveryOptions options;
    options.mode = KvRecoveryMode::DetectAndDiscard;
    auto stats = std::make_shared<KvInvariantStats>();
    const InjectionResult discard = runFaultCampaign(
        workload.trace, campaign,
        makeKvRecoveryInvariant(workload.layout, workload.golden,
                                options, stats));
    EXPECT_TRUE(discard.ok()) << discard.first_violation;
    EXPECT_GT(stats->quarantined.load(), 0u)
        << "the elided barrier should expose mid-publish crash states";

    // Strict recovery reports the same inconsistencies as violations.
    KvRecoveryOptions strict;
    strict.mode = KvRecoveryMode::Strict;
    const InjectionResult caught = runFaultCampaign(
        workload.trace, campaign,
        makeKvRecoveryInvariant(workload.layout, workload.golden,
                                strict));
    EXPECT_GT(caught.violations, 0u);
}

TEST(KvCampaign, ViolationsReplayFromTheirReproLines)
{
    // Round-trip every recorded violation on the KV surface through
    // format -> parse -> replay, like the queue and log surfaces.
    const KvWorkloadResult workload =
        runKvWorkload(campaignWorkload(KvUpdateStrategy::InPlace));
    FaultCampaignConfig campaign;
    campaign.injection.model = ModelConfig::strand();
    campaign.injection.realizations = 4;
    campaign.injection.crashes_per_realization = 24;
    campaign.injection.seed = 41;
    campaign.injection.max_recorded_violations = 8;
    campaign.faults.media_error_per_write = 5e-3;

    KvRecoveryOptions strict;
    strict.mode = KvRecoveryMode::Strict;
    const auto invariant = makeKvRecoveryInvariant(
        workload.layout, workload.golden, strict);
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

TEST(KvCampaign, ParallelEqualsSerial)
{
    // Full fault mix, jobs=1 vs jobs=4: bit-identical results on the
    // KV surface, including recorded violations, and identical
    // order-independent invariant stats.
    const KvWorkloadResult workload =
        runKvWorkload(campaignWorkload(KvUpdateStrategy::LogStructured));
    FaultCampaignConfig campaign;
    campaign.injection.model = ModelConfig::strand();
    campaign.injection.realizations = 8;
    campaign.injection.crashes_per_realization = 16;
    campaign.injection.seed = 43;
    campaign.faults.tear_persists = true;
    campaign.faults.atomic_write_unit = 4;
    campaign.faults.media_error_per_write = 1e-3;

    KvRecoveryOptions strict;
    strict.mode = KvRecoveryMode::Strict;

    campaign.injection.jobs = 1;
    auto serial_stats = std::make_shared<KvInvariantStats>();
    const InjectionResult serial = runFaultCampaign(
        workload.trace, campaign,
        makeKvRecoveryInvariant(workload.layout, workload.golden,
                                strict, serial_stats));
    campaign.injection.jobs = 4;
    auto parallel_stats = std::make_shared<KvInvariantStats>();
    const InjectionResult parallel = runFaultCampaign(
        workload.trace, campaign,
        makeKvRecoveryInvariant(workload.layout, workload.golden,
                                strict, parallel_stats));

    EXPECT_EQ(serial.samples, parallel.samples);
    EXPECT_EQ(serial.violations, parallel.violations);
    EXPECT_EQ(serial.first_violation, parallel.first_violation);
    EXPECT_EQ(serial.first_violation_time,
              parallel.first_violation_time);
    ASSERT_EQ(serial.violation_list.size(),
              parallel.violation_list.size());
    for (std::size_t i = 0; i < serial.violation_list.size(); ++i) {
        EXPECT_EQ(violationRepro(serial.violation_list[i]),
                  violationRepro(parallel.violation_list[i]));
        EXPECT_EQ(serial.violation_list[i].verdict,
                  parallel.violation_list[i].verdict);
    }
    EXPECT_EQ(serial_stats->images.load(),
              parallel_stats->images.load());
    EXPECT_EQ(serial_stats->quarantined.load(),
              parallel_stats->quarantined.load());
    EXPECT_EQ(serial_stats->repaired.load(),
              parallel_stats->repaired.load());
}

} // namespace
} // namespace persim
