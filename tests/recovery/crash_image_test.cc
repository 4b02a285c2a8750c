/**
 * @file
 * Crash-image builder tests.
 *
 *  - Oracle: on stochastic logs of the differential fuzzer's random
 *    programs, under strict, epoch, strand and px86, the builder's
 *    ascending-time walk (one CrashPlan, a base image grown between
 *    crash times, each sample's faults applied undo-logged and rolled
 *    back) matches a from-scratch reference — every log-order store
 *    with time <= T, then drops, tears and media errors applied to an
 *    empty image — byte for byte over every touched address, with the
 *    same FaultOutcome::summary(), for each fault class alone and all
 *    of them together.
 *  - Ordering precondition: a log whose per-word log order disagrees
 *    with (completion time, founder) order fails loudly.
 *  - Pinned campaigns: the violationRepro lists of two violating
 *    campaigns are pinned as recorded before the builder existed (a
 *    dropped-drain queue campaign and a no-commit-barrier KV router
 *    mutant under the kv_txn audit's fault mix), so every seed,
 *    crash time, verdict and fault summary stays bit-identical.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "bench_util/kv_workload.hh"
#include "bench_util/queue_workload.hh"
#include "common/bitops.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "explore/programs.hh"
#include "kvstore/router.hh"
#include "nvram/crash_image.hh"
#include "nvram/endurance.hh"
#include "queue/queue.hh"
#include "recovery/fault_campaign.hh"
#include "sim/engine.hh"
#include "tests/support/trace_builder.hh"

namespace persim {
namespace {

using test::paddr;

// The fault streams' salts (nvram/faults.cc). Recorded repro lines
// replay only while these stay fixed, so the reference pins them.
constexpr std::uint64_t tear_salt = 0x7465617270727374ULL;
constexpr std::uint64_t media_salt = 0x6d656469616572ULL;
constexpr std::uint64_t drain_salt = 0x647261696e647270ULL;

/** Wear profile of @p trace, sorted by block. */
std::map<std::uint64_t, std::uint64_t>
wearOf(const InMemoryTrace &trace, std::uint64_t block_bytes)
{
    EnduranceTracker tracker(block_bytes);
    trace.replay(tracker);
    return {tracker.counts().begin(), tracker.counts().end()};
}

/**
 * The crash image from scratch: the definition the builder must
 * reproduce. Drop draws go to the pending device writes in
 * (completion time, founder) order, then every record is applied in
 * log order — durable ones unless dropped, in-flight ones torn — and
 * media errors corrupt the result.
 */
MemoryImage
referenceImage(const PersistLog &log, const FaultConfig &config,
               const std::map<std::uint64_t, std::uint64_t> &wear,
               double crash_time, std::uint64_t fault_seed,
               FaultOutcome &outcome)
{
    std::vector<std::size_t> group(log.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
        const PersistRecord &record = log[i];
        group[i] = record.binding_source == DepSource::Coalesced
            ? group[record.binding] : i;
    }
    std::vector<char> dropped(log.size(), 0);
    if (config.drop_drain_p > 0.0) {
        std::vector<std::size_t> founders;
        for (std::size_t i = 0; i < log.size(); ++i)
            if (group[i] == i && log[i].time <= crash_time)
                founders.push_back(i);
        std::sort(founders.begin(), founders.end(),
                  [&log](std::size_t a, std::size_t b) {
                      return log[a].time != log[b].time
                          ? log[a].time < log[b].time : a < b;
                  });
        Rng rng(mixSeed(fault_seed, drain_salt));
        double drain_clock = 0.0;
        for (const std::size_t founder : founders) {
            drain_clock = std::max(drain_clock, log[founder].time) +
                          config.drain_latency;
            if (drain_clock <= crash_time ||
                !rng.nextBool(config.drop_drain_p))
                continue;
            dropped[founder] = 1;
            FaultInjection injection;
            injection.kind = FaultInjection::Kind::DroppedDrain;
            injection.persist = log[founder].id;
            injection.addr = log[founder].addr;
            outcome.record(injection);
        }
    }

    MemoryImage image;
    for (std::size_t i = 0; i < log.size(); ++i) {
        const PersistRecord &record = log[i];
        if (record.time <= crash_time) {
            if (!dropped[group[i]])
                image.store(record.addr, record.size, record.value);
            continue;
        }
        if (!config.tear_persists || record.start > crash_time)
            continue;
        Rng rng(mixSeed(mixSeed(fault_seed, tear_salt), record.id));
        const std::uint64_t unit = config.atomic_write_unit;
        std::uint8_t total = 0;
        std::uint8_t landed = 0;
        for (Addr pos = record.addr; pos < record.addr + record.size;) {
            const Addr chunk_end = std::min<Addr>(
                record.addr + record.size, blockBase(pos, unit) + unit);
            ++total;
            if (rng.nextBool(config.tear_land_p)) {
                ++landed;
                image.store(pos, static_cast<unsigned>(chunk_end - pos),
                            record.value >> (8 * (pos - record.addr)));
            }
            pos = chunk_end;
        }
        if (landed > 0) {
            FaultInjection injection;
            injection.kind = FaultInjection::Kind::TornPersist;
            injection.persist = record.id;
            injection.addr = record.addr;
            injection.landed_units = landed;
            injection.total_units = total;
            outcome.record(injection);
        }
    }

    if (config.media_error_per_write > 0.0) {
        for (const auto &[block, writes] : wear) {
            Rng rng(mixSeed(mixSeed(fault_seed, media_salt), block));
            const double fail_p =
                1.0 - std::pow(1.0 - config.media_error_per_write,
                               static_cast<double>(writes));
            if (!rng.nextBool(fail_p))
                continue;
            const Addr addr = block * config.wear_block_bytes +
                              rng.nextBounded(config.wear_block_bytes);
            const auto bit = static_cast<unsigned>(rng.nextBounded(8));
            const auto before =
                static_cast<std::uint8_t>(image.load(addr, 1));
            std::uint8_t after = before;
            switch (config.media_kind) {
            case MediaFaultKind::BitFlip:
                after = before ^ (1u << bit);
                break;
            case MediaFaultKind::StuckAtZero:
                after = before & ~(1u << bit);
                break;
            case MediaFaultKind::StuckAtOne:
                after = before | (1u << bit);
                break;
            }
            if (after == before)
                continue;
            image.store(addr, 1, after);
            FaultInjection injection;
            injection.kind = FaultInjection::Kind::MediaError;
            injection.addr = addr;
            injection.bit = static_cast<std::uint8_t>(bit);
            outcome.record(injection);
        }
    }
    return image;
}

/** Fault mixes: none, each class alone, and everything at once. */
FaultConfig
faultMix(int mix, std::uint64_t seed)
{
    FaultConfig config;
    const bool all = mix == 4;
    if (mix == 1 || all) {
        config.tear_persists = true;
        config.atomic_write_unit = seed % 2 ? 4 : 2;
    }
    if (mix == 2 || all) {
        config.media_error_per_write = 0.05;
        config.media_kind = static_cast<MediaFaultKind>(seed % 3);
    }
    if (mix == 3 || all) {
        config.drop_drain_p = 0.5;
        config.drain_latency = 0.5;
    }
    return config;
}

/** Simulate the fuzzer's random program @p seed into a trace. */
InMemoryTrace
randomTrace(std::uint64_t seed, bool flushes)
{
    RandomProgramOptions options;
    options.threads = 2 + static_cast<std::uint32_t>(seed % 2);
    options.ops_per_thread = 10;
    options.allow_strands = !flushes && seed % 3 != 0;
    options.allow_flushes = flushes;
    ExploreProgram program = randomProgram(seed, options)();
    EngineConfig engine_config = program.engine;
    engine_config.seed = seed;
    InMemoryTrace trace;
    ExecutionEngine sim(engine_config, &trace);
    sim.runSetup(program.setup);
    sim.run(program.workers);
    return trace;
}

TEST(CrashImageBuilder, MatchesFromScratchReferenceOnRandomPrograms)
{
    const std::vector<ModelConfig> models{
        ModelConfig::strict(), ModelConfig::epoch(),
        ModelConfig::strand(), ModelConfig::px86()};
    std::uint64_t samples = 0;
    FaultOutcome fired;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        for (std::size_t m = 0; m < models.size(); ++m) {
            const bool px86 = m == 3;
            const InMemoryTrace trace = randomTrace(seed, px86);
            const PersistLog log =
                stochasticLog(trace, models[m], seed * 31 + m, 1.0);
            double span = 0.0;
            for (const PersistRecord &record : log)
                span = std::max(span, record.time);
            // Boundaries, exact completion and start times (ties with
            // the inclusive cut and the tear window), and uniform
            // samples, in ascending order as the campaign walks them.
            std::vector<double> times{-1.0, span + 1.0};
            for (const PersistRecord &record : log) {
                times.push_back(record.time);
                times.push_back(record.start);
            }
            Rng rng(seed);
            for (int i = 0; i < 16; ++i)
                times.push_back(rng.nextDouble() * span);
            std::sort(times.begin(), times.end());

            for (int mix = 0; mix < 5; ++mix) {
                SCOPED_TRACE("seed " + std::to_string(seed) + " model " +
                             std::to_string(m) + " mix " +
                             std::to_string(mix));
                const FaultConfig config = faultMix(mix, seed);
                const FaultModel model(config, trace);
                const auto wear = wearOf(trace, config.wear_block_bytes);
                const CrashPlan plan(log, config);
                CrashImageBuilder builder(log, plan);
                for (std::size_t c = 0; c < times.size(); ++c) {
                    const double t = times[c];
                    const std::uint64_t fault_seed = mixSeed(seed, c);
                    builder.advanceTo(t);
                    const std::size_t mark = builder.mark();
                    FaultOutcome got;
                    model.perturb(builder, t, fault_seed, &got);
                    FaultOutcome want;
                    const MemoryImage expected = referenceImage(
                        log, config, wear, t, fault_seed, want);
                    const MemoryImage &image = builder.image();
                    for (const PersistRecord &record : log) {
                        ASSERT_EQ(image.load(record.addr, record.size),
                                  expected.load(record.addr, record.size))
                            << "t=" << t << " record " << record.id;
                    }
                    for (const auto &[block, writes] : wear) {
                        const Addr base = block * config.wear_block_bytes;
                        for (Addr a = base;
                             a < base + config.wear_block_bytes; a += 8)
                            ASSERT_EQ(image.load(a, 8),
                                      expected.load(a, 8))
                                << "t=" << t << " addr " << a;
                    }
                    ASSERT_EQ(got.summary(), want.summary())
                        << "t=" << t;
                    fired.torn_persists += got.torn_persists;
                    fired.media_errors += got.media_errors;
                    fired.dropped_drains += got.dropped_drains;
                    builder.rollback(mark);
                    ++samples;
                }
            }
        }
    }
    // Every fault class actually fired somewhere in the corpus.
    EXPECT_GT(samples, 1000u);
    EXPECT_GT(fired.torn_persists, 0u);
    EXPECT_GT(fired.media_errors, 0u);
    EXPECT_GT(fired.dropped_drains, 0u);
}

/** Hand-built record. */
PersistRecord
rec(PersistId id, Addr addr, std::uint64_t value, double time,
    std::uint8_t size = 8)
{
    PersistRecord record;
    record.id = id;
    record.addr = addr;
    record.size = size;
    record.value = value;
    record.time = time;
    return record;
}

TEST(CrashPlan, RejectsLogWhoseWordOrderDisagreesWithCompletionOrder)
{
    // Record 1 overwrites half of record 0's word but completes
    // first: device writes applied in completion order would leave
    // record 0's bytes where log order leaves record 1's.
    const PersistLog log{rec(0, paddr(0), 0x1111, 2.0),
                         rec(1, paddr(0) + 4, 0x2222, 1.0, 4)};
    try {
        const CrashPlan plan(log, FaultConfig{});
        FAIL() << "the plan accepted an out-of-order word";
    } catch (const FatalError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("record 0"), std::string::npos) << what;
        EXPECT_NE(what.find("record 1"), std::string::npos) << what;
    }
    EXPECT_THROW(reconstructImage(log, 3.0), FatalError);

    // Different words, or the same word in completion order (ties
    // broken by log order), are fine.
    const PersistLog ok{rec(0, paddr(0), 0x1111, 1.0),
                        rec(1, paddr(1), 0x2222, 0.5),
                        rec(2, paddr(0), 0x3333, 1.0)};
    EXPECT_EQ(reconstructImage(ok, 1.0).load(paddr(0), 8), 0x3333u);
}

/** FNV-1a of a repro line (the lines carry long fault summaries). */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const unsigned char byte : text)
        hash = (hash ^ byte) * 0x100000001b3ULL;
    return hash;
}

/** A pinned violationRepro line: its text up to the fault summary,
    and the hash of the whole line. */
struct PinnedRepro
{
    const char *head;
    std::uint64_t hash;
};

void
expectPinned(const InjectionResult &result, std::uint64_t violations,
             const std::vector<PinnedRepro> &pinned)
{
    EXPECT_EQ(result.violations, violations);
    ASSERT_EQ(result.violation_list.size(), pinned.size());
    for (std::size_t i = 0; i < pinned.size(); ++i) {
        const std::string line = violationRepro(result.violation_list[i]);
        EXPECT_EQ(line.substr(0, line.find(" [")), pinned[i].head);
        EXPECT_EQ(fnv1a(line), pinned[i].hash) << line;
    }
}

TEST(CrashImageCampaign, DroppedDrainViolationsArePinned)
{
    // DroppedDrainsViolateEvenCorrectProtocols' campaign.
    QueueWorkloadConfig config;
    config.kind = QueueKind::CopyWhileLocked;
    config.variant = AnnotationVariant::Conservative;
    config.threads = 2;
    config.inserts_per_thread = 10;
    config.entry_bytes = 24;
    config.seed = 21;
    config.wrap_slots = 0;
    config.checksummed_head = true;
    InMemoryTrace trace;
    const auto queue = runQueueWorkload(config, {&trace});
    FaultCampaignConfig campaign;
    campaign.injection.model = ModelConfig::epoch();
    campaign.injection.realizations = 8;
    campaign.injection.crashes_per_realization = 32;
    campaign.injection.seed = 23;
    campaign.faults.drop_drain_p = 0.5;
    campaign.faults.drain_latency = 0.5;
    const auto invariant =
        makeDetectAndDiscardInvariant(queue.layout, queue.golden);

    std::vector<PinnedRepro> pinned{
        {"repro seed=0x5190a37a91559065 crash=0x1.684872c53a312p+4 "
         "fault_seed=0xe98279ad0b0dbd72 # "
         "1 committed entry discarded during degraded recovery (data loss)",
         0xe089c94d591a3093ULL},
        {"repro seed=0x5190a37a91559065 crash=0x1.84b577f891c46p+4 "
         "fault_seed=0x32ad7c8200083725 # "
         "1 committed entry discarded during degraded recovery (data loss)",
         0x38a01574e1888d51ULL},
        {"repro seed=0x5190a37a91559065 crash=0x1.63c406f2fd72cp+4 "
         "fault_seed=0xe826b1fcc5640202 # "
         "1 committed entry discarded during degraded recovery (data loss)",
         0x2ff080cd151b1a53ULL},
        {"repro seed=0x96bd1314d59de509 crash=0x1.22ae7b5f7d192p+6 "
         "fault_seed=0xff6e204effd287a2 # "
         "1 committed entry discarded during degraded recovery (data loss)",
         0xf41d6f84e5d0fc1bULL},
        {"repro seed=0x96bd1314d59de509 crash=0x1.2667078f6d9a3p+4 "
         "fault_seed=0xdfcc84dac28b11f8 # "
         "1 committed entry discarded during degraded recovery (data loss)",
         0x28a87c6c77134e92ULL},
        {"repro seed=0xcb1d937206929503 crash=0x1.9d58b27a57ba9p+3 "
         "fault_seed=0x2095b74196006036 # "
         "1 committed entry discarded during degraded recovery (data loss)",
         0x5ee3aa0a5fd8dc0eULL},
        {"repro seed=0xcdba7e1b51d2d08e crash=0x1.1522ceaa501cfp+6 "
         "fault_seed=0x721e95e3da67ddf6 # "
         "1 committed entry discarded during degraded recovery (data loss)",
         0x58d8e4aa97be2651ULL},
        {"repro seed=0xcdba7e1b51d2d08e crash=0x1.c08eb1fdd498p+5 "
         "fault_seed=0x68e1ea099dff8703 # "
         "1 committed entry discarded during degraded recovery (data loss)",
         0xce848e84f9434c64ULL},
        {"repro seed=0xcdba7e1b51d2d08e crash=0x1.c6dc146cb59a3p+5 "
         "fault_seed=0x8de9874e28868516 # "
         "1 committed entry discarded during degraded recovery (data loss)",
         0x59afe662d5646be1ULL},
    };

    const InjectionResult result =
        runFaultCampaign(trace, campaign, invariant);
    EXPECT_EQ(result.samples, 272u);
    expectPinned(result, 9, pinned);

    // The cap keeps the first violations in schedule order.
    campaign.injection.max_recorded_violations = 4;
    pinned.resize(4);
    expectPinned(runFaultCampaign(trace, campaign, invariant), 9, pinned);
}

TEST(CrashImageCampaign, KvRouterMutantViolationsArePinned)
{
    // The kv_txn audit's shape and fault mix (one simulated thread,
    // in-place updates, tears + media + drops) over the
    // no-commit-barrier mutant, checked by the Repair-tier invariant.
    KvRouterWorkloadConfig config;
    config.router.shards = 2;
    config.router.partitions = 8;
    config.router.max_txns = 512;
    config.router.group_log_capacity = 1 << 16;
    config.router.store.buckets = 256;
    config.router.store.heap_bytes = 1 << 16;
    config.router.store.max_value_bytes = 64;
    config.router.store.log_capacity = 1 << 18;
    config.router.store.strategy = KvUpdateStrategy::InPlace;
    config.router.store.record_golden = true;
    config.router.omit_commit_barrier = true;
    config.router.store.omit_publish_barrier = true;
    config.threads = 1;
    config.ops_per_thread = 48;
    config.key_space = 48;
    config.txn_ratio = 0.35;
    config.snapshot_ratio = 0.05;
    config.put_ratio = 0.35;
    config.get_ratio = 0.15;
    config.migrate_every = 0;
    config.max_value_bytes = 48;
    config.seed = 5;
    const KvRouterWorkloadResult workload = runKvRouterWorkload(config);
    ASSERT_EQ(workload.trace.size(), 4020u);

    FaultCampaignConfig campaign;
    campaign.injection.realizations = 4;
    campaign.injection.crashes_per_realization = 16;
    campaign.injection.seed = 43;
    campaign.injection.max_recorded_violations = 6;
    campaign.faults.tear_persists = true;
    campaign.faults.atomic_write_unit = 4;
    campaign.faults.media_error_per_write = 2e-4;
    campaign.faults.drop_drain_p = 0.25;
    campaign.faults.drain_latency = 0.5;
    KvGroupRecoveryOptions repair;
    repair.mode = KvRecoveryMode::Repair;
    const auto invariant = makeKvRouterInvariant(
        workload.layout, workload.golden, workload.txn_golden, repair);

    campaign.injection.model = ModelConfig::strand();
    const InjectionResult strand =
        runFaultCampaign(workload.trace, campaign, invariant);
    EXPECT_EQ(strand.samples, 72u);
    expectPinned(strand, 4, {
        {"repro seed=0x9067b493704a17c8 crash=0x1.790637ea16888p+6 "
         "fault_seed=0x9c2ad21407a3ec7d # "
         "uncommitted txn 15 partially visible at seq 33 "
         "(1/3 puts applied, no commit record)",
         0xe76f9a8d491de298ULL},
        {"repro seed=0x9067b493704a17c8 crash=0x1.e608aba3078c2p+3 "
         "fault_seed=0xb2a1c101d8176746 # "
         "uncommitted txn 3 partially visible at seq 8 "
         "(1/3 puts applied, no commit record)",
         0x7da875fdee6e7a36ULL},
        {"repro seed=0x9067b493704a17c8 crash=0x1.ae8fca12953b4p+5 "
         "fault_seed=0xfbf6caa629546ee9 # "
         "uncommitted txn 2 partially visible at seq 7 "
         "(1/2 puts applied, no commit record)",
         0x837598a05a4de219ULL},
        {"repro seed=0xee8ade38436a49ef crash=0x1.64b69541791ebp+6 "
         "fault_seed=0xd0ddfac7b7d7fbcd # "
         "uncommitted txn 13 partially visible at seq 31 "
         "(1/4 puts applied, no commit record)",
         0xf3d26ebfd3200ffeULL},
    });

    campaign.injection.model = ModelConfig::px86();
    const InjectionResult px86 =
        runFaultCampaign(workload.trace, campaign, invariant);
    EXPECT_EQ(px86.samples, 72u);
    expectPinned(px86, 3, {
        {"repro seed=0x9067b493704a17c8 crash=0x1.bc7b86c71ec05p+3 "
         "fault_seed=0x62edc22cf077b07a # "
         "uncommitted txn 2 partially visible at seq 7 "
         "(1/2 puts applied, no commit record)",
         0xc289bdd510132362ULL},
        {"repro seed=0xee8ade38436a49ef crash=0x1.8bd0bd6b2ac66p+6 "
         "fault_seed=0x1a257ea49b1efd25 # "
         "uncommitted txn 15 partially visible at seq 33 "
         "(1/3 puts applied, no commit record)",
         0x5783dca868fa6f84ULL},
        {"repro seed=0xee8ade38436a49ef crash=0x1.27ea4437859b5p+5 "
         "fault_seed=0x531830f93b5a49be # "
         "uncommitted txn 5 partially visible at seq 14 "
         "(2/3 puts applied, no commit record)",
         0x6fb0ffc7f109f040ULL},
    });
}

} // namespace
} // namespace persim
