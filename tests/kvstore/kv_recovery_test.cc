/**
 * @file
 * KV recovery-ladder tests: clean images recover exactly; handcrafted
 * corruption is detected with the right BucketFault cause; the three
 * tiers apply their policies (Strict fails, DetectAndDiscard serves
 * the rest, Repair rebuilds from the journal with a bounded budget);
 * and a seeded bit-flip fuzzer checks that recovery of a mutilated
 * image never crashes, never serves a value no writer issued, and
 * accounts for every fault it finds.
 */

#include <gtest/gtest.h>

#include "bench_util/kv_workload.hh"
#include "kvstore/recovery.hh"
#include "recovery/recovery.hh"

namespace persim {
namespace {

/** Final (crash-free) image of a workload run. */
MemoryImage
finalImage(const KvWorkloadResult &workload)
{
    const PersistLog log = stochasticLog(
        workload.trace, ModelConfig::strand(), /*seed=*/3);
    return reconstructImage(log, 1e30);
}

KvWorkloadConfig
smallConfig(KvUpdateStrategy strategy)
{
    KvWorkloadConfig config;
    config.store.buckets = 256;
    config.store.heap_bytes = 1 << 16;
    config.store.log_capacity = 1 << 18;
    config.store.strategy = strategy;
    config.threads = 2;
    config.ops_per_thread = 120;
    config.key_space = 60;
    config.put_ratio = 0.6;
    config.get_ratio = 0.2;
    config.seed = 11;
    return config;
}

/** Expected final state from the golden history. */
std::map<std::uint64_t, std::vector<std::uint8_t>>
goldenFinal(const KvGoldenHistory &golden)
{
    std::map<std::uint64_t, std::vector<std::uint8_t>> state;
    for (const auto &[key, versions] : golden) {
        if (!versions.empty() && !versions.back().erased)
            state[key] = versions.back().value;
    }
    return state;
}

class KvRecoveryStrategies
    : public ::testing::TestWithParam<KvUpdateStrategy>
{
};

TEST_P(KvRecoveryStrategies, CleanImageRecoversExactly)
{
    const KvWorkloadResult workload =
        runKvWorkload(smallConfig(GetParam()));
    const MemoryImage image = finalImage(workload);
    KvRecoveryOptions options;
    options.mode = KvRecoveryMode::Strict;
    const KvRecovery recovery =
        recoverKvStore(image, workload.layout, options);
    ASSERT_TRUE(recovery.ok) << recovery.error;
    EXPECT_TRUE(recovery.faults.empty());
    const auto expect = goldenFinal(*workload.golden);
    ASSERT_EQ(recovery.entries.size(), expect.size());
    for (const auto &[key, value] : expect) {
        auto it = recovery.entries.find(key);
        ASSERT_NE(it, recovery.entries.end()) << key;
        EXPECT_EQ(it->second.value, value) << key;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, KvRecoveryStrategies,
    ::testing::Values(KvUpdateStrategy::InPlace, KvUpdateStrategy::Cow,
                      KvUpdateStrategy::LogStructured),
    [](const ::testing::TestParamInfo<KvUpdateStrategy> &info) {
        return std::string(kvUpdateStrategyName(info.param));
    });

/** A tiny handcrafted layout with self-consistent live buckets. */
struct Handcrafted
{
    KvLayout layout;
    MemoryImage image;

    Handcrafted()
    {
        layout.table = persistent_base;
        layout.buckets = 16;
        layout.heap = persistent_base + 16 * KvLayout::bucket_bytes;
        layout.heap_bytes = 1 << 12;
        layout.max_value_bytes = 256;
    }

    /** Write a fully valid live bucket at the key's home slot. */
    std::uint64_t
    addLive(std::uint64_t key, std::uint64_t seq,
            std::vector<std::uint8_t> value, std::uint64_t slot_shift = 0)
    {
        const std::uint64_t index =
            (KvStore::hashIndex(key, layout.buckets) + slot_shift) &
            (layout.buckets - 1);
        const std::uint64_t val_off = next_heap_;
        next_heap_ += (value.size() + 7) & ~7ULL;
        image.writeBytes(layout.heap + val_off, value.data(),
                         value.size());
        const Addr bucket = layout.bucketAddr(index);
        image.store(bucket + KvLayout::key_off, 8, key);
        image.store(bucket + KvLayout::val_off_off, 8, val_off);
        image.store(bucket + KvLayout::val_len_off, 8, value.size());
        image.store(bucket + KvLayout::seq_off, 8, seq);
        image.store(bucket + KvLayout::cksum_off, 8,
                    KvLayout::checksum(index, key, val_off,
                                       value.size(), seq,
                                       value.data()));
        image.store(bucket + KvLayout::state_off, 8,
                    KvLayout::state_live);
        return index;
    }

  private:
    std::uint64_t next_heap_ = 0;
};

TEST(KvRecovery, DetectsEveryFaultKind)
{
    // Checksum mismatch (payload bit rot).
    {
        Handcrafted h;
        const std::uint64_t index = h.addLive(7, 1, {1, 2, 3});
        (void)index;
        const Addr payload = h.layout.heap + 0;
        h.image.store(payload, 1, h.image.load(payload, 1) ^ 0x40);
        const KvRecovery r =
            recoverKvStore(h.image, h.layout, {});
        ASSERT_EQ(r.faults.size(), 1u);
        EXPECT_EQ(r.faults[0].kind, BucketFaultKind::BadChecksum);
        EXPECT_TRUE(r.entries.empty());
    }
    // Bad value reference.
    {
        Handcrafted h;
        const std::uint64_t index = h.addLive(7, 1, {1, 2, 3});
        h.image.store(h.layout.bucketAddr(index) +
                          KvLayout::val_len_off,
                      8, h.layout.heap_bytes + 1);
        const KvRecovery r = recoverKvStore(h.image, h.layout, {});
        ASSERT_EQ(r.faults.size(), 1u);
        EXPECT_EQ(r.faults[0].kind, BucketFaultKind::BadValueRef);
    }
    // Invalid state.
    {
        Handcrafted h;
        h.image.store(h.layout.bucketAddr(3) + KvLayout::state_off, 8,
                      9);
        const KvRecovery r = recoverKvStore(h.image, h.layout, {});
        ASSERT_EQ(r.faults.size(), 1u);
        EXPECT_EQ(r.faults[0].kind, BucketFaultKind::InvalidState);
    }
    // Zero key.
    {
        Handcrafted h;
        h.image.store(h.layout.bucketAddr(3) + KvLayout::state_off, 8,
                      KvLayout::state_live);
        const KvRecovery r = recoverKvStore(h.image, h.layout, {});
        ASSERT_EQ(r.faults.size(), 1u);
        EXPECT_EQ(r.faults[0].kind, BucketFaultKind::ZeroKey);
    }
    // Duplicate key: the stale generation quarantines, the newer
    // seq survives.
    {
        Handcrafted h;
        h.addLive(7, 1, {1});
        h.addLive(7, 5, {2}, /*slot_shift=*/1);
        const KvRecovery r = recoverKvStore(h.image, h.layout, {});
        ASSERT_EQ(r.faults.size(), 1u);
        EXPECT_EQ(r.faults[0].kind, BucketFaultKind::DuplicateKey);
        ASSERT_EQ(r.entries.count(7), 1u);
        EXPECT_EQ(r.entries.at(7).seq, 5u);
        EXPECT_EQ(r.entries.at(7).value,
                  std::vector<std::uint8_t>({2}));
    }
    // Unreachable: a live bucket stranded past an empty slot.
    {
        Handcrafted h;
        const std::uint64_t index =
            h.addLive(7, 1, {1}, /*slot_shift=*/3);
        const KvRecovery r = recoverKvStore(h.image, h.layout, {});
        ASSERT_EQ(r.faults.size(), 1u);
        EXPECT_EQ(r.faults[0].kind, BucketFaultKind::Unreachable);
        EXPECT_EQ(r.faults[0].bucket, index);
        EXPECT_TRUE(r.entries.empty());
    }
    // Tombstones are self-describing: stale words are not faults.
    {
        Handcrafted h;
        const std::uint64_t index = h.addLive(7, 1, {1, 2, 3});
        h.image.store(h.layout.bucketAddr(index) + KvLayout::state_off,
                      8, KvLayout::state_tombstone);
        h.image.store(h.layout.bucketAddr(index) + KvLayout::cksum_off,
                      8, 0xdeadbeef); // Garbage checksum: ignored.
        const KvRecovery r = recoverKvStore(h.image, h.layout, {});
        EXPECT_TRUE(r.faults.empty());
        EXPECT_EQ(r.tombstones, 1u);
        EXPECT_TRUE(r.entries.empty());
    }
}

TEST(KvRecovery, TiersApplyTheirPolicies)
{
    Handcrafted h;
    h.addLive(7, 1, {1, 2, 3});
    h.addLive(9, 2, {4});
    // Rot key 7's payload.
    const Addr payload = h.layout.heap + 0;
    h.image.store(payload, 1, h.image.load(payload, 1) ^ 0x01);

    // Strict: the fault fails recovery.
    KvRecoveryOptions strict;
    strict.mode = KvRecoveryMode::Strict;
    const KvRecovery s = recoverKvStore(h.image, h.layout, strict);
    EXPECT_FALSE(s.ok);
    EXPECT_FALSE(s.error.empty());

    // DetectAndDiscard: quarantine 7, serve 9.
    KvRecoveryOptions discard;
    discard.mode = KvRecoveryMode::DetectAndDiscard;
    const KvRecovery d = recoverKvStore(h.image, h.layout, discard);
    EXPECT_TRUE(d.ok);
    EXPECT_EQ(d.discarded, 1u);
    EXPECT_EQ(d.entries.count(7), 0u);
    ASSERT_EQ(d.entries.count(9), 1u);
    EXPECT_EQ(d.entries.at(9).value, std::vector<std::uint8_t>({4}));

    // Repair without a journal degrades to DetectAndDiscard.
    KvRecoveryOptions repair;
    repair.mode = KvRecoveryMode::Repair;
    const KvRecovery r = recoverKvStore(h.image, h.layout, repair);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.repaired, 0u);
    EXPECT_EQ(r.discarded, 1u);
}

TEST(KvRecovery, RepairRebuildsFromJournal)
{
    const KvWorkloadResult workload =
        runKvWorkload(smallConfig(KvUpdateStrategy::LogStructured));
    MemoryImage image = finalImage(workload);
    const auto expect = goldenFinal(*workload.golden);
    ASSERT_FALSE(expect.empty());

    // Rot the checksum word of one live bucket.
    const std::uint64_t victim_key = expect.begin()->first;
    std::uint64_t index =
        KvStore::hashIndex(victim_key, workload.layout.buckets);
    Addr victim = invalid_addr;
    for (std::uint64_t probe = 0; probe < workload.layout.buckets;
         ++probe) {
        const Addr bucket = workload.layout.bucketAddr(index);
        if (image.load(bucket + KvLayout::state_off, 8) ==
                KvLayout::state_live &&
            image.load(bucket + KvLayout::key_off, 8) == victim_key) {
            victim = bucket;
            break;
        }
        index = (index + 1) & (workload.layout.buckets - 1);
    }
    ASSERT_NE(victim, invalid_addr);
    image.store(victim + KvLayout::cksum_off, 8,
                image.load(victim + KvLayout::cksum_off, 8) ^ 0xff);

    // DetectAndDiscard loses the key...
    KvRecoveryOptions discard;
    discard.mode = KvRecoveryMode::DetectAndDiscard;
    const KvRecovery d =
        recoverKvStore(image, workload.layout, discard);
    EXPECT_TRUE(d.ok);
    EXPECT_EQ(d.entries.count(victim_key), 0u);
    EXPECT_GE(d.discarded, 1u);

    // ...Repair resurrects it from the journal.
    KvRecoveryOptions repair;
    repair.mode = KvRecoveryMode::Repair;
    repair.journal = workload.journal;
    const KvRecovery r = recoverKvStore(image, workload.layout, repair);
    EXPECT_TRUE(r.ok);
    EXPECT_GE(r.repaired, 1u);
    EXPECT_GT(r.log_records, 0u);
    ASSERT_EQ(r.entries.count(victim_key), 1u);
    EXPECT_EQ(r.entries.at(victim_key).value, expect.at(victim_key));
    EXPECT_TRUE(r.entries.at(victim_key).repaired);

    // A zero budget falls back to discard.
    repair.repair_budget = 0;
    const KvRecovery capped =
        recoverKvStore(image, workload.layout, repair);
    EXPECT_TRUE(capped.ok);
    EXPECT_EQ(capped.repaired, 0u);
    EXPECT_EQ(capped.entries.count(victim_key), 0u);

    // A corrupt journal is distrusted, not crashed on: rot its first
    // record's checksum region and repair again.
    MemoryImage rotted = image.clone();
    rotted.store(workload.journal.base + 8, 8, 0x12345678);
    const KvRecovery fallback =
        recoverKvStore(rotted, workload.layout,
                       KvRecoveryOptions{KvRecoveryMode::Repair,
                                         workload.journal, 1 << 20});
    EXPECT_TRUE(fallback.ok);
    EXPECT_EQ(fallback.log_records, 0u);
}

TEST(KvRecovery, InvariantFlagsSilentCorruption)
{
    // A bucket whose checksum validates but whose value no writer
    // issued is the one thing detection cannot catch — the invariant
    // (which knows the golden history) must.
    Handcrafted h;
    h.addLive(7, 1, {1, 2, 3});
    auto golden = std::make_shared<KvGoldenHistory>();
    KvGoldenVersion version;
    version.seq = 1;
    version.value = {9, 9, 9}; // The writer issued something else.
    (*golden)[7].push_back(version);

    KvRecoveryOptions options;
    options.mode = KvRecoveryMode::DetectAndDiscard;
    auto invariant = makeKvRecoveryInvariant(
        h.layout, std::move(golden), options);
    const std::string verdict = invariant(h.image);
    EXPECT_NE(verdict.find("silent corruption"), std::string::npos)
        << verdict;
}

TEST(KvRecovery, BitFlipFuzzer)
{
    // Seeded fuzz: flip K random bits anywhere in the store's
    // persistent footprint (table, heap, journal), then recover under
    // every tier. Recovery must never throw, never serve a (seq,
    // value) pair no writer issued, and its accounting must classify
    // what it saw: every served key is clean or repaired, everything
    // else it detected is quarantined with a cause.
    const KvWorkloadResult workload =
        runKvWorkload(smallConfig(KvUpdateStrategy::LogStructured));
    const MemoryImage base = finalImage(workload);
    const KvLayout &layout = workload.layout;

    struct Region
    {
        Addr base;
        std::uint64_t bytes;
    };
    std::vector<Region> regions{
        {layout.table, layout.buckets * KvLayout::bucket_bytes},
        {layout.heap, layout.heap_bytes},
        {workload.journal.base, workload.journal.capacity},
    };

    KvRecoveryOptions repair;
    repair.mode = KvRecoveryMode::Repair;
    repair.journal = workload.journal;
    auto stats = std::make_shared<KvInvariantStats>();
    auto invariant = makeKvRecoveryInvariant(layout, workload.golden,
                                             repair, stats);

    Rng rng(0xf1122ed);
    for (int trial = 0; trial < 150; ++trial) {
        MemoryImage image = base.clone();
        const int flips = 1 + rng.nextBounded(8);
        for (int f = 0; f < flips; ++f) {
            const Region &region =
                regions[rng.nextBounded(regions.size())];
            const Addr addr = region.base +
                              rng.nextBounded(region.bytes);
            image.store(addr, 1,
                        image.load(addr, 1) ^
                            (1u << rng.nextBounded(8)));
        }
        for (KvRecoveryMode mode :
             {KvRecoveryMode::Strict, KvRecoveryMode::DetectAndDiscard,
              KvRecoveryMode::Repair}) {
            KvRecoveryOptions options = repair;
            options.mode = mode;
            KvRecovery recovery;
            ASSERT_NO_THROW(recovery = recoverKvStore(image, layout,
                                                      options))
                << "trial " << trial;
            // Never a wrong value: every served entry matches an
            // issued version.
            for (const auto &[key, entry] : recovery.entries) {
                auto history = workload.golden->find(key);
                ASSERT_NE(history, workload.golden->end())
                    << "trial " << trial << " invented key " << key;
                bool issued = false;
                for (const KvGoldenVersion &v : history->second)
                    if (v.seq == entry.seq && !v.erased &&
                        v.value == entry.value)
                        issued = true;
                ASSERT_TRUE(issued)
                    << "trial " << trial << " key " << key
                    << " served a value no writer issued";
            }
            // Classification: per-cause counts sum to the faults.
            std::uint64_t by_cause = 0;
            for (std::size_t k = 0; k < bucket_fault_kinds; ++k)
                by_cause += recovery.faultCount(
                    static_cast<BucketFaultKind>(k));
            EXPECT_EQ(by_cause, recovery.faults.size());
            if (mode == KvRecoveryMode::Strict)
                EXPECT_EQ(recovery.ok, recovery.faults.empty());
            else
                EXPECT_TRUE(recovery.ok);
            if (mode != KvRecoveryMode::Repair) {
                EXPECT_EQ(recovery.repaired, 0u);
            }
        }
        // The campaign-facing invariant agrees: no silent corruption.
        EXPECT_EQ(invariant(image), "") << "trial " << trial;
    }
    EXPECT_EQ(stats->images.load(), 150u);
}

} // namespace
} // namespace persim
