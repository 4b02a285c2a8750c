/**
 * @file
 * Producer/consumer recovery: with concurrent inserts and removes the
 * queue's tail persists join the ordering problem — a crash must
 * never expose a tail ahead of the head, a tail inside a slot, or a
 * live region that fails to parse. These tests sweep interleavings
 * (many seeds) and crash states (failure injection) over a mixed
 * workload.
 */

#include <gtest/gtest.h>

#include "queue/payload.hh"
#include "queue/queue.hh"
#include "recovery/fault_campaign.hh"
#include "recovery/recovery.hh"
#include "sim/engine.hh"

namespace persim {
namespace {

struct MixedWorkload
{
    InMemoryTrace trace;
    QueueLayout layout;
    std::map<std::uint64_t, GoldenEntry> golden;
    std::uint64_t removed = 0;
};

/** Two producers, one consumer over a CWL queue. */
MixedWorkload
runMixedWorkload(std::uint64_t seed, bool conservative)
{
    MixedWorkload result;
    EngineConfig config;
    config.seed = seed;
    config.quantum = 4;
    ExecutionEngine engine(config, &result.trace);

    QueueOptions options;
    options.capacity = 128 * 64;
    options.conservative_barriers = conservative;
    std::unique_ptr<PersistentQueue> queue;
    engine.runSetup([&](ThreadCtx &ctx) {
        queue = CwlQueue::create(ctx, options, 3);
    });

    constexpr std::uint64_t per_producer = 15;
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int producer = 0; producer < 2; ++producer) {
        workers.push_back([&queue, producer](ThreadCtx &ctx) {
            for (std::uint64_t i = 1; i <= per_producer; ++i) {
                const std::uint64_t op = producer * 1000 + i;
                const auto payload = makePayload(op, 100);
                queue->insert(ctx, producer, payload.data(), 100, op);
            }
        });
    }
    auto removed = std::make_shared<std::uint64_t>(0);
    workers.push_back([&queue, removed](ThreadCtx &ctx) {
        std::vector<std::uint8_t> out;
        std::uint64_t misses = 0;
        // Consume until both producers are clearly done and the
        // queue is empty (bounded by a miss budget to terminate).
        while (*removed < 20 && misses < 2000) {
            if (queue->tryRemove(ctx, 2, out)) {
                EXPECT_TRUE(verifyPayload(out.data(), out.size()));
                ++*removed;
            } else {
                ++misses;
            }
        }
    });
    engine.run(workers);

    result.layout = queue->layout();
    result.golden = queue->golden();
    result.removed = *removed;
    return result;
}

TEST(ProducerConsumer, RemovedEntriesVerifyAcrossSeeds)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const auto workload = runMixedWorkload(seed, false);
        EXPECT_GT(workload.removed, 0u) << "seed " << seed;

        // The final image parses and matches reservations.
        const auto log = stochasticLog(workload.trace,
                                       ModelConfig::epoch(), seed);
        const auto image = reconstructImage(log, 1e18);
        const auto report = recoverQueue(image, workload.layout);
        EXPECT_TRUE(report.ok) << report.error;
        EXPECT_EQ(checkAgainstGolden(report, workload.golden), "");
        EXPECT_EQ(report.entries.size(), 30 - workload.removed);
    }
}

class ProducerConsumerInjection
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ProducerConsumerInjection, CrashStatesRecoverUnderEpoch)
{
    const auto workload = runMixedWorkload(GetParam(), false);

    InjectionConfig injection;
    injection.model = ModelConfig::epoch();
    injection.realizations = 6;
    injection.crashes_per_realization = 40;
    injection.seed = GetParam() * 13 + 1;

    const auto layout = workload.layout;
    const auto golden = workload.golden;
    const auto result = runFaultCampaign(
        workload.trace, {.injection = injection},
        [&layout, &golden](const MemoryImage &image) {
            const auto report = recoverQueue(image, layout);
            if (!report.ok)
                return report.error;
            return checkAgainstGolden(report, golden);
        });
    EXPECT_TRUE(result.ok()) << result.first_violation;
}

TEST_P(ProducerConsumerInjection, CrashStatesRecoverUnderStrict)
{
    const auto workload = runMixedWorkload(GetParam(), true);
    InjectionConfig injection;
    injection.model = ModelConfig::strict();
    injection.realizations = 4;
    injection.crashes_per_realization = 30;
    const auto result = runFaultCampaign(
        workload.trace, {.injection = injection},
        makeRecoveryInvariant(workload.layout, workload.golden));
    EXPECT_TRUE(result.ok()) << result.first_violation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProducerConsumerInjection,
                         ::testing::Values(2u, 3u, 5u, 8u));

} // namespace
} // namespace persim
