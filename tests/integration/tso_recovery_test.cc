/**
 * @file
 * Recovery under relaxed consistency (paper Section 4.3): running the
 * persistent queue on a TSO machine whose persist barriers are
 * decoupled from store visibility silently breaks recovery — buffered
 * stores (and so their persists) slide past the barrier. Adding a
 * consistency fence before each persist barrier restores correctness.
 */

#include <gtest/gtest.h>

#include "queue/payload.hh"
#include "queue/queue.hh"
#include "recovery/fault_campaign.hh"
#include "recovery/recovery.hh"
#include "sim/engine.hh"

namespace persim {
namespace {

struct TsoWorkload
{
    InMemoryTrace trace;
    QueueLayout layout;
    std::map<std::uint64_t, GoldenEntry> golden;
};

TsoWorkload
runTsoQueue(std::uint64_t seed, bool fence_with_barriers)
{
    TsoWorkload result;
    EngineConfig config;
    config.seed = seed;
    config.quantum = 4;
    config.consistency = ConsistencyModel::TSO;
    config.store_buffer_depth = 16;
    config.max_events = 2'000'000; // Fail fast on TSO livelock bugs.
    ExecutionEngine engine(config, &result.trace);

    QueueOptions options;
    options.capacity = 128 * 128;
    options.conservative_barriers = false;
    options.fence_with_barriers = fence_with_barriers;
    std::unique_ptr<PersistentQueue> queue;
    engine.runSetup([&](ThreadCtx &ctx) {
        queue = CwlQueue::create(ctx, options, 2);
    });
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < 2; ++t) {
        workers.push_back([&queue, t](ThreadCtx &ctx) {
            for (std::uint64_t i = 1; i <= 15; ++i) {
                const std::uint64_t op = t * 100 + i;
                const auto payload = makePayload(op, 100);
                queue->insert(ctx, t, payload.data(), 100, op);
            }
        });
    }
    engine.run(workers);
    result.layout = queue->layout();
    result.golden = queue->golden();
    return result;
}

InjectionResult
inject(const TsoWorkload &workload, std::uint64_t seed)
{
    InjectionConfig injection;
    injection.model = ModelConfig::epoch();
    injection.realizations = 16;
    injection.crashes_per_realization = 48;
    injection.seed = seed;
    return runFaultCampaign(
        workload.trace, {.injection = injection},
        makeRecoveryInvariant(workload.layout, workload.golden));
}

TEST(TsoRecovery, UnfencedBarriersCorruptRecovery)
{
    // Entry data is buffered when the line-8 barrier executes and
    // drains afterward (at the unlock RMW): in visibility order the
    // barrier no longer separates data from head, so a crash can
    // expose a head covering unpersisted data.
    bool corrupted = false;
    for (std::uint64_t seed = 1; seed <= 4 && !corrupted; ++seed) {
        const auto workload = runTsoQueue(seed, false);
        corrupted = inject(workload, seed).violations > 0;
    }
    EXPECT_TRUE(corrupted)
        << "TSO without fences should break the queue's recovery";
}

TEST(TsoRecovery, FencedBarriersRestoreRecovery)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const auto workload = runTsoQueue(seed, true);
        const auto result = inject(workload, seed);
        EXPECT_TRUE(result.ok())
            << "seed " << seed << ": " << result.first_violation;
    }
}

TEST(TsoRecovery, FinalImageIsIntactEitherWay)
{
    // The bug is a crash-ordering bug, not a logic bug: the final
    // (fully drained) image always recovers.
    for (const bool fenced : {false, true}) {
        const auto workload = runTsoQueue(3, fenced);
        const auto log =
            stochasticLog(workload.trace, ModelConfig::epoch(), 1);
        const auto image = reconstructImage(log, 1e18);
        const auto report = recoverQueue(image, workload.layout);
        EXPECT_TRUE(report.ok) << report.error;
        EXPECT_EQ(report.entries.size(), 30u);
        EXPECT_EQ(checkAgainstGolden(report, workload.golden), "");
    }
}

} // namespace
} // namespace persim
