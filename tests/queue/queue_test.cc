/**
 * @file
 * Functional tests for the persistent queues: payloads, FIFO
 * semantics, circular wrap, removal, recovery parsing, hole
 * prevention in Two-Lock Concurrent, and the native twins.
 */

#include <gtest/gtest.h>

#include <set>

#include "bench_util/queue_workload.hh"
#include "memtrace/trace_stats.hh"
#include "queue/native_queue.hh"
#include "queue/payload.hh"
#include "queue/queue.hh"

namespace persim {
namespace {

TEST(Payload, DeterministicAndVerifiable)
{
    const auto a = makePayload(42, 100);
    const auto b = makePayload(42, 100);
    EXPECT_EQ(a, b);
    EXPECT_EQ(payloadOpId(a.data(), a.size()), 42u);
    EXPECT_TRUE(verifyPayload(a.data(), a.size()));

    auto corrupted = a;
    corrupted[50] ^= 0xff;
    EXPECT_FALSE(verifyPayload(corrupted.data(), corrupted.size()));

    const auto other = makePayload(43, 100);
    EXPECT_NE(a, other);
    EXPECT_THROW(makePayload(1, 4), FatalError);
}

TEST(QueueLayout, SlotSizing)
{
    QueueLayout layout;
    layout.pad = 64;
    EXPECT_EQ(layout.slotBytes(100), 128u); // 8 + 100 -> 128.
    EXPECT_EQ(layout.slotBytes(56), 64u);
    EXPECT_EQ(layout.slotBytes(8), 64u);
    layout.pad = 16;
    EXPECT_EQ(layout.slotBytes(8), 16u);
    EXPECT_EQ(layout.header + 64, layout.tailAddr());
}

class QueueFunctional : public ::testing::TestWithParam<QueueKind>
{
};

TEST_P(QueueFunctional, InsertThenRecoverAllEntries)
{
    EngineConfig config;
    ExecutionEngine engine(config, nullptr);
    QueueOptions options;
    options.capacity = 64 * 64;
    std::unique_ptr<PersistentQueue> queue;
    engine.runSetup([&](ThreadCtx &ctx) {
        queue = createQueue(ctx, GetParam(), options, 1);
    });
    engine.run({[&queue](ThreadCtx &ctx) {
        for (std::uint64_t op = 1; op <= 10; ++op) {
            const auto payload = makePayload(op, 100);
            queue->insert(ctx, 0, payload.data(), payload.size(), op);
        }
    }});

    const auto report = recoverQueue(engine.memory(), queue->layout());
    ASSERT_TRUE(report.ok) << report.error;
    ASSERT_EQ(report.entries.size(), 10u);
    for (std::uint64_t i = 0; i < 10; ++i) {
        EXPECT_EQ(report.entries[i].op_id, i + 1);
        EXPECT_EQ(report.entries[i].len, 100u);
        EXPECT_TRUE(report.entries[i].content_ok);
    }
    EXPECT_EQ(checkAgainstGolden(report, queue->golden()), "");
}

TEST_P(QueueFunctional, VariableEntrySizes)
{
    EngineConfig config;
    ExecutionEngine engine(config, nullptr);
    QueueOptions options;
    options.capacity = 64 * 256;
    std::unique_ptr<PersistentQueue> queue;
    engine.runSetup([&](ThreadCtx &ctx) {
        queue = createQueue(ctx, GetParam(), options, 1);
    });
    const std::vector<std::uint64_t> sizes{8, 9, 63, 64, 100, 200, 500};
    engine.run({[&queue, &sizes](ThreadCtx &ctx) {
        std::uint64_t op = 0;
        for (const auto size : sizes) {
            ++op;
            const auto payload = makePayload(op, size);
            queue->insert(ctx, 0, payload.data(), size, op);
        }
    }});
    const auto report = recoverQueue(engine.memory(), queue->layout());
    ASSERT_TRUE(report.ok) << report.error;
    ASSERT_EQ(report.entries.size(), sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i)
        EXPECT_EQ(report.entries[i].len, sizes[i]);
}

TEST_P(QueueFunctional, MultithreadedInsertsAllRecovered)
{
    EngineConfig config;
    config.seed = 3;
    ExecutionEngine engine(config, nullptr);
    QueueOptions options;
    options.capacity = 64 * 512;
    options.conservative_barriers = false;
    std::unique_ptr<PersistentQueue> queue;
    constexpr int threads = 4;
    constexpr std::uint64_t per_thread = 16;
    engine.runSetup([&](ThreadCtx &ctx) {
        queue = createQueue(ctx, GetParam(), options, threads);
    });
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < threads; ++t) {
        workers.push_back([&queue, t](ThreadCtx &ctx) {
            for (std::uint64_t i = 1; i <= per_thread; ++i) {
                const std::uint64_t op = t * 1000 + i;
                const auto payload = makePayload(op, 100);
                queue->insert(ctx, t, payload.data(), 100, op);
            }
        });
    }
    engine.run(workers);

    const auto report = recoverQueue(engine.memory(), queue->layout());
    ASSERT_TRUE(report.ok) << report.error;
    ASSERT_EQ(report.entries.size(), threads * per_thread);
    EXPECT_EQ(checkAgainstGolden(report, queue->golden()), "");

    // Per-thread insert order is preserved (FIFO w.r.t. each thread).
    std::map<int, std::uint64_t> last_per_thread;
    std::set<std::uint64_t> all_ops;
    for (const auto &entry : report.entries) {
        const int thread = static_cast<int>(entry.op_id / 1000);
        const auto it = last_per_thread.find(thread);
        if (it != last_per_thread.end()) {
            EXPECT_LT(it->second, entry.op_id);
        }
        last_per_thread[thread] = entry.op_id;
        all_ops.insert(entry.op_id);
    }
    EXPECT_EQ(all_ops.size(), threads * per_thread);
}

INSTANTIATE_TEST_SUITE_P(Kinds, QueueFunctional,
                         ::testing::Values(QueueKind::CopyWhileLocked,
                                           QueueKind::TwoLockConcurrent),
                         [](const ::testing::TestParamInfo<QueueKind> &i) {
                             return std::string(queueKindName(i.param));
                         });

TEST(CwlQueue, RemoveReturnsFifoOrder)
{
    EngineConfig config;
    ExecutionEngine engine(config, nullptr);
    QueueOptions options;
    options.capacity = 64 * 32;
    std::unique_ptr<PersistentQueue> queue;
    engine.runSetup([&](ThreadCtx &ctx) {
        queue = CwlQueue::create(ctx, options, 1);
    });
    engine.run({[&queue](ThreadCtx &ctx) {
        for (std::uint64_t op = 1; op <= 5; ++op) {
            const auto payload = makePayload(op, 50);
            queue->insert(ctx, 0, payload.data(), 50, op);
        }
        std::vector<std::uint8_t> out;
        for (std::uint64_t op = 1; op <= 5; ++op) {
            ASSERT_TRUE(queue->tryRemove(ctx, 0, out));
            EXPECT_EQ(out.size(), 50u);
            EXPECT_EQ(payloadOpId(out.data(), out.size()), op);
            EXPECT_TRUE(verifyPayload(out.data(), out.size()));
        }
        EXPECT_FALSE(queue->tryRemove(ctx, 0, out));
    }});
}

TEST(CwlQueue, WrapsAroundWithRemoval)
{
    // Capacity for 4 slots; insert/remove many more so that the
    // buffer wraps repeatedly.
    EngineConfig config;
    ExecutionEngine engine(config, nullptr);
    QueueOptions options;
    options.capacity = 128 * 4;
    std::unique_ptr<PersistentQueue> queue;
    engine.runSetup([&](ThreadCtx &ctx) {
        queue = CwlQueue::create(ctx, options, 1);
    });
    engine.run({[&queue](ThreadCtx &ctx) {
        std::vector<std::uint8_t> out;
        for (std::uint64_t op = 1; op <= 25; ++op) {
            const auto payload = makePayload(op, 100);
            queue->insert(ctx, 0, payload.data(), 100, op);
            if (op % 2 == 0) {
                // Drain two on even ops to stay within capacity.
                ASSERT_TRUE(queue->tryRemove(ctx, 0, out));
                ASSERT_TRUE(queue->tryRemove(ctx, 0, out));
                EXPECT_TRUE(verifyPayload(out.data(), out.size()));
            }
        }
    }});
    const auto report = recoverQueue(engine.memory(), queue->layout());
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.entries.size(), 1u); // 25 in, 24 out.
    EXPECT_EQ(report.entries[0].op_id, 25u);
}

TEST(CwlQueue, OverrunIsFatal)
{
    EngineConfig config;
    ExecutionEngine engine(config, nullptr);
    QueueOptions options;
    options.capacity = 128;
    std::unique_ptr<PersistentQueue> queue;
    engine.runSetup([&](ThreadCtx &ctx) {
        queue = CwlQueue::create(ctx, options, 1);
    });
    EXPECT_THROW(engine.run({[&queue](ThreadCtx &ctx) {
        for (std::uint64_t op = 1; op <= 3; ++op) {
            const auto payload = makePayload(op, 100);
            queue->insert(ctx, 0, payload.data(), 100, op);
        }
    }}), FatalError);
}

TEST(TlcQueue, RemoveIsUnsupported)
{
    EngineConfig config;
    ExecutionEngine engine(config, nullptr);
    QueueOptions options;
    options.capacity = 64 * 8;
    std::unique_ptr<PersistentQueue> queue;
    engine.runSetup([&](ThreadCtx &ctx) {
        queue = TlcQueue::create(ctx, options, 1);
    });
    engine.run({[&queue](ThreadCtx &ctx) {
        std::vector<std::uint8_t> out;
        EXPECT_THROW(queue->tryRemove(ctx, 0, out), FatalError);
    }});
}

TEST(TlcQueue, HeadNeverCoversIncompleteEntries)
{
    // Monitor every persist of the head pointer during a concurrent
    // run: the head must always be covered by reservations whose
    // entries were fully copied at that point in the trace. We check
    // the weaker trace-level property that head values only increase
    // and land exactly on slot boundaries recorded in golden.
    EngineConfig config;
    config.seed = 21;
    config.quantum = 3;
    InMemoryTrace trace;
    ExecutionEngine engine(config, &trace);
    QueueOptions options;
    options.capacity = 64 * 512;
    std::unique_ptr<PersistentQueue> queue;
    constexpr int threads = 4;
    engine.runSetup([&](ThreadCtx &ctx) {
        queue = TlcQueue::create(ctx, options, threads);
    });
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < threads; ++t) {
        workers.push_back([&queue, t](ThreadCtx &ctx) {
            for (std::uint64_t i = 1; i <= 20; ++i) {
                const std::uint64_t op = t * 100 + i;
                const auto payload = makePayload(op, 100);
                queue->insert(ctx, t, payload.data(), 100, op);
            }
        });
    }
    engine.run(workers);

    const auto golden = queue->golden();
    std::set<std::uint64_t> boundaries{0};
    for (const auto &[offset, entry] : golden)
        boundaries.insert(offset + queue->layout().slotBytes(entry.len));

    const Addr head_addr = queue->layout().headAddr();
    std::uint64_t last_head = 0;
    for (const auto &event : trace.events()) {
        if (event.kind != EventKind::Store || event.addr != head_addr ||
            event.thread == 0)
            continue;
        EXPECT_GE(event.value, last_head) << "head went backward";
        EXPECT_TRUE(boundaries.count(event.value))
            << "head " << event.value << " is not a slot boundary";
        last_head = event.value;
    }
    EXPECT_EQ(last_head, 80u * 128u);
}

TEST(NativeQueues, InsertAccountsBytes)
{
    for (const auto kind : {QueueKind::CopyWhileLocked,
                            QueueKind::TwoLockConcurrent}) {
        auto queue = createNativeQueue(kind, 1 << 20, 64, 2);
        const auto payload = makePayload(1, 100);
        for (int i = 0; i < 10; ++i)
            queue->insert(0, payload.data(), 100);
        if (kind == QueueKind::CopyWhileLocked) {
            EXPECT_EQ(static_cast<NativeCwlQueue *>(queue.get())->head(),
                      10 * 128u);
        } else {
            EXPECT_EQ(static_cast<NativeTlcQueue *>(queue.get())->head(),
                      10 * 128u);
        }
    }
}

TEST(NativeQueues, RateMeasurementIsPositive)
{
    const double rate = measureNativeInsertRate(
        QueueKind::CopyWhileLocked, 1, 20000, 100);
    EXPECT_GT(rate, 1e4);
}

} // namespace
} // namespace persim
