/**
 * @file
 * Tests for traced and native locks: mutual exclusion under many
 * random interleavings, FIFO admission, and trace visibility.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "memtrace/sink.hh"
#include "memtrace/trace_stats.hh"
#include "sim/engine.hh"
#include "sync/locks.hh"
#include "sync/native_locks.hh"

namespace persim {
namespace {

/**
 * Run @p threads simulated threads that each increment a shared
 * counter @p iterations times under the lock built by @p make_locker;
 * a lost update indicates broken mutual exclusion.
 */
template <typename MakeLocker>
void
checkMutualExclusion(int threads, int iterations, std::uint64_t seed,
                     MakeLocker make_locker)
{
    EngineConfig config;
    config.seed = seed;
    config.quantum = 3;
    ExecutionEngine engine(config, nullptr);

    Addr counter = 0;
    // make_locker(setup_ctx) returns lock(ctx, slot)/unlock(ctx, slot).
    auto lockers = std::make_shared<
        std::pair<std::function<void(ThreadCtx &, int)>,
                  std::function<void(ThreadCtx &, int)>>>();
    engine.runSetup([&](ThreadCtx &ctx) {
        counter = ctx.vmalloc(8);
        ctx.store(counter, 0);
        *lockers = make_locker(ctx, threads);
    });

    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < threads; ++t) {
        workers.push_back([=](ThreadCtx &ctx) {
            for (int i = 0; i < iterations; ++i) {
                lockers->first(ctx, t);
                // Deliberately racy increment (load, then store): only
                // mutual exclusion protects it.
                const std::uint64_t v = ctx.load(counter);
                ctx.store(counter, v + 1);
                lockers->second(ctx, t);
            }
        });
    }
    engine.run(workers);
    EXPECT_EQ(engine.debugLoad(counter),
              static_cast<std::uint64_t>(threads) * iterations);
}

TEST(McsLock, MutualExclusionUnderRandomSchedules)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        checkMutualExclusion(4, 20, seed, [](ThreadCtx &ctx, int threads) {
            auto lock = std::make_shared<McsLock>(McsLock::create(ctx));
            auto qnodes = std::make_shared<std::vector<Addr>>();
            for (int i = 0; i < threads; ++i)
                qnodes->push_back(McsLock::createQnode(ctx));
            return std::make_pair(
                std::function<void(ThreadCtx &, int)>(
                    [lock, qnodes](ThreadCtx &c, int slot) {
                        lock->lock(c, (*qnodes)[slot]);
                    }),
                std::function<void(ThreadCtx &, int)>(
                    [lock, qnodes](ThreadCtx &c, int slot) {
                        lock->unlock(c, (*qnodes)[slot]);
                    }));
        });
    }
}

TEST(McsLock, SingleThreadLockUnlock)
{
    EngineConfig config;
    ExecutionEngine engine(config, nullptr);
    engine.run({[](ThreadCtx &ctx) {
        McsLock lock = McsLock::create(ctx);
        const Addr qnode = McsLock::createQnode(ctx);
        for (int i = 0; i < 10; ++i) {
            lock.lock(ctx, qnode);
            lock.unlock(ctx, qnode);
        }
        // Tail must be free again.
        EXPECT_EQ(ctx.load(lock.tailAddr()), 0u);
    }});
}

TEST(McsLock, GuardIsRaii)
{
    EngineConfig config;
    ExecutionEngine engine(config, nullptr);
    engine.run({[](ThreadCtx &ctx) {
        McsLock lock = McsLock::create(ctx);
        const Addr qnode = McsLock::createQnode(ctx);
        {
            McsGuard guard(ctx, lock, qnode);
            EXPECT_NE(ctx.load(lock.tailAddr()), 0u);
        }
        EXPECT_EQ(ctx.load(lock.tailAddr()), 0u);
    }});
}

TEST(McsLock, OperationsAppearInTrace)
{
    EngineConfig config;
    TraceStats stats;
    ExecutionEngine engine(config, &stats);
    engine.run({[](ThreadCtx &ctx) {
        McsLock lock = McsLock::create(ctx);
        const Addr qnode = McsLock::createQnode(ctx);
        lock.lock(ctx, qnode);
        lock.unlock(ctx, qnode);
    }});
    // The exchange (lock) and the CAS (unlock fast path) are RMWs.
    EXPECT_GE(stats.rmws(), 2u);
    EXPECT_EQ(stats.persists(), 0u) << "lock state must stay volatile";
}

TEST(NativeMcsLock, CountsUnderRealThreads)
{
    NativeMcsLock lock;
    std::uint64_t counter = 0;
    constexpr int threads = 4;
    constexpr int iterations = 2000;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&lock, &counter] {
            NativeMcsLock::Qnode qnode;
            for (int i = 0; i < iterations; ++i) {
                lock.lock(qnode);
                ++counter;
                lock.unlock(qnode);
            }
        });
    }
    for (auto &thread : pool)
        thread.join();
    EXPECT_EQ(counter, static_cast<std::uint64_t>(threads) * iterations);
}

TEST(NativeTicketLock, CountsUnderRealThreads)
{
    NativeTicketLock lock;
    std::uint64_t counter = 0;
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t) {
        pool.emplace_back([&lock, &counter] {
            for (int i = 0; i < 2000; ++i) {
                lock.lock();
                ++counter;
                lock.unlock();
            }
        });
    }
    for (auto &thread : pool)
        thread.join();
    EXPECT_EQ(counter, 8000u);
}

TEST(NativeSpinLock, CountsUnderRealThreads)
{
    NativeSpinLock lock;
    std::uint64_t counter = 0;
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t) {
        pool.emplace_back([&lock, &counter] {
            for (int i = 0; i < 2000; ++i) {
                lock.lock();
                ++counter;
                lock.unlock();
            }
        });
    }
    for (auto &thread : pool)
        thread.join();
    EXPECT_EQ(counter, 8000u);
}

} // namespace
} // namespace persim
