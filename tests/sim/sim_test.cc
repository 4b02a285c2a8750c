/**
 * @file
 * Unit tests for src/sim: memory image, allocator, scheduling
 * policies, and the execution engine (including the SC/analysis
 * atomicity properties the tracer must guarantee).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bitops.hh"
#include "common/error.hh"
#include "common/task_pool.hh"
#include "memtrace/sink.hh"
#include "memtrace/trace_stats.hh"
#include "sim/address_allocator.hh"
#include "sim/engine.hh"
#include "sim/memory_image.hh"
#include "sim/scheduler.hh"

namespace persim {
namespace {

TEST(MemoryImage, LoadOfUntouchedMemoryIsZero)
{
    MemoryImage image;
    EXPECT_EQ(image.load(0x1234, 8), 0u);
    EXPECT_EQ(image.pageCount(), 0u);
}

TEST(MemoryImage, StoreLoadRoundTrip)
{
    MemoryImage image;
    image.store(0x1000, 8, 0x1122334455667788ULL);
    EXPECT_EQ(image.load(0x1000, 8), 0x1122334455667788ULL);
    EXPECT_EQ(image.load(0x1000, 4), 0x55667788u);
    EXPECT_EQ(image.load(0x1004, 4), 0x11223344u);
    EXPECT_EQ(image.load(0x1007, 1), 0x11u);
}

TEST(MemoryImage, PartialStorePreservesNeighbors)
{
    MemoryImage image;
    image.store(0x2000, 8, ~0ULL);
    image.store(0x2002, 2, 0);
    EXPECT_EQ(image.load(0x2000, 8), 0xffffffff0000ffffULL);
}

TEST(MemoryImage, CrossPageAccess)
{
    MemoryImage image;
    const Addr addr = MemoryImage::page_size - 4;
    image.store(addr, 8, 0xa1b2c3d4e5f60718ULL);
    EXPECT_EQ(image.load(addr, 8), 0xa1b2c3d4e5f60718ULL);
    EXPECT_EQ(image.pageCount(), 2u);
}

TEST(MemoryImage, CrossPageLoadSeesUnwrittenPageAsZero)
{
    MemoryImage image;
    const Addr addr = MemoryImage::page_size - 2;
    image.store(addr, 2, 0xbeef);
    EXPECT_EQ(image.pageCount(), 1u);
    EXPECT_EQ(image.load(addr, 8), 0xbeefULL);
    image.store(MemoryImage::page_size, 1, 0x7a);
    EXPECT_EQ(image.load(addr, 4), 0x7abeefULL);
    EXPECT_EQ(image.load(addr - 4, 8), 0x7abeef00000000ULL);
}

TEST(MemoryImage, BulkBytes)
{
    MemoryImage image;
    const char msg[] = "persistency";
    image.writeBytes(0x3000, msg, sizeof(msg));
    char out[sizeof(msg)] = {};
    image.readBytes(out, 0x3000, sizeof(msg));
    EXPECT_STREQ(out, msg);
}

TEST(MemoryImage, RejectsBadSizes)
{
    MemoryImage image;
    EXPECT_THROW(image.load(0, 0), FatalError);
    EXPECT_THROW(image.load(0, 9), FatalError);
    EXPECT_THROW(image.store(0, 16, 0), FatalError);
}

TEST(MemoryImage, MovedFromAndMovedToImagesStayIndependent)
{
    // The last-page cache must not follow the pages: a store into the
    // moved-from image may not land in the moved-to image's page.
    MemoryImage from;
    from.store(0x5000, 8, 0x1111);
    MemoryImage to(std::move(from));
    from.store(0x5000, 8, 0x2222);
    to.store(0x5008, 8, 0x3333);
    EXPECT_EQ(from.load(0x5000, 8), 0x2222u);
    EXPECT_EQ(from.load(0x5008, 8), 0u);
    EXPECT_EQ(from.pageCount(), 1u);
    EXPECT_EQ(to.load(0x5000, 8), 0x1111u);
    EXPECT_EQ(to.load(0x5008, 8), 0x3333u);

    MemoryImage assigned;
    assigned.store(0x9000, 8, 0x4444);
    assigned = std::move(to);
    to.store(0x5000, 8, 0x5555);
    assigned.store(0x5010, 8, 0x6666);
    EXPECT_EQ(to.load(0x5000, 8), 0x5555u);
    EXPECT_EQ(to.load(0x5010, 8), 0u);
    EXPECT_EQ(assigned.load(0x5000, 8), 0x1111u);
    EXPECT_EQ(assigned.load(0x5010, 8), 0x6666u);
    EXPECT_EQ(assigned.load(0x9000, 8), 0u);
}

TEST(MemoryImage, ClearedImageReadsZero)
{
    MemoryImage image;
    image.store(0x6000, 8, ~0ULL);
    image.clear();
    EXPECT_EQ(image.pageCount(), 0u);
    EXPECT_EQ(image.load(0x6000, 8), 0u);
    image.store(0x6004, 4, 0xabcd);
    EXPECT_EQ(image.load(0x6000, 8), 0xabcd00000000ULL);
}

TEST(MemoryImage, BulkBytesSpanPagesAndHoles)
{
    // Three pages, the middle one never written: reads see zeros
    // there and writes across both boundaries land byte-exact.
    MemoryImage image;
    const Addr base = 0x10 * MemoryImage::page_size;
    image.store(base + 8, 8, 0x0102030405060708ULL);
    image.store(base + 2 * MemoryImage::page_size, 1, 0x5a);
    std::vector<std::uint8_t> out(3 * MemoryImage::page_size, 0xee);
    image.readBytes(out.data(), base, out.size());
    EXPECT_EQ(out[8], 0x08);
    EXPECT_EQ(out[15], 0x01);
    EXPECT_EQ(out[MemoryImage::page_size + 17], 0);
    EXPECT_EQ(out[2 * MemoryImage::page_size], 0x5a);
    EXPECT_EQ(image.pageCount(), 2u);

    std::vector<std::uint8_t> in(MemoryImage::page_size + 64);
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<std::uint8_t>(i * 7 + 1);
    const Addr at = base + MemoryImage::page_size - 32;
    image.writeBytes(at, in.data(), in.size());
    std::vector<std::uint8_t> back(in.size() + 2);
    image.readBytes(back.data(), at - 1, back.size());
    EXPECT_EQ(back.front(), 0);
    EXPECT_EQ(back.back(), 0);
    EXPECT_TRUE(std::equal(in.begin(), in.end(), back.begin() + 1));
    EXPECT_EQ(image.load(at, 2),
              std::uint64_t{in[0]} | std::uint64_t{in[1]} << 8);
}

TEST(MemoryImage, CloneIsAnEqualIndependentCopy)
{
    MemoryImage image;
    for (Addr a = 0; a < 8 * MemoryImage::page_size; a += 520)
        image.store(a, 8, a * 0x9e3779b97f4a7c15ULL);
    const MemoryImage copy = image.clone();
    EXPECT_EQ(copy.pageCount(), image.pageCount());
    for (Addr a = 0; a < 8 * MemoryImage::page_size; a += 4)
        EXPECT_EQ(copy.load(a, 4), image.load(a, 4)) << a;
    image.store(0, 8, 1);
    EXPECT_EQ(copy.load(0, 8), 0u);
}

TEST(MemoryImage, ConcurrentConstLoadsAgree)
{
    // Const reads never touch the last-page cache, so threads may
    // share one image (ThreadSanitizer runs this).
    MemoryImage image;
    for (Addr a = 0; a < 16 * MemoryImage::page_size; a += 8)
        image.store(a, 8, a ^ 0x5555);
    const MemoryImage &shared = image;
    std::vector<std::uint64_t> mismatches(2, 0);
    std::vector<std::thread> readers;
    for (unsigned t = 0; t < 2; ++t) {
        readers.emplace_back([&shared, &mismatches, t] {
            for (int pass = 0; pass < 4; ++pass) {
                for (Addr a = t * 8; a < 16 * MemoryImage::page_size;
                     a += 8 * 7) {
                    if (shared.load(a, 8) != (a ^ 0x5555))
                        ++mismatches[t];
                }
            }
        });
    }
    for (std::thread &reader : readers)
        reader.join();
    EXPECT_EQ(mismatches[0] + mismatches[1], 0u);
}

TEST(Allocator, AllocationsAreDisjointAndAligned)
{
    AddressAllocator alloc(0x1000, 4096);
    std::set<Addr> seen;
    for (int i = 0; i < 16; ++i) {
        const Addr a = alloc.allocate(24, 8);
        EXPECT_TRUE(isAligned(a, 8));
        for (Addr b : seen)
            EXPECT_TRUE(a + 24 <= b || b + 24 <= a);
        seen.insert(a);
    }
    EXPECT_EQ(alloc.liveBlocks(), 16u);
}

TEST(Allocator, RespectsAlignment)
{
    AddressAllocator alloc(0x1000, 1 << 16);
    alloc.allocate(8);
    const Addr a = alloc.allocate(64, 256);
    EXPECT_TRUE(isAligned(a, 256));
}

TEST(Allocator, FreeEnablesReuse)
{
    AddressAllocator alloc(0x1000, 256);
    const Addr a = alloc.allocate(128);
    alloc.free(a);
    const Addr b = alloc.allocate(128);
    EXPECT_EQ(a, b);
}

TEST(Allocator, CoalescesAdjacentFreeRanges)
{
    AddressAllocator alloc(0x1000, 256);
    const Addr a = alloc.allocate(64);
    const Addr b = alloc.allocate(64);
    const Addr c = alloc.allocate(64);
    alloc.free(a);
    alloc.free(c);
    alloc.free(b);
    // The whole region should be one free range again.
    const Addr big = alloc.allocate(256);
    EXPECT_EQ(big, 0x1000u);
}

TEST(Allocator, ExhaustionIsFatal)
{
    AddressAllocator alloc(0x1000, 64);
    alloc.allocate(64);
    EXPECT_THROW(alloc.allocate(8), FatalError);
}

TEST(Allocator, DoubleFreeIsFatal)
{
    AddressAllocator alloc(0x1000, 64);
    const Addr a = alloc.allocate(8);
    alloc.free(a);
    EXPECT_THROW(alloc.free(a), FatalError);
}

TEST(Allocator, TracksLiveBytes)
{
    AddressAllocator alloc(0x1000, 1024);
    const Addr a = alloc.allocate(100); // Rounded to 104.
    EXPECT_EQ(alloc.bytesLive(), 104u);
    EXPECT_EQ(alloc.blockSize(a), 104u);
    EXPECT_TRUE(alloc.isAllocated(a));
    alloc.free(a);
    EXPECT_EQ(alloc.bytesLive(), 0u);
    EXPECT_FALSE(alloc.isAllocated(a));
}

TEST(Scheduler, RoundRobinCycles)
{
    RoundRobinPolicy policy(1);
    const std::vector<ThreadId> runnable{0, 1, 2};
    ThreadId current = invalid_thread;
    std::vector<ThreadId> order;
    for (int i = 0; i < 6; ++i) {
        current = policy.pick(runnable, current).thread;
        order.push_back(current);
    }
    EXPECT_EQ(order, (std::vector<ThreadId>{0, 1, 2, 0, 1, 2}));
}

TEST(Scheduler, RoundRobinSkipsFinishedThreads)
{
    RoundRobinPolicy policy(1);
    const std::vector<ThreadId> runnable{0, 2};
    EXPECT_EQ(policy.pick(runnable, 0).thread, 2u);
    EXPECT_EQ(policy.pick(runnable, 2).thread, 0u);
    EXPECT_EQ(policy.pick(runnable, 1).thread, 2u);
}

TEST(Scheduler, RandomIsDeterministicPerSeed)
{
    RandomPolicy a(99, 4);
    RandomPolicy b(99, 4);
    const std::vector<ThreadId> runnable{0, 1, 2, 3};
    for (int i = 0; i < 50; ++i) {
        const auto da = a.pick(runnable, 0);
        const auto db = b.pick(runnable, 0);
        EXPECT_EQ(da.thread, db.thread);
        EXPECT_EQ(da.quantum, db.quantum);
    }
}

TEST(Scheduler, RandomVisitsAllThreads)
{
    RandomPolicy policy(7, 1);
    const std::vector<ThreadId> runnable{0, 1, 2, 3};
    std::set<ThreadId> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(policy.pick(runnable, 0).thread);
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Engine, SingleThreadBasicOps)
{
    EngineConfig config;
    InMemoryTrace trace;
    ExecutionEngine engine(config, &trace);
    engine.run({[](ThreadCtx &ctx) {
        const Addr a = ctx.pmalloc(16);
        ctx.store(a, 0x1234);
        EXPECT_EQ(ctx.load(a), 0x1234u);
        const Addr v = ctx.vmalloc(8);
        ctx.store(v, 9);
        EXPECT_EQ(ctx.load(v), 9u);
    }});
    EXPECT_GT(engine.eventCount(), 0u);
    // Events: ThreadStart, PMalloc, store, load, store, load, ThreadEnd.
    EXPECT_EQ(trace.size(), 7u);
    EXPECT_EQ(trace.events().front().kind, EventKind::ThreadStart);
    EXPECT_EQ(trace.events().back().kind, EventKind::ThreadEnd);
}

TEST(ThreadCtx, StoresToPersistentSpaceArePersists)
{
    // pmalloc memory is persistent: a store there is a persist. A
    // store to vmalloc memory is not.
    EngineConfig config;
    TraceStats stats;
    ExecutionEngine engine(config, &stats);
    engine.run({[](ThreadCtx &ctx) {
        const Addr persistent = ctx.pmalloc(8);
        const Addr volatile_word = ctx.vmalloc(8);
        ctx.store(persistent, 1);
        ctx.store(volatile_word, 1);
    }});
    EXPECT_EQ(stats.persists(), 1u);
    EXPECT_EQ(stats.stores(), 2u);
}

TEST(Engine, SetupRunsAsThreadZero)
{
    EngineConfig config;
    InMemoryTrace trace;
    ExecutionEngine engine(config, &trace);
    Addr shared = 0;
    engine.runSetup([&shared](ThreadCtx &ctx) {
        shared = ctx.pmalloc(8);
        ctx.store(shared, 77);
    });
    engine.run({[shared](ThreadCtx &ctx) {
        EXPECT_EQ(ctx.load(shared), 77u);
    }});
    EXPECT_EQ(trace.events()[0].kind, EventKind::PMalloc);
    EXPECT_EQ(trace.events()[0].thread, 0u);
}

TEST(Engine, RmwSemantics)
{
    EngineConfig config;
    ExecutionEngine engine(config, nullptr);
    engine.run({[](ThreadCtx &ctx) {
        const Addr a = ctx.vmalloc(8);
        ctx.store(a, 10);
        EXPECT_EQ(ctx.rmwExchange(a, 20), 10u);
        EXPECT_EQ(ctx.rmwFetchAdd(a, 5), 20u);
        EXPECT_EQ(ctx.load(a), 25u);
        EXPECT_EQ(ctx.rmwCas(a, 25, 30), 25u); // Success.
        EXPECT_EQ(ctx.load(a), 30u);
        EXPECT_EQ(ctx.rmwCas(a, 99, 40), 30u); // Failure.
        EXPECT_EQ(ctx.load(a), 30u);
    }});
}

TEST(Engine, FailedCasTracesAsLoad)
{
    EngineConfig config;
    InMemoryTrace trace;
    ExecutionEngine engine(config, &trace);
    engine.run({[](ThreadCtx &ctx) {
        const Addr a = ctx.vmalloc(8);
        ctx.store(a, 1);
        ctx.rmwCas(a, 1, 2); // Succeeds -> Rmw.
        ctx.rmwCas(a, 1, 3); // Fails -> Load.
    }});
    std::map<EventKind, int> kinds;
    for (const auto &event : trace.events())
        ++kinds[event.kind];
    EXPECT_EQ(kinds[EventKind::Rmw], 1);
    EXPECT_EQ(kinds[EventKind::Load], 1);
}

TEST(Engine, CopySplitsAtWordBoundaries)
{
    EngineConfig config;
    InMemoryTrace trace;
    ExecutionEngine engine(config, &trace);
    engine.run({[](ThreadCtx &ctx) {
        const Addr a = ctx.pmalloc(32);
        std::uint8_t buf[20];
        for (int i = 0; i < 20; ++i)
            buf[i] = static_cast<std::uint8_t>(i + 1);
        ctx.copyIn(a + 3, buf, 20); // Unaligned start.
        std::uint8_t out[20] = {};
        ctx.copyOut(out, a + 3, 20);
        for (int i = 0; i < 20; ++i)
            EXPECT_EQ(out[i], buf[i]);
    }});
    for (const auto &event : trace.events()) {
        if (!event.isAccess())
            continue;
        EXPECT_LE(event.size, 8);
        // No access crosses an 8-byte boundary.
        EXPECT_EQ(event.addr / 8, (event.addr + event.size - 1) / 8)
            << formatEvent(event);
    }
}

TEST(Engine, CopySimMovesDataWithinSimMemory)
{
    EngineConfig config;
    ExecutionEngine engine(config, nullptr);
    engine.run({[](ThreadCtx &ctx) {
        const Addr src = ctx.pmalloc(16);
        const Addr dst = ctx.pmalloc(16);
        ctx.store(src, 0xabcdef12345678ULL);
        ctx.store(src + 8, 0x11223344u, 4);
        ctx.copySim(dst, src, 12);
        EXPECT_EQ(ctx.load(dst), 0xabcdef12345678ULL);
        EXPECT_EQ(ctx.load(dst + 8, 4), 0x11223344u);
    }});
}

/** Events of each thread appear in program order in the trace. */
TEST(Engine, TraceRespectsProgramOrder)
{
    EngineConfig config;
    config.seed = 123;
    config.quantum = 2;
    InMemoryTrace trace;
    ExecutionEngine engine(config, &trace);

    Addr base = 0;
    engine.runSetup([&base](ThreadCtx &ctx) {
        base = ctx.pmalloc(1024);
    });
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < 4; ++t) {
        workers.push_back([base, t](ThreadCtx &ctx) {
            for (int i = 0; i < 50; ++i)
                ctx.store(base + 64 * t, i);
        });
    }
    engine.run(workers);

    std::map<ThreadId, std::uint64_t> last_value;
    std::map<ThreadId, bool> seen_any;
    SeqNum expected_seq = 0;
    for (const auto &event : trace.events()) {
        EXPECT_EQ(event.seq, expected_seq++);
        if (event.kind != EventKind::Store || event.thread == 0)
            continue;
        if (seen_any[event.thread]) {
            EXPECT_EQ(event.value, last_value[event.thread] + 1);
        }
        last_value[event.thread] = event.value;
        seen_any[event.thread] = true;
    }
}

/** Loads return the most recent prior store in the global order (SC). */
TEST(Engine, TraceIsSequentiallyConsistent)
{
    EngineConfig config;
    config.seed = 77;
    config.quantum = 1;
    InMemoryTrace trace;
    ExecutionEngine engine(config, &trace);

    Addr cell = 0;
    engine.runSetup([&cell](ThreadCtx &ctx) {
        cell = ctx.pmalloc(8);
        ctx.store(cell, 0);
    });
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < 3; ++t) {
        workers.push_back([cell, t](ThreadCtx &ctx) {
            for (int i = 0; i < 30; ++i) {
                ctx.load(cell);
                ctx.store(cell, static_cast<std::uint64_t>(t) * 1000 + i);
            }
        });
    }
    engine.run(workers);

    std::uint64_t current = ~0ULL;
    for (const auto &event : trace.events()) {
        if (!event.isAccess() || event.addr != cell)
            continue;
        if (event.kind == EventKind::Store) {
            current = event.value;
        } else if (current != ~0ULL) {
            EXPECT_EQ(event.value, current)
                << "load observed a stale value at seq " << event.seq;
        }
    }
}

TEST(Engine, DeterministicInterleavingPerSeed)
{
    auto run = [](std::uint64_t seed) {
        EngineConfig config;
        config.seed = seed;
        config.quantum = 3;
        InMemoryTrace trace;
        ExecutionEngine engine(config, &trace);
        Addr base = 0;
        engine.runSetup([&base](ThreadCtx &ctx) {
            base = ctx.pmalloc(256);
        });
        std::vector<ExecutionEngine::WorkerFn> workers;
        for (int t = 0; t < 3; ++t) {
            workers.push_back([base, t](ThreadCtx &ctx) {
                for (int i = 0; i < 20; ++i)
                    ctx.store(base + 8 * t, i);
            });
        }
        engine.run(workers);
        std::vector<ThreadId> order;
        for (const auto &event : trace.events())
            order.push_back(event.thread);
        return order;
    };
    EXPECT_EQ(run(5), run(5));
    EXPECT_NE(run(5), run(6));
}

TEST(Engine, MaxEventsGuardsAgainstLivelock)
{
    EngineConfig config;
    config.max_events = 100;
    ExecutionEngine engine(config, nullptr);
    EXPECT_THROW(engine.run({[](ThreadCtx &ctx) {
        const Addr a = ctx.vmalloc(8);
        for (;;)
            ctx.load(a);
    }}), FatalError);
}

/** Counts live instances: a worker's stack frames were unwound iff
    every Sentinel it constructed was destroyed. */
struct Sentinel
{
    explicit Sentinel(int &live) : live_(live) { ++live_; }
    ~Sentinel() { --live_; }
    Sentinel(const Sentinel &) = delete;
    Sentinel &operator=(const Sentinel &) = delete;

    int &live_;
};

TEST(Engine, MaxEventsAbortsAllThreads)
{
    EngineConfig config;
    config.max_events = 200;
    ExecutionEngine engine(config, nullptr);
    int live = 0;
    int constructed = 0;
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < 4; ++t) {
        workers.push_back([&live, &constructed](ThreadCtx &ctx) {
            Sentinel sentinel(live);
            ++constructed;
            const Addr a = ctx.vmalloc(8);
            for (;;)
                ctx.load(a);
        });
    }
    EXPECT_THROW(engine.run(workers), FatalError);
    // Every worker was unwound, not just stopped.
    EXPECT_EQ(constructed, 4);
    EXPECT_EQ(live, 0);
}

TEST(Engine, WorkerExceptionPropagates)
{
    EngineConfig config;
    config.scheduler = SchedulerKind::RoundRobin;
    config.quantum = 1;
    ExecutionEngine engine(config, nullptr);
    int live = 0;
    int constructed = 0;
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < 4; ++t) {
        workers.push_back([&live, &constructed, t](ThreadCtx &ctx) {
            Sentinel sentinel(live);
            ++constructed;
            const Addr a = ctx.vmalloc(8);
            for (int i = 0; i < 1000000; ++i) {
                ctx.store(a, i);
                if (t == 0 && i == 5)
                    PERSIM_FATAL("worker 0 gave up");
            }
        });
    }
    // Round-robin at quantum 1: workers 1-3 are all suspended at a
    // schedule point when worker 0 throws.
    try {
        engine.run(workers);
        FAIL() << "run() did not rethrow the worker error";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("worker 0 gave up"),
                  std::string::npos)
            << error.what();
    }
    EXPECT_EQ(constructed, 4);
    EXPECT_EQ(live, 0);
}

TEST(Engine, AbortFinishesNeverScheduledWorkers)
{
    // One quantum outlasts worker 0, which throws before anyone else
    // is scheduled: the abort resumes workers 1-3 only to unwind them
    // at their first schedule point, so their bodies never run and
    // they never emit.
    EngineConfig config;
    config.scheduler = SchedulerKind::RoundRobin;
    config.quantum = 1000;
    InMemoryTrace trace;
    ExecutionEngine engine(config, &trace);
    int live = 0;
    int constructed = 0;
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < 4; ++t) {
        workers.push_back([&live, &constructed, t](ThreadCtx &ctx) {
            Sentinel sentinel(live);
            ++constructed;
            const Addr a = ctx.vmalloc(8);
            for (int i = 0; i < 10; ++i)
                ctx.store(a, i);
            if (t == 0)
                PERSIM_FATAL("worker 0 gave up");
        });
    }
    EXPECT_THROW(engine.run(workers), FatalError);
    EXPECT_EQ(constructed, 1);
    EXPECT_EQ(live, 0);
    for (const TraceEvent &event : trace.events())
        EXPECT_EQ(event.thread, 0u) << formatEvent(event);
}

/** Hash of a seeded four-worker run (FNV-1a over thread and value);
    @p os_thread_stable is cleared if a worker ever observes an OS
    thread other than run()'s caller. */
std::uint64_t
seededRunHash(std::uint64_t seed, bool &os_thread_stable)
{
    EngineConfig config;
    config.seed = seed;
    config.quantum = 2;
    InMemoryTrace trace;
    ExecutionEngine engine(config, &trace);
    Addr cell = 0;
    engine.runSetup([&cell](ThreadCtx &ctx) { cell = ctx.pmalloc(8); });
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < 4; ++t) {
        workers.push_back([&, t](ThreadCtx &ctx) {
            for (int i = 0; i < 40; ++i) {
                ctx.rmwFetchAdd(cell, static_cast<std::uint64_t>(t + 1));
                if (std::this_thread::get_id() != caller)
                    os_thread_stable = false;
            }
        });
    }
    engine.run(workers);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const TraceEvent &event : trace.events()) {
        hash = (hash ^ event.thread) * 0x100000001b3ULL;
        hash = (hash ^ event.value) * 0x100000001b3ULL;
    }
    return hash;
}

TEST(Engine, ConcurrentEnginesMatchSerialRuns)
{
    constexpr std::size_t engines = 8;
    std::vector<std::uint64_t> serial(engines);
    bool stable = true;
    for (std::size_t i = 0; i < engines; ++i)
        serial[i] = seededRunHash(100 + i, stable);

    std::vector<std::uint64_t> pooled(engines);
    std::vector<char> pooled_stable(engines, 1);
    TaskPool pool(4);
    pool.parallelFor(engines, [&](std::size_t i) {
        bool ok = true;
        pooled[i] = seededRunHash(100 + i, ok);
        pooled_stable[i] = ok;
    });
    EXPECT_EQ(pooled, serial);
    EXPECT_TRUE(stable);
    for (std::size_t i = 0; i < engines; ++i)
        EXPECT_TRUE(pooled_stable[i]) << "engine " << i << " migrated";
}

TEST(Engine, HandoffsCountThreadChangesUnderRoundRobin)
{
    for (std::uint64_t quantum : {1u, 3u}) {
        EngineConfig config;
        config.scheduler = SchedulerKind::RoundRobin;
        config.quantum = quantum;
        InMemoryTrace trace;
        ExecutionEngine engine(config, &trace);
        Addr base = 0;
        engine.runSetup([&base](ThreadCtx &ctx) {
            base = ctx.pmalloc(64);
        });
        const std::uint64_t setup_events = engine.eventCount();
        // Only traced operations: every schedule point emits an event,
        // so each handoff shows as a thread change in the trace.
        std::vector<ExecutionEngine::WorkerFn> workers;
        for (int t = 0; t < 3; ++t) {
            workers.push_back([base, t](ThreadCtx &ctx) {
                for (int i = 0; i < 10 + 7 * t; ++i) {
                    ctx.store(base + 8 * t, i);
                    ctx.load(base);
                }
            });
        }
        engine.run(workers);
        std::uint64_t changes = 0;
        const auto &events = trace.events();
        for (std::size_t i = setup_events + 1; i < events.size(); ++i)
            changes += events[i].thread != events[i - 1].thread;
        EXPECT_GT(changes, 0u);
        EXPECT_EQ(engine.counters().handoffs, changes)
            << "quantum " << quantum;
        EXPECT_EQ(engine.counters().store_buffer_drains, 0u);
    }
}

TEST(Engine, CountersOfOneWorkerAndTsoRuns)
{
    EngineConfig config;
    config.consistency = ConsistencyModel::TSO;
    InMemoryTrace trace;
    ExecutionEngine engine(config, &trace);
    Addr base = 0;
    engine.runSetup([&base](ThreadCtx &ctx) {
        base = ctx.pmalloc(64);
        ctx.store(base, 1);
    });
    engine.run({[base](ThreadCtx &ctx) {
        for (int i = 0; i < 20; ++i)
            ctx.store(base + 8 * (i % 4), i);
        ctx.fence();
    }});
    // A one-worker run never switches; every TSO store reaches the
    // trace through exactly one drain.
    EXPECT_EQ(engine.counters().handoffs, 0u);
    std::uint64_t stores = 0;
    for (const TraceEvent &event : trace.events())
        stores += event.kind == EventKind::Store;
    EXPECT_EQ(stores, 21u);
    EXPECT_EQ(engine.counters().store_buffer_drains, stores);
}

TEST(Engine, RunTwiceIsFatal)
{
    EngineConfig config;
    ExecutionEngine engine(config, nullptr);
    engine.run({[](ThreadCtx &) {}});
    EXPECT_THROW(engine.run({[](ThreadCtx &) {}}), FatalError);
}

TEST(Engine, DebugLoadSeesFinalState)
{
    EngineConfig config;
    ExecutionEngine engine(config, nullptr);
    Addr a = 0;
    engine.runSetup([&a](ThreadCtx &ctx) {
        a = ctx.pmalloc(8);
    });
    engine.run({[a](ThreadCtx &ctx) {
        ctx.store(a, 4242);
    }});
    EXPECT_EQ(engine.debugLoad(a), 4242u);
    std::uint8_t bytes[2];
    engine.debugReadBytes(bytes, a, 2);
    EXPECT_EQ(bytes[0], 4242 & 0xff);
}

TEST(Engine, RoundRobinSchedulerWorks)
{
    EngineConfig config;
    config.scheduler = SchedulerKind::RoundRobin;
    config.quantum = 1;
    InMemoryTrace trace;
    ExecutionEngine engine(config, &trace);
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < 2; ++t) {
        workers.push_back([](ThreadCtx &ctx) {
            const Addr a = ctx.vmalloc(8);
            for (int i = 0; i < 10; ++i)
                ctx.store(a, i);
        });
    }
    engine.run(workers);
    // With quantum 1 and round-robin, thread ids should alternate for
    // the bulk of the trace.
    int alternations = 0;
    for (std::size_t i = 1; i < trace.size(); ++i)
        alternations += trace.events()[i].thread !=
            trace.events()[i - 1].thread;
    EXPECT_GT(alternations, static_cast<int>(trace.size() / 2));
}

} // namespace
} // namespace persim
