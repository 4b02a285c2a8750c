/**
 * @file
 * Recovery observer tests: image reconstruction, log consistency,
 * and failure injection — including the headline result that the
 * queues' annotations are sufficient for recovery under each model,
 * and that removing a required barrier is detectably unsafe.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "bench_util/queue_workload.hh"
#include "queue/payload.hh"
#include "queue/queue.hh"
#include "recovery/fault_campaign.hh"
#include "recovery/recovery.hh"
#include "tests/support/trace_builder.hh"

namespace persim {
namespace {

using test::paddr;
using test::TraceBuilder;

TEST(Reconstruct, AppliesOnlyPersistsUpToCrashTime)
{
    TraceBuilder builder;
    builder.store(0, paddr(0), 11)
           .barrier(0)
           .store(0, paddr(1), 22)
           .barrier(0)
           .store(0, paddr(2), 33);
    const auto log = builder.analyzeLog(ModelConfig::epoch());
    ASSERT_EQ(log.size(), 3u);

    const auto none = reconstructImage(log, 0.5);
    EXPECT_EQ(none.load(paddr(0), 8), 0u);

    const auto one = reconstructImage(log, 1.0);
    EXPECT_EQ(one.load(paddr(0), 8), 11u);
    EXPECT_EQ(one.load(paddr(1), 8), 0u);

    const auto two = reconstructImage(log, 2.0);
    EXPECT_EQ(two.load(paddr(1), 8), 22u);
    EXPECT_EQ(two.load(paddr(2), 8), 0u);

    const auto all = reconstructImage(log, 100.0);
    EXPECT_EQ(all.load(paddr(2), 8), 33u);
}

TEST(Reconstruct, SameAddressLastValueWins)
{
    TraceBuilder builder;
    builder.store(0, paddr(0), 1).store(0, paddr(0), 2);
    const auto log = builder.analyzeLog(ModelConfig::epoch());
    // Both coalesce at the same time; trace order breaks the tie.
    const auto image = reconstructImage(log, 1.0);
    EXPECT_EQ(image.load(paddr(0), 8), 2u);
}

TEST(Reconstruct, SubWordPersistsApplyPartially)
{
    // Pin the second half-word behind a foreign persist so the two
    // halves cannot coalesce; a crash after level 1 shows a torn
    // (but model-legal) half-written word.
    TraceBuilder builder;
    builder.store(0, paddr(0), 0x11223344, 4)
           .barrier(0)
           .store(0, paddr(9), 1)
           .barrier(0)
           .store(0, paddr(0) + 4, 0x55667788, 4);
    const auto log = builder.analyzeLog(ModelConfig::epoch());
    const auto image = reconstructImage(log, 1.0);
    EXPECT_EQ(image.load(paddr(0), 8), 0x11223344ull);
    const auto full = reconstructImage(log, 3.0);
    EXPECT_EQ(full.load(paddr(0), 8), 0x5566778811223344ull);
}

TEST(Reconstruct, CrashExactlyAtCompletionTimeIsInclusive)
{
    // The observer's cut is "time <= T": a crash at exactly a
    // persist's completion time includes it.
    TraceBuilder builder;
    builder.store(0, paddr(0), 4).barrier(0).store(0, paddr(1), 6);
    const auto log = builder.analyzeLog(ModelConfig::epoch());
    ASSERT_EQ(log.size(), 2u);

    const auto at_first = reconstructImage(log, log[0].time);
    EXPECT_EQ(at_first.load(paddr(0), 8), 4u);
    EXPECT_EQ(at_first.load(paddr(1), 8), 0u);

    const auto at_second = reconstructImage(log, log[1].time);
    EXPECT_EQ(at_second.load(paddr(1), 8), 6u);
}

TEST(Reconstruct, BoundarySamplesAreNothingAndEverything)
{
    // The crash times a campaign always includes: before the
    // first persist (empty image) and after the last (full image).
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)
           .barrier(0)
           .store(0, paddr(1), 2)
           .barrier(0)
           .store(0, paddr(2), 3);
    const auto log = builder.analyzeLog(ModelConfig::epoch());
    double last = 0.0;
    for (const auto &record : log)
        last = std::max(last, record.time);

    const auto nothing = reconstructImage(log, -1.0);
    for (std::uint64_t slot = 0; slot < 3; ++slot)
        EXPECT_EQ(nothing.load(paddr(slot), 8), 0u);

    const auto everything = reconstructImage(log, last + 1.0);
    EXPECT_EQ(everything.load(paddr(0), 8), 1u);
    EXPECT_EQ(everything.load(paddr(1), 8), 2u);
    EXPECT_EQ(everything.load(paddr(2), 8), 3u);
}

TEST(Reconstruct, CoalescedGroupTieBreaksInTraceOrder)
{
    // Same-address persists that coalesce share one completion time;
    // trace order must decide which value survives, and crashing at
    // that shared time applies the whole group.
    TraceBuilder builder;
    builder.store(0, paddr(0), 10)
           .store(0, paddr(0), 20)
           .store(0, paddr(0), 30);
    const auto log = builder.analyzeLog(ModelConfig::epoch());
    ASSERT_EQ(log.size(), 3u);
    ASSERT_EQ(log[1].binding_source, DepSource::Coalesced);
    ASSERT_EQ(log[2].binding_source, DepSource::Coalesced);
    ASSERT_EQ(log[0].time, log[2].time);

    const auto image = reconstructImage(log, log[0].time);
    EXPECT_EQ(image.load(paddr(0), 8), 30u);
}

TEST(LogConsistency, DetectsTamperedTimes)
{
    TraceBuilder builder;
    builder.store(0, paddr(0)).barrier(0).store(0, paddr(1));
    auto log = builder.analyzeLog(ModelConfig::epoch());
    EXPECT_EQ(verifyLogConsistency(log), "");

    auto broken = log;
    broken[1].time = 0.5; // Before its binding.
    EXPECT_NE(verifyLogConsistency(broken), "");

    auto misid = log;
    misid[1].id = 7;
    EXPECT_NE(verifyLogConsistency(misid), "");
}

TEST(LogConsistency, DetectsSpaViolation)
{
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)
           .barrier(0)
           .store(0, paddr(5), 2)
           .barrier(0)
           .store(0, paddr(0), 3);
    auto log = builder.analyzeLog(ModelConfig::epoch());
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(verifyLogConsistency(log), "");
    log[2].time = 0.25; // Same word as record 0, earlier time.
    log[2].binding = invalid_persist;
    EXPECT_NE(verifyLogConsistency(log), "");
}

TEST(LogConsistency, DetectsSameAddressTimeRegression)
{
    // Two persists to the same word with the later one rewound to an
    // earlier time: a strong-persist-atomicity violation even though
    // every binding constraint still holds.
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)
           .barrier(0)
           .store(0, paddr(1), 2)
           .barrier(0)
           .store(0, paddr(0), 3);
    auto log = builder.analyzeLog(ModelConfig::epoch());
    ASSERT_EQ(log.size(), 3u);
    ASSERT_EQ(verifyLogConsistency(log), "");

    log[2].time = log[0].time - 0.5;
    log[2].binding = invalid_persist;
    log[2].binding_source = DepSource::None;
    log[2].start = 0.0;
    const auto verdict = verifyLogConsistency(log);
    EXPECT_NE(verdict.find("strong persist atomicity"),
              std::string::npos)
        << verdict;
}

TEST(LogConsistency, DetectsRecordEarlierThanItsBinding)
{
    TraceBuilder builder;
    builder.store(0, paddr(0), 1).barrier(0).store(0, paddr(1), 2);
    auto log = builder.analyzeLog(ModelConfig::epoch());
    ASSERT_EQ(log.size(), 2u);
    ASSERT_NE(log[1].binding, invalid_persist);

    // Record 1 claims to complete before the dependence that must
    // precede it.
    log[1].time = log[0].time / 2.0;
    log[1].start = log[1].time / 2.0;
    const auto verdict = verifyLogConsistency(log);
    EXPECT_NE(verdict.find("does not follow its binding"),
              std::string::npos)
        << verdict;
}

TEST(LogConsistency, ValidatesTheInFlightWindow)
{
    TraceBuilder builder;
    builder.store(0, paddr(0), 1).barrier(0).store(0, paddr(1), 2);
    auto log = builder.analyzeLog(ModelConfig::epoch());
    ASSERT_EQ(log.size(), 2u);
    ASSERT_EQ(verifyLogConsistency(log), "");

    // Inverted window: a persist cannot start after it completes.
    auto inverted = log;
    inverted[1].start = inverted[1].time + 1.0;
    EXPECT_NE(verifyLogConsistency(inverted).find("inverted"),
              std::string::npos);

    // Wrong anchor: a bound persist starts when its binding
    // completes, nowhere else.
    auto unanchored = log;
    unanchored[1].start = log[0].time / 2.0;
    EXPECT_NE(verifyLogConsistency(unanchored).find("anchors"),
              std::string::npos);

    // An unconstrained persist starts at time 0.
    auto eager = log;
    eager[0].start = 0.25;
    EXPECT_NE(verifyLogConsistency(eager).find("unconstrained"),
              std::string::npos);
}

TEST(Injection, OrderedChainNeverExposesSuffixWithoutPrefix)
{
    // Persist X then (barrier) persist Y: no crash state may contain
    // Y without X.
    TraceBuilder builder;
    builder.store(0, paddr(0), 7).barrier(0).store(0, paddr(1), 9);

    InjectionConfig config;
    config.model = ModelConfig::epoch();
    config.realizations = 8;
    config.crashes_per_realization = 32;
    const auto result = runFaultCampaign(
        builder.trace(), {.injection = config},
        [](const MemoryImage &image) {
            const bool x = image.load(paddr(0), 8) == 7;
            const bool y = image.load(paddr(1), 8) == 9;
            return (y && !x) ? std::string("Y persisted without X") :
                std::string();
        });
    EXPECT_TRUE(result.ok()) << result.first_violation;
    EXPECT_GT(result.samples, 200u);
}

TEST(Injection, UnorderedPairExposesBothOrders)
{
    // Without a barrier the two persists race: across enough
    // stochastic realizations both one-sided states appear.
    TraceBuilder builder;
    builder.store(0, paddr(0), 7).store(0, paddr(1), 9);

    InjectionConfig config;
    config.model = ModelConfig::epoch();
    config.realizations = 32;
    config.crashes_per_realization = 32;

    bool saw_x_only = false;
    bool saw_y_only = false;
    runFaultCampaign(builder.trace(), {.injection = config},
                     [&](const MemoryImage &image) {
                         const bool x = image.load(paddr(0), 8) == 7;
                         const bool y = image.load(paddr(1), 8) == 9;
                         saw_x_only |= (x && !y);
                         saw_y_only |= (y && !x);
                         return std::string();
                     });
    EXPECT_TRUE(saw_x_only);
    EXPECT_TRUE(saw_y_only);
}

struct QueueInjectionCase
{
    QueueKind kind;
    AnnotationVariant variant;
    ModelConfig model;
    const char *name;
};

// gtest prints a parameter into the ctest name; by default that is a
// byte dump of padding and the name pointer, which changes per run.
void
PrintTo(const QueueInjectionCase &c, std::ostream *os)
{
    *os << c.name;
}

class QueueInjection
    : public ::testing::TestWithParam<QueueInjectionCase>
{
};

TEST_P(QueueInjection, AnnotationsSufficeForRecovery)
{
    const auto &param = GetParam();
    QueueWorkloadConfig config;
    config.kind = param.kind;
    config.variant = param.variant;
    config.threads = 3;
    config.inserts_per_thread = 8;
    config.seed = 99;

    InMemoryTrace trace;
    std::vector<TraceSink *> sinks{&trace};
    const auto workload = runQueueWorkload(config, sinks);

    InjectionConfig injection;
    injection.model = param.model;
    injection.realizations = 6;
    injection.crashes_per_realization = 48;
    const auto result = runFaultCampaign(
        trace, {.injection = injection},
        makeRecoveryInvariant(workload.layout, workload.golden));
    EXPECT_TRUE(result.ok())
        << param.name << ": " << result.first_violation;
}

INSTANTIATE_TEST_SUITE_P(
    Models, QueueInjection,
    ::testing::Values(
        QueueInjectionCase{.kind = QueueKind::CopyWhileLocked,
                           .variant = AnnotationVariant::Conservative,
                           .model = ModelConfig::strict(),
                           .name = "cwl_strict"},
        QueueInjectionCase{.kind = QueueKind::CopyWhileLocked,
                           .variant = AnnotationVariant::Conservative,
                           .model = ModelConfig::epoch(),
                           .name = "cwl_epoch"},
        QueueInjectionCase{.kind = QueueKind::CopyWhileLocked,
                           .variant = AnnotationVariant::Racing,
                           .model = ModelConfig::epoch(),
                           .name = "cwl_racing"},
        QueueInjectionCase{.kind = QueueKind::CopyWhileLocked,
                           .variant = AnnotationVariant::Strand,
                           .model = ModelConfig::strand(),
                           .name = "cwl_strand"},
        QueueInjectionCase{.kind = QueueKind::TwoLockConcurrent,
                           .variant = AnnotationVariant::Racing,
                           .model = ModelConfig::epoch(),
                           .name = "tlc_epoch"},
        QueueInjectionCase{.kind = QueueKind::TwoLockConcurrent,
                           .variant = AnnotationVariant::Strand,
                           .model = ModelConfig::strand(),
                           .name = "tlc_strand"},
        QueueInjectionCase{.kind = QueueKind::TwoLockConcurrent,
                           .variant = AnnotationVariant::Racing,
                           .model = ModelConfig::strict(),
                           .name = "tlc_strict"}),
    [](const ::testing::TestParamInfo<QueueInjectionCase> &info) {
        return info.param.name;
    });

TEST(QueueInjectionNegative, RemovingDataHeadBarrierCorruptsRecovery)
{
    // Build the CWL workload without the required line-8 barrier and
    // analyze under epoch persistency: some crash state must expose a
    // head that covers unpersisted data.
    QueueOptions options;
    options.pad = 64;
    options.capacity = 64 * 128;
    options.conservative_barriers = false;
    options.omit_data_head_barrier = true;

    EngineConfig engine_config;
    engine_config.seed = 5;
    InMemoryTrace trace;
    ExecutionEngine engine(engine_config, &trace);
    std::unique_ptr<PersistentQueue> queue;
    engine.runSetup([&](ThreadCtx &ctx) {
        queue = CwlQueue::create(ctx, options, 1);
    });
    engine.run({[&queue](ThreadCtx &ctx) {
        for (std::uint64_t i = 1; i <= 20; ++i) {
            const auto payload = makePayload(i, 100);
            queue->insert(ctx, 0, payload.data(), payload.size(), i);
        }
    }});

    InjectionConfig injection;
    injection.model = ModelConfig::epoch();
    injection.realizations = 16;
    injection.crashes_per_realization = 64;
    const auto result = runFaultCampaign(
        trace, {.injection = injection},
        makeRecoveryInvariant(queue->layout(), queue->golden()));
    EXPECT_GT(result.violations, 0u)
        << "the line-8 barrier should be load-bearing";
}

TEST(QueueInjectionNegative, TlcWithoutPublishBarrierCorruptsRecovery)
{
    // The deviation documented in queue.hh: without the barrier
    // between COPY and publication, an entry committed by *another*
    // thread may have its head persist race ahead of its data.
    QueueOptions options;
    options.pad = 64;
    options.capacity = 64 * 256;
    options.conservative_barriers = false;
    options.barrier_before_publish = false;

    EngineConfig engine_config;
    engine_config.seed = 11;
    engine_config.quantum = 4;
    InMemoryTrace trace;
    ExecutionEngine engine(engine_config, &trace);
    std::unique_ptr<PersistentQueue> queue;
    engine.runSetup([&](ThreadCtx &ctx) {
        queue = TlcQueue::create(ctx, options, 4);
    });
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < 4; ++t) {
        workers.push_back([&queue, t](ThreadCtx &ctx) {
            for (std::uint64_t i = 1; i <= 12; ++i) {
                const std::uint64_t op = t * 100 + i;
                const auto payload = makePayload(op, 100);
                queue->insert(ctx, t, payload.data(), payload.size(), op);
            }
        });
    }
    engine.run(workers);

    InjectionConfig injection;
    injection.model = ModelConfig::epoch();
    injection.realizations = 24;
    injection.crashes_per_realization = 64;
    const auto result = runFaultCampaign(
        trace, {.injection = injection},
        makeRecoveryInvariant(queue->layout(), queue->golden()));
    EXPECT_GT(result.violations, 0u)
        << "publication without a barrier should be unsafe";
}

// ---------------------------------------------------------------------
// Fault-free campaigns over degenerate traces
// ---------------------------------------------------------------------

TEST(InjectDegenerate, EmptyTraceChecksTheEmptyImageOnce)
{
    TraceBuilder builder; // No events at all.
    InjectionConfig config;
    config.model = ModelConfig::epoch();

    std::uint64_t calls = 0;
    const auto result = runFaultCampaign(
        builder.trace(), {.injection = config},
        [&](const MemoryImage &image) {
            ++calls;
            EXPECT_EQ(image.load(paddr(0), 8), 0u);
            return std::string();
        });
    EXPECT_EQ(result.samples, 1u);
    EXPECT_EQ(calls, 1u);
    EXPECT_TRUE(result.ok());
}

TEST(InjectDegenerate, ZeroPersistTraceChecksTheEmptyImageOnce)
{
    TraceBuilder builder;
    builder.load(0, paddr(0)).load(1, test::vaddr(0)).barrier(0);
    InjectionConfig config;
    config.model = ModelConfig::epoch();

    const auto result = runFaultCampaign(
        builder.trace(), {.injection = config},
        [](const MemoryImage &image) {
            return image.load(paddr(0), 8) == 0
                       ? std::string()
                       : std::string("phantom persist");
        });
    EXPECT_EQ(result.samples, 1u);
    EXPECT_TRUE(result.ok());
}

TEST(InjectDegenerate, SinglePersistChecksBothCrashStates)
{
    TraceBuilder builder;
    builder.store(0, paddr(0), 5);
    InjectionConfig config;
    config.model = ModelConfig::epoch();

    bool saw_empty = false;
    bool saw_persisted = false;
    const auto result = runFaultCampaign(
        builder.trace(), {.injection = config},
        [&](const MemoryImage &image) {
            const std::uint64_t value = image.load(paddr(0), 8);
            saw_empty |= value == 0;
            saw_persisted |= value == 5;
            return std::string();
        });
    EXPECT_EQ(result.samples, 2u);
    EXPECT_TRUE(saw_empty);
    EXPECT_TRUE(saw_persisted);
    EXPECT_TRUE(result.ok());
}

TEST(InjectDegenerate, SinglePersistViolationIsReported)
{
    TraceBuilder builder;
    builder.store(0, paddr(0), 5);
    InjectionConfig config;
    config.model = ModelConfig::epoch();

    const auto result = runFaultCampaign(
        builder.trace(), {.injection = config},
        [](const MemoryImage &image) {
            return image.load(paddr(0), 8) == 5
                       ? std::string("torn value")
                       : std::string();
        });
    EXPECT_EQ(result.violations, 1u);
    EXPECT_NE(result.first_violation.find("degenerate log"),
              std::string::npos);
    EXPECT_NE(result.first_violation.find("torn value"),
              std::string::npos);
}

} // namespace
} // namespace persim
