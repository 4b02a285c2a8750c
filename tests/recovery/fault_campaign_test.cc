/**
 * @file
 * Device-fault campaign tests: parallel fan-out equals the serial
 * baseline, every recorded violation replays to the same verdict from
 * its repro line, tearing distinguishes correctly-annotated
 * durability protocols from their barrier-elision mutants, and the
 * persist-log length the degenerate-trace check reads does not depend
 * on the stochastic seed.
 */

#include <gtest/gtest.h>

#include <mutex>
#include <vector>

#include "bench_util/queue_workload.hh"
#include "explore/programs.hh"
#include "pstruct/log.hh"
#include "queue/queue.hh"
#include "recovery/fault_campaign.hh"
#include "sim/engine.hh"
#include "tests/support/trace_builder.hh"

namespace persim {
namespace {

using test::paddr;
using test::TraceBuilder;

/** A small CWL-queue workload trace plus its recovery pieces. */
struct QueueFixture
{
    InMemoryTrace trace;
    QueueLayout layout;
    std::map<std::uint64_t, GoldenEntry> golden;
};

QueueFixture
buildQueue(bool checksummed_head)
{
    QueueWorkloadConfig config;
    config.kind = QueueKind::CopyWhileLocked;
    config.variant = AnnotationVariant::Conservative;
    config.threads = 2;
    config.inserts_per_thread = 10;
    config.entry_bytes = 24;
    config.seed = 21;
    config.wrap_slots = 0;
    config.checksummed_head = checksummed_head;

    QueueFixture fixture;
    const auto result = runQueueWorkload(config, {&fixture.trace});
    fixture.layout = result.layout;
    fixture.golden = result.golden;
    return fixture;
}

/** A log workload trace plus its recovery invariant inputs. */
struct LogFixture
{
    InMemoryTrace trace;
    LogLayout layout;
    std::vector<GoldenLogRecord> golden;
};

LogFixture
buildLog(bool omit_order_annotations)
{
    LogOptions options;
    options.capacity = 1 << 14;
    options.use_strands = true;
    options.omit_order_annotations = omit_order_annotations;

    LogFixture fixture;
    EngineConfig engine_config;
    engine_config.seed = 13;
    engine_config.quantum = 4;
    ExecutionEngine engine(engine_config, &fixture.trace);
    auto log = std::make_shared<PersistentLog>();
    engine.runSetup([&](ThreadCtx &ctx) {
        *log = PersistentLog::create(ctx, options, 2);
    });
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < 2; ++t) {
        workers.push_back([log, t](ThreadCtx &ctx) {
            for (std::uint64_t i = 0; i < 10; ++i) {
                std::uint8_t payload[20];
                for (unsigned b = 0; b < sizeof(payload); ++b)
                    payload[b] = static_cast<std::uint8_t>(
                        t * 100 + i * 7 + b);
                log->append(ctx, t, payload, sizeof(payload));
            }
        });
    }
    engine.run(workers);
    fixture.layout = log->layout();
    fixture.golden = log->goldenRecords();
    return fixture;
}

void
expectSameResults(const InjectionResult &a, const InjectionResult &b)
{
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.first_violation, b.first_violation);
    EXPECT_EQ(a.first_violation_time, b.first_violation_time);
    ASSERT_EQ(a.violation_list.size(), b.violation_list.size());
    for (std::size_t i = 0; i < a.violation_list.size(); ++i) {
        const ViolationRecord &va = a.violation_list[i];
        const ViolationRecord &vb = b.violation_list[i];
        EXPECT_EQ(va.realization, vb.realization);
        EXPECT_EQ(va.realization_seed, vb.realization_seed);
        EXPECT_EQ(va.crash_time, vb.crash_time);
        EXPECT_EQ(va.fault_seed, vb.fault_seed);
        EXPECT_EQ(va.verdict, vb.verdict);
        EXPECT_EQ(va.fault_summary, vb.fault_summary);
    }
}

TEST(FaultCampaign, ParallelEqualsSerial)
{
    // Full fault mix on a mutant surface (so violations are recorded)
    // at jobs=1 vs jobs=4: bit-identical InjectionResults.
    const LogFixture fixture = buildLog(true);
    FaultCampaignConfig campaign;
    campaign.injection.model = ModelConfig::strand();
    campaign.injection.realizations = 8;
    campaign.injection.crashes_per_realization = 16;
    campaign.injection.seed = 9;
    campaign.faults.tear_persists = true;
    campaign.faults.atomic_write_unit = 4;
    campaign.faults.media_error_per_write = 1e-4;
    campaign.faults.drop_drain_p = 0.25;
    campaign.faults.drain_latency = 0.5;

    const auto invariant =
        makeLogRecoveryInvariant(fixture.layout, fixture.golden);
    campaign.injection.jobs = 1;
    const InjectionResult serial =
        runFaultCampaign(fixture.trace, campaign, invariant);
    campaign.injection.jobs = 4;
    const InjectionResult parallel =
        runFaultCampaign(fixture.trace, campaign, invariant);
    expectSameResults(serial, parallel);
    EXPECT_GT(serial.violations, 0u);
}

TEST(FaultCampaign, EveryRecordedViolationReplaysFromItsRepro)
{
    const LogFixture fixture = buildLog(true);
    FaultCampaignConfig campaign;
    campaign.injection.model = ModelConfig::strand();
    campaign.injection.realizations = 4;
    campaign.injection.crashes_per_realization = 16;
    campaign.injection.seed = 3;
    campaign.injection.max_recorded_violations = 8;
    campaign.faults.tear_persists = true;
    campaign.faults.atomic_write_unit = 4;

    const auto invariant =
        makeLogRecoveryInvariant(fixture.layout, fixture.golden);
    const InjectionResult result =
        runFaultCampaign(fixture.trace, campaign, invariant);
    ASSERT_GT(result.violation_list.size(), 0u);

    for (const ViolationRecord &violation : result.violation_list) {
        const std::string line = violationRepro(violation);
        FaultRepro repro;
        ASSERT_TRUE(parseFaultRepro(line, repro)) << line;
        EXPECT_EQ(repro.realization_seed, violation.realization_seed);
        EXPECT_EQ(repro.crash_time, violation.crash_time);
        EXPECT_EQ(repro.fault_seed, violation.fault_seed);

        FaultOutcome outcome;
        const std::string verdict = replayFaultRepro(
            fixture.trace, campaign, repro, invariant, &outcome);
        EXPECT_EQ(verdict, violation.verdict) << line;
        if (!violation.fault_summary.empty()) {
            EXPECT_EQ(outcome.summary(), violation.fault_summary);
        }
    }
}

TEST(FaultCampaign, TearingIsAbsorbedByTheChecksummedLog)
{
    // The acceptance scenario: with tearing enabled, the correctly
    // annotated log recovers cleanly from every crash state (a torn
    // tail record fails its checksum and truncates away), while the
    // barrier-elision mutant is caught (a later record persists over
    // a torn predecessor — a durable hole).
    FaultCampaignConfig campaign;
    campaign.injection.model = ModelConfig::strand();
    campaign.injection.realizations = 6;
    campaign.injection.crashes_per_realization = 32;
    campaign.injection.seed = 7;
    campaign.faults.tear_persists = true;
    campaign.faults.atomic_write_unit = 4;

    const LogFixture correct = buildLog(false);
    const InjectionResult clean = runFaultCampaign(
        correct.trace, campaign,
        makeLogRecoveryInvariant(correct.layout, correct.golden));
    EXPECT_TRUE(clean.ok()) << clean.first_violation;
    EXPECT_GT(clean.samples, 100u);

    const LogFixture mutant = buildLog(true);
    const InjectionResult caught = runFaultCampaign(
        mutant.trace, campaign,
        makeLogRecoveryInvariant(mutant.layout, mutant.golden));
    EXPECT_GT(caught.violations, 0u)
        << "inter-record ordering should be load-bearing under tearing";
}

TEST(FaultCampaign, TearingIsAbsorbedByDetectAndDiscardRecovery)
{
    // Same story for the queue: with a checksummed head and
    // detect-and-discard recovery, a torn head or torn uncommitted
    // tail entry degrades gracefully. Committed entries cannot tear
    // (their data strictly precedes the covering head persist), so
    // the campaign stays clean.
    const QueueFixture fixture = buildQueue(true);
    FaultCampaignConfig campaign;
    campaign.injection.model = ModelConfig::epoch();
    campaign.injection.realizations = 6;
    campaign.injection.crashes_per_realization = 32;
    campaign.injection.seed = 19;
    campaign.faults.tear_persists = true;
    campaign.faults.atomic_write_unit = 4;

    const InjectionResult result = runFaultCampaign(
        fixture.trace, campaign,
        makeDetectAndDiscardInvariant(fixture.layout, fixture.golden));
    EXPECT_TRUE(result.ok()) << result.first_violation;
    EXPECT_GT(result.samples, 100u);
}

TEST(FaultCampaign, DroppedDrainsViolateEvenCorrectProtocols)
{
    // Dropped drain-buffer writes defeat pointer-publish ordering:
    // data acknowledged as durable vanishes, so even the hardened
    // queue reports discarded committed entries.
    const QueueFixture fixture = buildQueue(true);
    FaultCampaignConfig campaign;
    campaign.injection.model = ModelConfig::epoch();
    campaign.injection.realizations = 8;
    campaign.injection.crashes_per_realization = 32;
    campaign.injection.seed = 23;
    campaign.faults.drop_drain_p = 0.5;
    campaign.faults.drain_latency = 0.5;

    const InjectionResult result = runFaultCampaign(
        fixture.trace, campaign,
        makeDetectAndDiscardInvariant(fixture.layout, fixture.golden));
    EXPECT_GT(result.violations, 0u);
    ASSERT_GT(result.violation_list.size(), 0u);
    // The recorded violation names the injected faults.
    EXPECT_FALSE(result.violation_list[0].fault_summary.empty());
    EXPECT_NE(result.violation_list[0].fault_summary.find("dropped"),
              std::string::npos);
}

TEST(FaultCampaign, ReproParsingIgnoresLeadingTextAndRejectsGarbage)
{
    FaultRepro repro;
    repro.realization_seed = 0xdeadbeefcafeull;
    repro.crash_time = 1.0 / 3.0;
    repro.fault_seed = 0x1234ull;
    const std::string line =
        "cwl-queue/torn repro " + formatFaultRepro(repro) +
        " # some verdict text";
    FaultRepro parsed;
    ASSERT_TRUE(parseFaultRepro(line, parsed));
    EXPECT_EQ(parsed.realization_seed, repro.realization_seed);
    EXPECT_EQ(parsed.crash_time, repro.crash_time); // Exact: hexfloat.
    EXPECT_EQ(parsed.fault_seed, repro.fault_seed);

    EXPECT_FALSE(parseFaultRepro("no repro here", parsed));
    EXPECT_FALSE(parseFaultRepro("seed=0x12 crash=zzz", parsed));
}

TEST(FaultCampaign, PersistLogLengthDoesNotDependOnTheSeed)
{
    // runFaultCampaign decides whether a trace is degenerate (at most
    // one persist) from its first realization's log, not from a
    // separate replay under the campaign seed. That is sound only if
    // the stochastic clock moves persist times, never the number of
    // persists: pin it on the differential fuzzer's random programs,
    // under SC and TSO, for every model.
    const ModelConfig sc_models[] = {
        ModelConfig::strict(), ModelConfig::epoch(),
        ModelConfig::strand(), ModelConfig::bpfs()};
    std::uint64_t persists = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE("program seed " + std::to_string(seed));
        RandomProgramOptions options;
        options.threads = 2 + static_cast<std::uint32_t>(seed % 2);
        // x86 programs carry no NewStrand; they run under px86 too.
        const bool x86 = seed % 2 == 0;
        options.allow_strands = !x86;
        options.allow_flushes = x86;
        ExploreProgram program = randomProgram(seed, options)();
        EngineConfig engine_config = program.engine;
        engine_config.seed = seed;
        if (seed % 4 < 2)
            engine_config.consistency = ConsistencyModel::TSO;
        InMemoryTrace trace;
        ExecutionEngine sim(engine_config, &trace);
        sim.runSetup(program.setup);
        sim.run(program.workers);

        std::vector<ModelConfig> models(std::begin(sc_models),
                                        std::end(sc_models));
        if (x86)
            models.push_back(ModelConfig::px86());
        for (const ModelConfig &model : models) {
            const std::size_t want = stochasticLog(trace, model, 1).size();
            persists += want;
            for (const std::uint64_t stochastic_seed : {2, 9, 77, 1234})
                EXPECT_EQ(stochasticLog(trace, model, stochastic_seed)
                              .size(),
                          want)
                    << model.name() << " stochastic seed "
                    << stochastic_seed;
        }
    }
    EXPECT_GT(persists, 40u * 5u); // The programs do persist.
}

} // namespace
} // namespace persim
