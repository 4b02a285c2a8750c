/**
 * @file
 * Device-fault injection campaign: violation rates per persistency
 * model x fault mix (src/nvram/faults.hh, src/recovery/
 * fault_campaign.hh).
 *
 * The paper's recovery observer assumes a perfect device; this bench
 * measures what each durability protocol loses when the device
 * misbehaves. Surfaces:
 *
 *  - cwl-queue: Copy-While-Locked queue with a checksummed head and
 *    detect-and-discard recovery (graceful degradation);
 *  - queue-nobar: the same queue with the required data-before-head
 *    barrier elided (the campaign must catch it);
 *  - log: the checksummed append-only log with correct ordering
 *    annotations (torn tail records degrade gracefully);
 *  - log-unordered: the log's barrier-elision mutant (torn persists
 *    expose durable holes);
 *  - kv-inplace / kv-cow / kv-log: the persistent KV store under each
 *    update strategy with Repair-tier recovery (src/kvstore/) — the
 *    quarantined/repaired columns show the graceful-degradation
 *    machinery absorbing the faults instead of violating;
 *  - kv-nobar: the KV store's publish-barrier-elision mutant under
 *    Strict recovery (the campaign must catch it);
 *  - kv-txn-{inplace,cow,log}: the cross-shard router running a
 *    transaction-heavy workload, recovered with the fourth-tier
 *    TxnResolve ladder (commit records roll forward, in-doubt
 *    transactions roll back, uncommitted partials are scrubbed);
 *  - kv-migrate-{inplace,cow,log}: the same router with periodic
 *    partition rebalancing — crash-consistent migration must recover
 *    to exactly one owner under every mix;
 *  - kv-txn-nobar: the commit-barrier-elision mutant under the
 *    Repair-tier invariant (no scrub), where partially visible
 *    uncommitted transactions surface as violations.
 *
 * Every violation prints a one-line repro; re-run with
 * --replay="<line>" to re-evaluate exactly that crash state.
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "bench_util/kv_workload.hh"
#include "bench_util/table.hh"
#include "kvstore/recovery.hh"
#include "kvstore/router.hh"
#include "pstruct/log.hh"
#include "queue/payload.hh"
#include "recovery/fault_campaign.hh"

using namespace persim;
using namespace persim::bench;

namespace {

/** One trace + recovery invariant the campaign sweeps. */
struct Surface
{
    std::string name;
    ModelConfig model;
    InMemoryTrace trace;
    RecoveryInvariant invariant;

    /** Recovery-ladder accounting (KV surfaces only). */
    std::shared_ptr<KvInvariantStats> stats;

    /** Group-level accounting (router surfaces only). */
    std::shared_ptr<KvRouterInvariantStats> router_stats;
};

std::vector<std::uint8_t>
logBytes(std::uint64_t id, std::uint64_t len)
{
    std::vector<std::uint8_t> out(len);
    for (std::uint64_t i = 0; i < len; ++i)
        out[i] = static_cast<std::uint8_t>(id * 131 + i);
    return out;
}

Surface
queueSurface(const std::string &name, bool omit_data_head_barrier)
{
    QueueWorkloadConfig config;
    config.kind = QueueKind::CopyWhileLocked;
    config.variant = AnnotationVariant::Conservative;
    config.threads = 2;
    config.inserts_per_thread = 24;
    config.entry_bytes = 24;
    config.seed = 3;
    config.wrap_slots = 0; // Frontier scans need a non-wrapping run.
    config.checksummed_head = true;

    Surface surface;
    surface.name = name;
    surface.model = ModelConfig::epoch();
    if (!omit_data_head_barrier) {
        const auto result = runQueueWorkload(config, {&surface.trace});
        surface.invariant =
            makeDetectAndDiscardInvariant(result.layout, result.golden);
        return surface;
    }

    // The workload driver has no mutant knob; run the queue directly.
    EngineConfig engine_config;
    engine_config.seed = config.seed;
    engine_config.quantum = config.quantum;
    ExecutionEngine engine(engine_config, &surface.trace);
    QueueOptions options = config.queueOptions();
    options.omit_data_head_barrier = true;
    std::unique_ptr<PersistentQueue> queue;
    engine.runSetup([&](ThreadCtx &ctx) {
        queue = createQueue(ctx, config.kind, options, config.threads);
    });
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (std::uint32_t t = 0; t < config.threads; ++t) {
        workers.push_back([&queue, t, &config](ThreadCtx &ctx) {
            for (std::uint64_t i = 0; i < config.inserts_per_thread;
                 ++i) {
                const std::uint64_t op_id =
                    static_cast<std::uint64_t>(t) *
                        config.inserts_per_thread + i + 1;
                const auto payload =
                    makePayload(op_id, config.entry_bytes);
                queue->insert(ctx, t, payload.data(),
                              config.entry_bytes, op_id);
            }
        });
    }
    engine.run(workers);
    surface.invariant =
        makeDetectAndDiscardInvariant(queue->layout(), queue->golden());
    return surface;
}

Surface
logSurface(const std::string &name, bool omit_order_annotations)
{
    LogOptions options;
    options.capacity = 1 << 16;
    options.use_strands = true;
    options.omit_order_annotations = omit_order_annotations;

    Surface surface;
    surface.name = name;
    surface.model = ModelConfig::strand();

    EngineConfig engine_config;
    engine_config.seed = 11;
    engine_config.quantum = 4;
    ExecutionEngine engine(engine_config, &surface.trace);
    auto log = std::make_shared<PersistentLog>();
    engine.runSetup([&](ThreadCtx &ctx) {
        *log = PersistentLog::create(ctx, options, 2);
    });
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < 2; ++t) {
        workers.push_back([log, t](ThreadCtx &ctx) {
            for (std::uint64_t i = 1; i <= 16; ++i) {
                const auto payload = logBytes(t * 100 + i, 20);
                log->append(ctx, t, payload.data(), payload.size());
            }
        });
    }
    engine.run(workers);
    surface.invariant =
        makeLogRecoveryInvariant(log->layout(), log->goldenRecords());
    return surface;
}

Surface
kvSurface(const std::string &name, KvUpdateStrategy strategy,
          bool omit_publish_barrier)
{
    KvWorkloadConfig config;
    config.store.buckets = 128;
    config.store.heap_bytes = 1 << 15;
    config.store.log_capacity = 1 << 17;
    config.store.strategy = strategy;
    config.store.omit_publish_barrier = omit_publish_barrier;
    config.store.use_strands = !omit_publish_barrier;
    config.threads = 2;
    config.ops_per_thread = 48;
    config.key_space = 32;
    config.put_ratio = 0.6;
    config.get_ratio = 0.2;
    config.seed = 27;

    Surface surface;
    surface.name = name;
    surface.model = ModelConfig::epoch();
    surface.stats = std::make_shared<KvInvariantStats>();

    // runKvWorkload owns its engine; move the trace out afterwards.
    KvWorkloadResult result = runKvWorkload(config);
    surface.trace = std::move(result.trace);

    KvRecoveryOptions options;
    if (omit_publish_barrier) {
        // The mutant runs under Strict so the campaign reports its
        // mid-publish crash states as violations.
        options.mode = KvRecoveryMode::Strict;
    } else {
        options.mode = KvRecoveryMode::Repair;
        options.journal = result.journal;
    }
    surface.invariant = makeKvRecoveryInvariant(
        result.layout, result.golden, options, surface.stats);
    return surface;
}

Surface
routerSurface(const std::string &name, KvUpdateStrategy strategy,
              bool migrate, bool mutant)
{
    KvRouterWorkloadConfig config;
    config.router.shards = 2;
    config.router.partitions = 8;
    config.router.max_txns = 512;
    config.router.group_log_capacity = 1 << 16;
    config.router.store.buckets = 128;
    config.router.store.heap_bytes = 1 << 15;
    config.router.store.max_value_bytes = 64;
    config.router.store.log_capacity = 1 << 17;
    config.router.store.strategy = strategy;
    config.router.omit_commit_barrier = mutant;
    config.router.store.omit_publish_barrier = mutant;
    config.threads = 2;
    config.ops_per_thread = 48;
    config.key_space = 32;
    config.txn_ratio = 0.35;
    config.snapshot_ratio = 0.05;
    config.put_ratio = 0.35;
    config.get_ratio = 0.15;
    config.migrate_every = migrate ? 10 : 0;
    config.max_value_bytes = 48;
    config.seed = 27;

    Surface surface;
    surface.name = name;
    // Strand: the widest model — the commit protocol's conflict
    // re-reads and barriers are exactly what must hold it together.
    surface.model = ModelConfig::strand();
    surface.router_stats = std::make_shared<KvRouterInvariantStats>();

    KvRouterWorkloadResult result = runKvRouterWorkload(config);
    surface.trace = std::move(result.trace);

    KvGroupRecoveryOptions options;
    // The mutant runs under Repair (no uncommitted scrub) so its
    // partially visible transactions surface as violations instead
    // of being rolled back.
    options.mode = mutant ? KvRecoveryMode::Repair
                          : KvRecoveryMode::TxnResolve;
    surface.invariant = makeKvRouterInvariant(
        result.layout, result.golden, result.txn_golden, options,
        surface.router_stats);
    return surface;
}

/** Named fault mixes swept against every surface. */
struct FaultMix
{
    std::string name;
    FaultConfig faults;
};

std::vector<FaultMix>
faultMixes()
{
    std::vector<FaultMix> mixes;
    mixes.push_back({"none", {}});

    FaultConfig torn;
    torn.tear_persists = true;
    torn.atomic_write_unit = 4; // 8-byte persists split in two.
    mixes.push_back({"torn", torn});

    FaultConfig media;
    media.media_error_per_write = 2e-4;
    mixes.push_back({"media", media});

    FaultConfig drops;
    drops.drop_drain_p = 0.5;
    drops.drain_latency = 0.5;
    mixes.push_back({"drops", drops});

    FaultConfig all = torn;
    all.media_error_per_write = media.media_error_per_write;
    all.drop_drain_p = drops.drop_drain_p;
    all.drain_latency = drops.drain_latency;
    mixes.push_back({"all", all});
    return mixes;
}

FaultCampaignConfig
campaignFor(const Surface &surface, const FaultMix &mix,
            std::uint32_t jobs)
{
    FaultCampaignConfig config;
    config.injection.model = surface.model;
    config.injection.realizations = 6;
    config.injection.crashes_per_realization = 48;
    config.injection.seed = 17;
    config.injection.jobs = jobs;
    config.injection.max_recorded_violations = 4;
    config.faults = mix.faults;
    return config;
}

int
replay(const std::vector<Surface> &surfaces, const std::string &line,
       std::uint32_t jobs)
{
    FaultRepro repro;
    if (!parseFaultRepro(line, repro)) {
        std::cerr << "no 'seed=... crash=... fault_seed=...' triple "
                  << "in --replay argument\n";
        return 2;
    }
    // The repro line leads with "<surface>/<mix>".
    const std::string tag = line.substr(0, line.find(' '));
    const std::size_t slash = tag.find('/');
    const std::string surface_name = tag.substr(0, slash);
    const std::string mix_name =
        slash == std::string::npos ? "none" : tag.substr(slash + 1);
    for (const Surface &surface : surfaces) {
        if (surface.name != surface_name)
            continue;
        for (const FaultMix &mix : faultMixes()) {
            if (mix.name != mix_name)
                continue;
            const auto config = campaignFor(surface, mix, jobs);
            FaultOutcome outcome;
            const std::string verdict = replayFaultRepro(
                surface.trace, config, repro, surface.invariant,
                &outcome);
            std::cout << "replay " << tag << " "
                      << formatFaultRepro(repro) << "\n  faults: "
                      << outcome.summary() << "\n  verdict: "
                      << (verdict.empty() ? "ok" : verdict) << "\n";
            return verdict.empty() ? 0 : 1;
        }
    }
    std::cerr << "unknown surface/mix tag '" << tag << "'\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint32_t jobs = 1;
    std::string replay_line;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--jobs=", 0) == 0) {
            jobs = parseFlagNumber<std::uint32_t>("--jobs",
                                                  arg.substr(7));
        } else if (arg.rfind("--replay=", 0) == 0) {
            replay_line = arg.substr(9);
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--jobs=N] [--replay=\"<repro line>\"]\n";
            return 2;
        }
    }

    std::vector<Surface> surfaces;
    surfaces.push_back(queueSurface("cwl-queue", false));
    surfaces.push_back(queueSurface("queue-nobar", true));
    surfaces.push_back(logSurface("log", false));
    surfaces.push_back(logSurface("log-unordered", true));
    surfaces.push_back(
        kvSurface("kv-inplace", KvUpdateStrategy::InPlace, false));
    surfaces.push_back(kvSurface("kv-cow", KvUpdateStrategy::Cow, false));
    surfaces.push_back(
        kvSurface("kv-log", KvUpdateStrategy::LogStructured, false));
    surfaces.push_back(
        kvSurface("kv-nobar", KvUpdateStrategy::Cow, true));
    surfaces.push_back(routerSurface(
        "kv-txn-inplace", KvUpdateStrategy::InPlace, false, false));
    surfaces.push_back(routerSurface(
        "kv-txn-cow", KvUpdateStrategy::Cow, false, false));
    surfaces.push_back(routerSurface(
        "kv-txn-log", KvUpdateStrategy::LogStructured, false, false));
    surfaces.push_back(routerSurface(
        "kv-migrate-inplace", KvUpdateStrategy::InPlace, true, false));
    surfaces.push_back(routerSurface(
        "kv-migrate-cow", KvUpdateStrategy::Cow, true, false));
    surfaces.push_back(routerSurface(
        "kv-migrate-log", KvUpdateStrategy::LogStructured, true, false));
    surfaces.push_back(routerSurface(
        "kv-txn-nobar", KvUpdateStrategy::Cow, false, true));

    if (!replay_line.empty())
        return replay(surfaces, replay_line, jobs);

    banner("Device-fault injection campaign",
           "recovery code that survives only clean crashes has not "
           "been tested; torn persists, media wear, and lost drain "
           "buffers break the observer's perfect-device assumption");

    Stopwatch watch;
    std::uint64_t total_samples = 0;
    TextTable table;
    table.header({"surface", "model", "faults", "samples",
                  "violations", "rate", "quarantined", "repaired"});
    std::vector<std::string> repro_lines;
    for (const Surface &surface : surfaces) {
        for (const FaultMix &mix : faultMixes()) {
            const auto config = campaignFor(surface, mix, jobs);
            // KV stats accumulate across runs; report per-mix deltas.
            const KvInvariantStats *kv_stats =
                surface.stats ? surface.stats.get()
                              : surface.router_stats
                                    ? &surface.router_stats->shard
                                    : nullptr;
            const std::uint64_t quarantined_before =
                kv_stats ? kv_stats->quarantined.load() : 0;
            const std::uint64_t repaired_before =
                kv_stats ? kv_stats->repaired.load() : 0;
            const InjectionResult result = runFaultCampaign(
                surface.trace, config, surface.invariant);
            total_samples += result.samples;
            char rate[32];
            std::snprintf(rate, sizeof(rate), "%.1f%%",
                          100.0 * static_cast<double>(result.violations) /
                              static_cast<double>(result.samples));
            const std::string quarantined =
                kv_stats
                    ? std::to_string(kv_stats->quarantined.load() -
                                     quarantined_before)
                    : "-";
            const std::string repaired =
                kv_stats
                    ? std::to_string(kv_stats->repaired.load() -
                                     repaired_before)
                    : "-";
            table.row({surface.name, surface.model.name(), mix.name,
                       std::to_string(result.samples),
                       std::to_string(result.violations), rate,
                       quarantined, repaired});
            for (const ViolationRecord &violation :
                 result.violation_list) {
                repro_lines.push_back(surface.name + "/" + mix.name +
                                      " " + violationRepro(violation));
            }
        }
    }
    std::cout << table.render();

    std::cout << "\nExpected shape: the hardened surfaces (cwl-queue, "
              << "log) stay at 0% under 'torn' — tearing is exactly "
              << "what the checksums absorb — while the barrier-"
              << "elision mutants fail under it; media errors and "
              << "dropped drains are unrecoverable data loss for any "
              << "pointer-less protocol and show up as nonzero rates "
              << "everywhere. The kv-* surfaces stay at 0% under every "
              << "mix: the recovery ladder turns device faults into "
              << "quarantined (and, for kv-log, repaired) buckets "
              << "instead of wrong answers, while kv-nobar's Strict "
              << "recovery catches the elided publish barrier. The "
              << "kv-txn-* and kv-migrate-* surfaces stay at 0% under "
              << "every mix too: TxnResolve rolls committed "
              << "transactions forward from their staged records, "
              << "rolls uncommitted ones back, and recovers every "
              << "partition to exactly one owner — whereas "
              << "kv-txn-nobar's missing commit barrier lets applies "
              << "race the commit record, and the Repair-tier "
              << "invariant reports the torn transactions it leaves "
              << "behind.\n";

    if (!repro_lines.empty()) {
        std::cout << "\nviolation repros (re-run with "
                  << "--replay=\"<line>\"):\n";
        for (const std::string &line : repro_lines)
            std::cout << "  " << line << "\n";
    }

    std::cout << "\ncampaign: " << total_samples << " crash states in "
              << watch.seconds() << " s wall (--jobs="
              << effectiveJobs(jobs) << ")\n";
    return 0;
}
