/**
 * @file
 * Heavy-traffic KV-store load driver: the canonical producer of
 * BENCH_kvstore.json (the committed copy lives at the repo root).
 *
 * Drives N client shards over a large key space — each client owns a
 * hash-disjoint partition of the keys and runs its own single-worker
 * execution engine, so trace generation fans out over the shared
 * TaskPool with no cross-shard coordination (exactly how a sharded KV
 * service scales writers). Three phases per update strategy
 * (in_place / cow / log_structured):
 *
 *  1. generate: zipfian-or-uniform put/get/erase traffic into each
 *     shard (golden recording off — the histories of millions of ops
 *     are an audit artifact, not a perf artifact);
 *  2. compile + replay: every shard trace is compiled once into the
 *     program it keeps (the <strategy>/compile row), then replayed
 *     per persistency model (strict/epoch/strand/px86), reporting
 *     replay throughput and the persist critical path (max over
 *     shards — the service-level recovery point lag). The four models
 *     share that program, so every replay row measures execution
 *     only; the traces are freed after this phase;
 *  3. audit: a smaller golden-enabled workload swept by the device-
 *     fault campaign under Repair-tier recovery, reporting violation /
 *     quarantine / repair rates per model. The acceptance bar: zero
 *     violations — detected corruption quarantines or repairs, never
 *     silently serves.
 *
 * Plus a cross-shard transaction phase per strategy: every client
 * shard behind one hash-partitioned KvRouter front end under a
 * txn + snapshot + migration mix (4) generated once, (5) compiled once
 * (txn_<strategy>/compile) and replayed per
 * persistency model for the transaction path's persist critical path
 * (the commit protocol's barriers are exactly what the models price
 * differently — kvstore/txn_<strategy>/<model>/replay rows), and
 * (6) audited by the full fault mix under TxnResolve-tier group
 * recovery, where in-doubt and scrubbed transactions are counted
 * degradation and violations must be zero.
 *
 * --check shrinks everything to a smoke-test size and fails loudly on
 * any audit violation or throughput collapse; scripts/check.sh runs
 * it as a CI gate. Run with --json=BENCH_kvstore.json to refresh the
 * committed baseline.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "bench_util/kv_workload.hh"
#include "bench_util/table.hh"
#include "kvstore/recovery.hh"
#include "recovery/fault_campaign.hh"

using namespace persim;
using namespace persim::bench;

namespace {

struct DriverOptions
{
    std::uint32_t clients = 4;       //!< Client shards (>= 1).
    std::uint64_t keys = 1ULL << 20; //!< Total key space (all shards).
    std::uint64_t ops = 1ULL << 18;  //!< Ops per client.
    std::uint64_t txn_ops = 1ULL << 14; //!< Txn-phase ops per thread.
    double theta = 0.99;             //!< Zipfian skew (0 = uniform).
    double put_ratio = 0.5;
    double get_ratio = 0.4; // Erase ratio is the remainder.
    std::uint64_t seed = 1;
    std::uint32_t jobs = 0; //!< Replay/audit parallelism (0 = hw).
    std::string json_path;
    bool check = false; //!< CI smoke gate: tiny sizes, hard asserts.
};

DriverOptions
parseDriver(int argc, char **argv)
{
    DriverOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&arg](const char *name) -> std::string {
            const std::string prefix = std::string(name) + "=";
            return arg.rfind(prefix, 0) == 0 ? arg.substr(prefix.size())
                                             : std::string();
        };
        if (arg == "--check") {
            options.check = true;
        } else if (!value("--clients").empty()) {
            options.clients = parseFlagNumber<std::uint32_t>(
                "--clients", value("--clients"));
        } else if (!value("--keys").empty()) {
            options.keys =
                parseFlagNumber<std::uint64_t>("--keys", value("--keys"));
        } else if (!value("--ops").empty()) {
            options.ops =
                parseFlagNumber<std::uint64_t>("--ops", value("--ops"));
        } else if (!value("--txn-ops").empty()) {
            options.txn_ops = parseFlagNumber<std::uint64_t>(
                "--txn-ops", value("--txn-ops"));
        } else if (!value("--theta").empty()) {
            options.theta =
                parseFlagNumber<double>("--theta", value("--theta"));
        } else if (!value("--put").empty()) {
            options.put_ratio =
                parseFlagNumber<double>("--put", value("--put"));
        } else if (!value("--get").empty()) {
            options.get_ratio =
                parseFlagNumber<double>("--get", value("--get"));
        } else if (!value("--seed").empty()) {
            options.seed =
                parseFlagNumber<std::uint64_t>("--seed", value("--seed"));
        } else if (!value("--jobs").empty()) {
            options.jobs =
                parseFlagNumber<std::uint32_t>("--jobs", value("--jobs"));
        } else if (!value("--json").empty()) {
            options.json_path = value("--json");
        } else {
            std::cerr
                << "usage: " << argv[0]
                << " [--clients=N] [--keys=N] [--ops=N(per client)]"
                   " [--txn-ops=N(per thread)] [--theta=F] [--put=F]"
                   " [--get=F] [--seed=N] [--jobs=N] [--json=PATH]"
                   " [--check]\n";
            std::exit(2);
        }
    }
    if (options.check) {
        options.clients = std::min<std::uint32_t>(options.clients, 2);
        options.keys = std::min<std::uint64_t>(options.keys, 1 << 12);
        options.ops = std::min<std::uint64_t>(options.ops, 1 << 11);
        options.txn_ops =
            std::min<std::uint64_t>(options.txn_ops, 1 << 9);
    }
    return options;
}

std::uint64_t
nextPow2(std::uint64_t n)
{
    std::uint64_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

/** Per-shard workload config for the heavy generation phase. */
KvWorkloadConfig
shardConfig(const DriverOptions &options, KvUpdateStrategy strategy,
            std::uint32_t shard)
{
    KvWorkloadConfig config;
    const std::uint64_t shard_keys =
        std::max<std::uint64_t>(1, options.keys / options.clients);
    // Room for every key the shard can ever hold plus tombstones:
    // probing stays short and TableFull backpressure stays rare.
    config.store.buckets =
        std::max<std::uint64_t>(1024, nextPow2(2 * shard_keys));
    // The bump heap never frees: every put allocates. Size for the
    // expected put volume with headroom; overflow is counted
    // backpressure, not failure.
    const std::uint64_t puts =
        static_cast<std::uint64_t>(static_cast<double>(options.ops) *
                                   options.put_ratio) + 1024;
    config.store.max_value_bytes = 64;
    config.store.heap_bytes =
        (puts + (puts >> 2)) * (config.store.max_value_bytes + 8);
    config.store.log_capacity =
        strategy == KvUpdateStrategy::LogStructured
            ? (puts + (puts >> 1)) * 112 + (1 << 12)
            : 1 << 12;
    config.store.strategy = strategy;
    // Golden histories for millions of ops are an audit artifact;
    // recording them would dominate generation wall time.
    config.store.record_golden = false;
    config.threads = 1; // One simulated writer per shard.
    config.ops_per_thread = options.ops;
    config.key_space = shard_keys;
    config.zipf_theta = options.theta;
    config.put_ratio = options.put_ratio;
    config.get_ratio = options.get_ratio;
    config.min_value_bytes = 8;
    config.max_value_bytes = 64;
    config.seed = mixSeed(options.seed, shard + 1);
    return config;
}

struct Strategy
{
    const char *name;
    KvUpdateStrategy strategy;
};

constexpr Strategy strategies[] = {
    {"in_place", KvUpdateStrategy::InPlace},
    {"cow", KvUpdateStrategy::Cow},
    {"log_structured", KvUpdateStrategy::LogStructured},
};

struct Model
{
    const char *name;
    ModelConfig model;
};

const std::vector<Model> &
modelList()
{
    static const std::vector<Model> models{
        {"strict", ModelConfig::strict()},
        {"epoch", ModelConfig::epoch()},
        {"strand", ModelConfig::strand()},
        {"px86", ModelConfig::px86()},
    };
    return models;
}

/** Router-group config for the cross-shard transaction phase: one
    group of `clients` shards, all simulated client threads on one
    engine (the front end is shared state; sharded trace generation
    would lose the cross-shard ordering the phase exists to price). */
KvRouterWorkloadConfig
txnConfig(const DriverOptions &options, KvUpdateStrategy strategy)
{
    KvRouterWorkloadConfig config;
    config.router.shards = std::max<std::uint32_t>(2, options.clients);
    config.router.partitions =
        static_cast<std::uint32_t>(nextPow2(4ULL *
                                            config.router.shards));
    config.threads = config.router.shards;
    config.ops_per_thread = options.txn_ops;
    const std::uint64_t total_ops =
        static_cast<std::uint64_t>(config.threads) * options.txn_ops;
    config.key_space = std::max<std::uint64_t>(256, total_ops / 8);
    config.zipf_theta = options.theta;
    config.txn_ratio = 0.2;
    config.snapshot_ratio = 0.1;
    config.put_ratio = 0.35;
    config.get_ratio = 0.2; // Erase gets the remaining 0.15.
    config.migrate_every = 64;
    config.min_value_bytes = 8;
    config.max_value_bytes = 48;
    config.seed = mixSeed(options.seed, 0x7472);

    // Every put allocates from the bump heap: direct puts plus staged
    // transaction puts (~3 keys/txn, 80% of staged ops are puts).
    const std::uint64_t puts = static_cast<std::uint64_t>(
        static_cast<double>(total_ops) * (0.35 + 0.2 * 3 * 0.8));
    const std::uint64_t shard_puts =
        puts / config.router.shards + 1024;
    config.router.store.strategy = strategy;
    config.router.store.max_value_bytes = 48;
    config.router.store.buckets = std::max<std::uint64_t>(
        1024,
        nextPow2(2 * (config.key_space / config.router.shards + 1)));
    config.router.store.heap_bytes =
        (shard_puts + (shard_puts >> 2)) *
        (config.router.store.max_value_bytes + 8);
    // Staged transaction records land in the shard journals under
    // every strategy; LogStructured adds its per-put records on top.
    const std::uint64_t journal_records =
        strategy == KvUpdateStrategy::LogStructured
            ? shard_puts + (shard_puts >> 1)
            : shard_puts;
    config.router.store.log_capacity =
        journal_records * 112 + (1 << 12);
    config.router.store.record_golden = false;

    const std::uint64_t txns = static_cast<std::uint64_t>(
        static_cast<double>(total_ops) * config.txn_ratio);
    config.router.max_txns =
        std::max<std::uint64_t>(512, nextPow2(2 * txns));
    config.router.group_log_capacity = std::max<std::uint64_t>(
        1 << 14, nextPow2(txns * 192 + (1 << 12)));
    return config;
}

/** Golden-enabled miniature of the txn phase for the fault-campaign
    audit (same shape as the kv-txn campaign surface). */
KvRouterWorkloadConfig
txnAuditConfig(const DriverOptions &options, KvUpdateStrategy strategy)
{
    KvRouterWorkloadConfig config;
    config.router.shards = 2;
    config.router.partitions = 8;
    config.router.max_txns = 512;
    config.router.group_log_capacity = 1 << 16;
    config.router.store.buckets = 256;
    config.router.store.heap_bytes = 1 << 16;
    config.router.store.max_value_bytes = 64;
    config.router.store.log_capacity = 1 << 18;
    config.router.store.strategy = strategy;
    config.router.store.record_golden = true;
    config.threads = 2;
    config.ops_per_thread = options.check ? 48 : 96;
    config.key_space = 48;
    config.txn_ratio = 0.35;
    config.snapshot_ratio = 0.05;
    config.put_ratio = 0.35;
    config.get_ratio = 0.15;
    config.migrate_every = 12;
    config.max_value_bytes = 48;
    config.seed = options.seed + 5;
    return config;
}

/** The audit campaign's fault mix: everything at once. */
FaultConfig
auditFaults()
{
    FaultConfig faults;
    faults.tear_persists = true;
    faults.atomic_write_unit = 4;
    faults.media_error_per_write = 2e-4;
    faults.drop_drain_p = 0.25;
    faults.drain_latency = 0.5;
    return faults;
}

} // namespace

int
main(int argc, char **argv)
{
    const DriverOptions options = parseDriver(argc, argv);
    const std::uint32_t jobs = effectiveJobs(options.jobs);
    TaskPool pool(jobs);
    banner("KV-store service under heavy traffic",
           "a persistency model is only as useful as the service on "
           "top of it: this driver measures what each model costs the "
           "store's persist critical path and what the recovery "
           "ladder absorbs when the device misbehaves");

    std::cout << "clients=" << options.clients
              << " keys=" << options.keys << " ops/client="
              << options.ops << " theta=" << options.theta
              << " put=" << options.put_ratio << " get="
              << options.get_ratio << " erase="
              << (1.0 - options.put_ratio - options.get_ratio)
              << " jobs=" << jobs
              << (options.check ? " (--check)" : "") << "\n\n";

    BenchReport report;
    bool check_failed = false;

    TextTable generation;
    generation.header({"strategy", "clients", "ops", "rejected",
                       "wall(s)", "ops/s"});
    TextTable compile;
    compile.header({"trace", "events", "wall(s)", "events/s"});
    TextTable replay;
    replay.header({"strategy", "model", "events", "wall(s)", "events/s",
                   "critical path", "persists"});
    TextTable audit;
    audit.header({"strategy", "model", "samples", "violations",
                  "quarantined", "repaired", "discarded"});
    TextTable txn_generation;
    txn_generation.header({"strategy", "ops", "txns", "committed",
                           "snapshots", "migrations", "rejected",
                           "handoffs", "drains", "wall(s)", "ops/s"});
    TextTable txn_replay;
    txn_replay.header({"strategy", "model", "events", "wall(s)",
                       "events/s", "critical path", "persists"});
    TextTable txn_audit;
    txn_audit.header({"strategy", "model", "samples", "violations",
                      "in_doubt", "partial", "lost", "stale"});

    for (const Strategy &strategy : strategies) {
        // Phase 1: generate shard traces in parallel.
        std::vector<InMemoryTrace> traces(options.clients);
        std::vector<std::uint64_t> rejected(options.clients);
        Stopwatch generate_watch;
        pool.parallelFor(options.clients, [&](std::size_t shard) {
            KvWorkloadResult result = runKvWorkload(shardConfig(
                options, strategy.strategy,
                static_cast<std::uint32_t>(shard)));
            rejected[shard] = result.rejectedTotal();
            traces[shard] = std::move(result.trace);
        });
        const double generate_wall = generate_watch.seconds();
        const std::uint64_t total_ops =
            static_cast<std::uint64_t>(options.clients) * options.ops;
        std::uint64_t total_rejected = 0, total_events = 0;
        for (std::uint32_t s = 0; s < options.clients; ++s) {
            total_rejected += rejected[s];
            total_events += traces[s].size();
        }
        generation.row({strategy.name, std::to_string(options.clients),
                        std::to_string(total_ops),
                        std::to_string(total_rejected),
                        formatDouble(generate_wall, 3),
                        formatEventsPerSec(total_ops, generate_wall)});
        report.add(std::string("kvstore/") + strategy.name +
                       "/generate",
                   total_events, generate_wall);
        if (options.check &&
            total_rejected > total_ops / 10) {
            std::cerr << "CHECK FAIL: " << strategy.name << " rejected "
                      << total_rejected << "/" << total_ops
                      << " ops — shard sizing is wrong\n";
            check_failed = true;
        }

        // Phase 2: compile each shard trace once into the program it
        // keeps, then replay it per model; the service's persist
        // critical path is the slowest shard's.
        const TimingConfig compile_timing = levels(modelList()[0].model);
        Stopwatch compile_watch;
        pool.parallelFor(options.clients, [&](std::size_t shard) {
            traceProgram(traces[shard], compile_timing);
        });
        const double compile_wall = compile_watch.seconds();
        compile.row({strategy.name, std::to_string(total_events),
                     formatDouble(compile_wall, 3),
                     formatEventsPerSec(total_events, compile_wall)});
        report.add(std::string("kvstore/") + strategy.name + "/compile",
                   total_events, compile_wall);
        for (const Model &model : modelList()) {
            const TimingConfig timing = levels(model.model);
            std::vector<TimingResult> results(options.clients);
            Stopwatch replay_watch;
            pool.parallelFor(options.clients, [&](std::size_t shard) {
                results[shard] = replayTrace(traces[shard], timing);
            });
            const double replay_wall = replay_watch.seconds();
            double critical_path = 0.0;
            std::uint64_t persists = 0;
            for (const TimingResult &result : results) {
                critical_path =
                    std::max(critical_path, result.critical_path);
                persists += result.persists;
            }
            replay.row({strategy.name, model.name,
                        std::to_string(total_events),
                        formatDouble(replay_wall, 3),
                        formatEventsPerSec(total_events, replay_wall),
                        formatDouble(critical_path, 1),
                        std::to_string(persists)});
            report.add(std::string("kvstore/") + strategy.name + "/" +
                           model.name + "/replay",
                       total_events, replay_wall);
        }
        // No later phase reads the shard traces; free them and the
        // programs they keep before the audits and the txn phases.
        std::vector<InMemoryTrace>().swap(traces);

        // Phase 3: audit. A smaller golden-enabled workload of the
        // same shape, swept by the full fault mix under Repair-tier
        // recovery, per model.
        KvWorkloadConfig audit_config =
            shardConfig(options, strategy.strategy, 0);
        audit_config.store.record_golden = true;
        audit_config.store.buckets = 256;
        audit_config.store.heap_bytes = 1 << 16;
        audit_config.store.log_capacity = 1 << 18;
        audit_config.threads = 2;
        audit_config.ops_per_thread = options.check ? 48 : 96;
        audit_config.key_space = 48;
        const KvWorkloadResult audit_workload =
            runKvWorkload(audit_config);
        KvRecoveryOptions recovery_options;
        recovery_options.mode = KvRecoveryMode::Repair;
        recovery_options.journal = audit_workload.journal;
        for (const Model &model : modelList()) {
            FaultCampaignConfig campaign;
            campaign.injection.model = model.model;
            campaign.injection.realizations = options.check ? 3 : 6;
            campaign.injection.crashes_per_realization =
                options.check ? 16 : 32;
            campaign.injection.seed = options.seed + 77;
            campaign.injection.jobs = jobs;
            campaign.faults = auditFaults();
            auto stats = std::make_shared<KvInvariantStats>();
            const InjectionResult result = runFaultCampaign(
                audit_workload.trace, campaign,
                makeKvRecoveryInvariant(audit_workload.layout,
                                        audit_workload.golden,
                                        recovery_options, stats));
            audit.row({strategy.name, model.name,
                       std::to_string(result.samples),
                       std::to_string(result.violations),
                       std::to_string(stats->quarantined.load()),
                       std::to_string(stats->repaired.load()),
                       std::to_string(stats->discarded.load())});
            if (!result.ok()) {
                std::cerr << "AUDIT FAIL: " << strategy.name << "/"
                          << model.name << ": "
                          << result.first_violation << "\n";
                check_failed = true;
            }
        }

        // Phase 4: cross-shard transactions. One router group under a
        // txn + snapshot + migration mix, generated once per strategy.
        const KvRouterWorkloadConfig txn_config =
            txnConfig(options, strategy.strategy);
        Stopwatch txn_watch;
        const KvRouterWorkloadResult txn_run =
            runKvRouterWorkload(txn_config);
        const double txn_wall = txn_watch.seconds();
        const std::uint64_t txn_total_ops =
            static_cast<std::uint64_t>(txn_config.threads) *
            txn_config.ops_per_thread;
        std::uint64_t txn_rejected = 0;
        for (std::uint64_t r : txn_run.rejected)
            txn_rejected += r;
        for (std::uint64_t r : txn_run.txn_rejected)
            txn_rejected += r;
        txn_generation.row(
            {strategy.name, std::to_string(txn_total_ops),
             std::to_string(txn_run.txns),
             std::to_string(txn_run.txns_committed),
             std::to_string(txn_run.snapshots),
             std::to_string(txn_run.migrations),
             std::to_string(txn_rejected),
             std::to_string(txn_run.sim.handoffs),
             std::to_string(txn_run.sim.store_buffer_drains),
             formatDouble(txn_wall, 3),
             formatEventsPerSec(txn_total_ops, txn_wall)});
        report.add(std::string("kvstore/txn_") + strategy.name +
                       "/generate",
                   txn_run.trace.size(), txn_wall);
        if (options.check &&
            (txn_run.txns_committed == 0 || txn_run.migrations == 0)) {
            std::cerr << "CHECK FAIL: " << strategy.name
                      << " txn phase committed "
                      << txn_run.txns_committed << " txns, moved "
                      << txn_run.migrations
                      << " partitions — the mix never exercised the "
                         "coordination layer\n";
            check_failed = true;
        }
        if (options.check && txn_rejected > txn_total_ops / 10) {
            std::cerr << "CHECK FAIL: " << strategy.name
                      << " txn phase rejected " << txn_rejected << "/"
                      << txn_total_ops
                      << " ops — group sizing is wrong\n";
            check_failed = true;
        }

        // Phase 5: compile the transaction trace once, then replay it
        // per model. The commit protocol's barriers (journal append,
        // status flip, applies) are exactly what the models price
        // differently.
        Stopwatch txn_compile_watch;
        traceProgram(txn_run.trace, compile_timing);
        const double txn_compile_wall = txn_compile_watch.seconds();
        compile.row({std::string("txn_") + strategy.name,
                     std::to_string(txn_run.trace.size()),
                     formatDouble(txn_compile_wall, 3),
                     formatEventsPerSec(txn_run.trace.size(),
                                        txn_compile_wall)});
        report.add(std::string("kvstore/txn_") + strategy.name +
                       "/compile",
                   txn_run.trace.size(), txn_compile_wall);
        for (const Model &model : modelList()) {
            const TimingConfig timing = levels(model.model);
            Stopwatch txn_replay_watch;
            const TimingResult result =
                replayTrace(txn_run.trace, timing);
            const double txn_replay_wall = txn_replay_watch.seconds();
            txn_replay.row({strategy.name, model.name,
                            std::to_string(txn_run.trace.size()),
                            formatDouble(txn_replay_wall, 3),
                            formatEventsPerSec(txn_run.trace.size(),
                                               txn_replay_wall),
                            formatDouble(result.critical_path, 1),
                            std::to_string(result.persists)});
            report.add(std::string("kvstore/txn_") + strategy.name +
                           "/" + model.name + "/replay",
                       txn_run.trace.size(), txn_replay_wall);
        }

        // Phase 6: audit the transaction path. A golden-enabled
        // miniature swept by the full fault mix per model under
        // TxnResolve-tier group recovery: in-doubt and scrubbed
        // transactions are counted degradation, violations are
        // failure.
        const KvRouterWorkloadResult txn_audit_run =
            runKvRouterWorkload(txnAuditConfig(options,
                                               strategy.strategy));
        KvGroupRecoveryOptions group_options;
        group_options.mode = KvRecoveryMode::TxnResolve;
        for (const Model &model : modelList()) {
            FaultCampaignConfig campaign;
            campaign.injection.model = model.model;
            campaign.injection.realizations = options.check ? 3 : 6;
            campaign.injection.crashes_per_realization =
                options.check ? 16 : 32;
            campaign.injection.seed = options.seed + 177;
            campaign.injection.jobs = jobs;
            campaign.faults = auditFaults();
            auto stats = std::make_shared<KvRouterInvariantStats>();
            const InjectionResult result = runFaultCampaign(
                txn_audit_run.trace, campaign,
                makeKvRouterInvariant(txn_audit_run.layout,
                                      txn_audit_run.golden,
                                      txn_audit_run.txn_golden,
                                      group_options, stats));
            txn_audit.row(
                {strategy.name, model.name,
                 std::to_string(result.samples),
                 std::to_string(result.violations),
                 std::to_string(stats->in_doubt.load()),
                 std::to_string(stats->txn_partial.load()),
                 std::to_string(stats->txn_lost.load()),
                 std::to_string(stats->stale_copies.load())});
            if (!result.ok()) {
                std::cerr << "TXN AUDIT FAIL: " << strategy.name
                          << "/" << model.name << ": "
                          << result.first_violation << "\n";
                check_failed = true;
            }
        }
    }

    std::cout << "generation (simulated clients on the task pool):\n"
              << generation.render() << "\ncompile (once per trace; "
              << "the four models share the program):\n"
              << compile.render() << "\nreplay (per persistency "
              << "model; critical path = slowest shard; execution "
              << "only):\n"
              << replay.render() << "\naudit (device-fault campaign, "
              << "Repair-tier recovery — violations must be 0):\n"
              << audit.render() << "\ntxn generation (one router "
              << "group: cross-shard txns + snapshots + migrations):\n"
              << txn_generation.render() << "\ntxn replay (per "
              << "persistency model; critical path = the commit "
              << "protocol's persist chain; execution only):\n"
              << txn_replay.render() << "\ntxn audit (device-fault "
              << "campaign, TxnResolve-tier group recovery — "
              << "violations must be 0):\n"
              << txn_audit.render() << "\n";

    if (!options.json_path.empty() && !report.empty()) {
        report.writeJson(options.json_path);
        std::cout << "bench report: " << report.size()
                  << " samples -> " << options.json_path << "\n";
    }
    if (check_failed) {
        std::cout << "--check: FAILED\n";
        return 1;
    }
    if (options.check)
        std::cout << "--check: OK\n";
    return 0;
}
