/**
 * @file
 * Trace-identity pins for the execution engine.
 *
 * Every trace the engine generates must be a pure function of (seed,
 * policy, quantum, consistency, workload): the scheduler's internals
 * may change, the interleaving it produces may not. These tests freeze
 * an FNV-1a hash of each generated trace, and of ReplayPolicy's
 * recorded decision vector, over the matrix
 * {SC, TSO} x {RoundRobin, Random} x quantum {1, 4, 64} x threads
 * {1, 2, 4} on two workloads: a small KvRouter txn mix and the
 * explorer's queueProgram. A single-process A/B comparison (as in
 * sim_test's DeterministicInterleavingPerSeed) cannot catch a change
 * in schedule semantics; these frozen values can.
 *
 * A mismatch prints the case name and the new hash. Update a pin only
 * for an intended change to what the engine emits.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "explore/programs.hh"
#include "kvstore/router.hh"
#include "memtrace/sink.hh"
#include "sim/engine.hh"
#include "sim/scheduler.hh"

namespace persim {
namespace {

constexpr std::uint64_t fnv_offset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t fnv_prime = 0x100000001b3ULL;

void
fnvMix(std::uint64_t &hash, std::uint64_t value, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i) {
        hash ^= (value >> (8 * i)) & 0xff;
        hash *= fnv_prime;
    }
}

std::uint64_t
hashTrace(const InMemoryTrace &trace)
{
    std::uint64_t hash = fnv_offset;
    for (const TraceEvent &event : trace.events()) {
        fnvMix(hash, event.seq, 8);
        fnvMix(hash, event.addr, 8);
        fnvMix(hash, event.value, 8);
        fnvMix(hash, event.thread, 4);
        fnvMix(hash, static_cast<std::uint64_t>(event.kind), 1);
        fnvMix(hash, event.size, 1);
        fnvMix(hash, event.marker, 2);
    }
    return hash;
}

std::uint64_t
hashDecisions(const std::vector<BranchPoint> &decisions)
{
    std::uint64_t hash = fnv_offset;
    for (const BranchPoint &bp : decisions) {
        fnvMix(hash, bp.chosen, 4);
        fnvMix(hash, bp.arity, 4);
    }
    return hash;
}

/** A setup + workers pair, built fresh for each run. */
struct Workload
{
    ExecutionEngine::WorkerFn setup;
    std::vector<ExecutionEngine::WorkerFn> workers;
};

/** Each client runs a seeded mix of cross-shard txns, puts, gets and
    snapshot reads against a two-shard router. */
Workload
kvTxnMix(std::uint32_t threads)
{
    KvRouterOptions options;
    options.shards = 2;
    options.partitions = 16;
    options.store.buckets = 64;
    options.store.heap_bytes = 1 << 14;
    options.store.log_capacity = 1 << 15;
    options.group_log_capacity = 1 << 15;
    options.max_txns = 256;

    auto router = std::make_shared<KvRouter>();
    Workload w;
    w.setup = [router, options, threads](ThreadCtx &ctx) {
        *router = KvRouter::create(ctx, options, threads);
    };
    for (std::uint32_t t = 0; t < threads; ++t) {
        w.workers.push_back([router, t](ThreadCtx &ctx) {
            Rng rng(1000 + t);
            std::vector<std::uint8_t> value(16);
            for (int i = 0; i < 6; ++i) {
                for (auto &byte : value)
                    byte = static_cast<std::uint8_t>(rng.next());
                const std::uint64_t key = 1 + rng.nextBounded(24);
                const std::uint64_t kind = rng.nextBounded(4);
                if (kind == 0) {
                    KvTxn txn;
                    txn.put(key, value.data(), value.size());
                    txn.put(key + 7, value.data(), value.size());
                    (void)router->commit(ctx, t, txn);
                } else if (kind == 1) {
                    (void)router->put(ctx, t, key, value.data(),
                                      value.size());
                } else if (kind == 2) {
                    router->get(ctx, key, value);
                    value.resize(16);
                } else {
                    std::map<std::uint64_t,
                             std::vector<std::uint8_t>> out;
                    std::uint64_t seq = 0;
                    router->multiGet(ctx, {key, key + 7}, out, seq);
                }
            }
        });
    }
    return w;
}

/** The explorer's two-lock queue program, two inserts per thread. */
Workload
queueMix(std::uint32_t threads)
{
    QueueExploreOptions options;
    options.threads = threads;
    options.inserts_per_thread = 2;
    ExploreProgram program = queueProgram(options)();
    return Workload{program.setup, program.workers};
}

Workload
makeWorkload(const std::string &name, std::uint32_t threads)
{
    return name == "kv" ? kvTxnMix(threads) : queueMix(threads);
}

struct RunHashes
{
    std::uint64_t trace = 0;
    std::uint64_t decisions = 0;
};

RunHashes
runOnce(const std::string &workload, EngineConfig config,
        std::uint32_t threads, ReplayPolicy *replay)
{
    config.max_events = 2000000;
    InMemoryTrace trace;
    Workload w = makeWorkload(workload, threads);
    auto engine = replay
        ? std::make_unique<ExecutionEngine>(config, &trace, replay)
        : std::make_unique<ExecutionEngine>(config, &trace);
    engine->runSetup(w.setup);
    engine->run(w.workers);
    RunHashes out;
    out.trace = hashTrace(trace);
    if (replay)
        out.decisions = hashDecisions(replay->decisions());
    return out;
}

const char *
consistencyName(ConsistencyModel c)
{
    return c == ConsistencyModel::SC ? "sc" : "tso";
}

/** Every (name, hashes) of the matrix, in a fixed order. */
std::vector<std::pair<std::string, RunHashes>>
runMatrix(const std::string &workload)
{
    std::vector<std::pair<std::string, RunHashes>> out;
    for (ConsistencyModel c : {ConsistencyModel::SC, ConsistencyModel::TSO}) {
        for (std::uint32_t threads : {1u, 2u, 4u}) {
            for (SchedulerKind kind :
                 {SchedulerKind::RoundRobin, SchedulerKind::Random}) {
                for (std::uint64_t quantum : {1u, 4u, 64u}) {
                    EngineConfig config;
                    config.seed = 7;
                    config.consistency = c;
                    config.scheduler = kind;
                    config.quantum = quantum;
                    const std::string name =
                        workload + "/" + consistencyName(c) + "/" +
                        (kind == SchedulerKind::RoundRobin ? "rr"
                                                           : "random") +
                        "/q" + std::to_string(quantum) + "/t" +
                        std::to_string(threads);
                    out.emplace_back(name,
                                     runOnce(workload, config, threads,
                                             nullptr));
                }
            }
            for (FrontierKind frontier :
                 {FrontierKind::RoundRobin, FrontierKind::Random}) {
                EngineConfig config;
                config.consistency = c;
                ReplayPolicy policy({1, 0, 1}, frontier, 7);
                const std::string name =
                    workload + "/" + consistencyName(c) + "/replay-" +
                    (frontier == FrontierKind::RoundRobin ? "rr"
                                                          : "random") +
                    "/t" + std::to_string(threads);
                out.emplace_back(name,
                                 runOnce(workload, config, threads,
                                         &policy));
            }
        }
    }
    return out;
}

struct Pin
{
    const char *name;
    std::uint64_t trace;
    std::uint64_t decisions; //!< 0 for non-replay policies.
};

// clang-format off
const Pin pins[] = {
    {"kv/sc/rr/q1/t1", 0x7a799614f3bfcbcdULL, 0x0000000000000000ULL},
    {"kv/sc/rr/q4/t1", 0x7a799614f3bfcbcdULL, 0x0000000000000000ULL},
    {"kv/sc/rr/q64/t1", 0x7a799614f3bfcbcdULL, 0x0000000000000000ULL},
    {"kv/sc/random/q1/t1", 0x7a799614f3bfcbcdULL, 0x0000000000000000ULL},
    {"kv/sc/random/q4/t1", 0x7a799614f3bfcbcdULL, 0x0000000000000000ULL},
    {"kv/sc/random/q64/t1", 0x7a799614f3bfcbcdULL, 0x0000000000000000ULL},
    {"kv/sc/replay-rr/t1", 0x7a799614f3bfcbcdULL, 0xcbf29ce484222325ULL},
    {"kv/sc/replay-random/t1", 0x7a799614f3bfcbcdULL, 0xcbf29ce484222325ULL},
    {"kv/sc/rr/q1/t2", 0xab3e7026d216b323ULL, 0x0000000000000000ULL},
    {"kv/sc/rr/q4/t2", 0x7e37746b015061a4ULL, 0x0000000000000000ULL},
    {"kv/sc/rr/q64/t2", 0xdecd2657b851503dULL, 0x0000000000000000ULL},
    {"kv/sc/random/q1/t2", 0xd44f57514f40f2ebULL, 0x0000000000000000ULL},
    {"kv/sc/random/q4/t2", 0x75f4409612537c61ULL, 0x0000000000000000ULL},
    {"kv/sc/random/q64/t2", 0x98ed8b0aa78052baULL, 0x0000000000000000ULL},
    {"kv/sc/replay-rr/t2", 0x0d1d70db0cfb9808ULL, 0x199316c3e5d5df27ULL},
    {"kv/sc/replay-random/t2", 0xb671fdb5a0ae5408ULL, 0x01825bfa56e4e854ULL},
    {"kv/sc/rr/q1/t4", 0xbe925c48113d9525ULL, 0x0000000000000000ULL},
    {"kv/sc/rr/q4/t4", 0x1b073253eb8b1b14ULL, 0x0000000000000000ULL},
    {"kv/sc/rr/q64/t4", 0x27b82cf0d9ad07d5ULL, 0x0000000000000000ULL},
    {"kv/sc/random/q1/t4", 0x673f584f707bd35aULL, 0x0000000000000000ULL},
    {"kv/sc/random/q4/t4", 0x87ce4d6c1e325505ULL, 0x0000000000000000ULL},
    {"kv/sc/random/q64/t4", 0xf02a4cf6ae519542ULL, 0x0000000000000000ULL},
    {"kv/sc/replay-rr/t4", 0xceee222345780bafULL, 0x2f28ce660c40db85ULL},
    {"kv/sc/replay-random/t4", 0x89afc4d65d27891fULL, 0xd8075df7c1abc0d1ULL},
    {"kv/tso/rr/q1/t1", 0xa4476ca011a16c39ULL, 0x0000000000000000ULL},
    {"kv/tso/rr/q4/t1", 0xa4476ca011a16c39ULL, 0x0000000000000000ULL},
    {"kv/tso/rr/q64/t1", 0xa4476ca011a16c39ULL, 0x0000000000000000ULL},
    {"kv/tso/random/q1/t1", 0xa4476ca011a16c39ULL, 0x0000000000000000ULL},
    {"kv/tso/random/q4/t1", 0xa4476ca011a16c39ULL, 0x0000000000000000ULL},
    {"kv/tso/random/q64/t1", 0xa4476ca011a16c39ULL, 0x0000000000000000ULL},
    {"kv/tso/replay-rr/t1", 0xa4476ca011a16c39ULL, 0xcbf29ce484222325ULL},
    {"kv/tso/replay-random/t1", 0xa4476ca011a16c39ULL, 0xcbf29ce484222325ULL},
    {"kv/tso/rr/q1/t2", 0x8034bd639ae49b2fULL, 0x0000000000000000ULL},
    {"kv/tso/rr/q4/t2", 0xb7af2855e325bec2ULL, 0x0000000000000000ULL},
    {"kv/tso/rr/q64/t2", 0x2bb71ba125ed13cdULL, 0x0000000000000000ULL},
    {"kv/tso/random/q1/t2", 0x26aa91fe8fd7a43bULL, 0x0000000000000000ULL},
    {"kv/tso/random/q4/t2", 0x03d286a96b0fb525ULL, 0x0000000000000000ULL},
    {"kv/tso/random/q64/t2", 0x729766f380f51ea6ULL, 0x0000000000000000ULL},
    {"kv/tso/replay-rr/t2", 0x9e1e9375da395825ULL, 0xe951a7d02baff197ULL},
    {"kv/tso/replay-random/t2", 0x48c9145e88ff97c1ULL, 0x9ece2269a77375a7ULL},
    {"kv/tso/rr/q1/t4", 0x87a4f9aea2bc7da0ULL, 0x0000000000000000ULL},
    {"kv/tso/rr/q4/t4", 0x3a3b56a92673a2a6ULL, 0x0000000000000000ULL},
    {"kv/tso/rr/q64/t4", 0x1577ad1309c03569ULL, 0x0000000000000000ULL},
    {"kv/tso/random/q1/t4", 0x9c642489f284392dULL, 0x0000000000000000ULL},
    {"kv/tso/random/q4/t4", 0x76210c8c241f2dccULL, 0x0000000000000000ULL},
    {"kv/tso/random/q64/t4", 0xabb5afbccf26b534ULL, 0x0000000000000000ULL},
    {"kv/tso/replay-rr/t4", 0x51a9a7ae4bc175faULL, 0x8013455cfd3d15c7ULL},
    {"kv/tso/replay-random/t4", 0xd75eaad954e13193ULL, 0x8b415d460906d204ULL},
    {"queue/sc/rr/q1/t1", 0xa9704a1d5a8a0d7bULL, 0x0000000000000000ULL},
    {"queue/sc/rr/q4/t1", 0xa9704a1d5a8a0d7bULL, 0x0000000000000000ULL},
    {"queue/sc/rr/q64/t1", 0xa9704a1d5a8a0d7bULL, 0x0000000000000000ULL},
    {"queue/sc/random/q1/t1", 0xa9704a1d5a8a0d7bULL, 0x0000000000000000ULL},
    {"queue/sc/random/q4/t1", 0xa9704a1d5a8a0d7bULL, 0x0000000000000000ULL},
    {"queue/sc/random/q64/t1", 0xa9704a1d5a8a0d7bULL, 0x0000000000000000ULL},
    {"queue/sc/replay-rr/t1", 0xa9704a1d5a8a0d7bULL, 0xcbf29ce484222325ULL},
    {"queue/sc/replay-random/t1", 0xa9704a1d5a8a0d7bULL, 0xcbf29ce484222325ULL},
    {"queue/sc/rr/q1/t2", 0x8e6b5c0cdbcae2dcULL, 0x0000000000000000ULL},
    {"queue/sc/rr/q4/t2", 0x58c44635da66fab9ULL, 0x0000000000000000ULL},
    {"queue/sc/rr/q64/t2", 0xdb4172efcf36bde9ULL, 0x0000000000000000ULL},
    {"queue/sc/random/q1/t2", 0xdf4da4ae31d92bf0ULL, 0x0000000000000000ULL},
    {"queue/sc/random/q4/t2", 0x7e8d51d6e7d8f4a4ULL, 0x0000000000000000ULL},
    {"queue/sc/random/q64/t2", 0xcfe8e78d3f06ff7cULL, 0x0000000000000000ULL},
    {"queue/sc/replay-rr/t2", 0x214616cbeaea80ccULL, 0x0ddad811d70c9cf7ULL},
    {"queue/sc/replay-random/t2", 0xfb4797d36bcaa596ULL, 0x6a8a0d626790d7f5ULL},
    {"queue/sc/rr/q1/t4", 0x0f97d81f2d4fa940ULL, 0x0000000000000000ULL},
    {"queue/sc/rr/q4/t4", 0xd0d9175cd7655197ULL, 0x0000000000000000ULL},
    {"queue/sc/rr/q64/t4", 0x9d9cceb6b6cd33a1ULL, 0x0000000000000000ULL},
    {"queue/sc/random/q1/t4", 0xee8079aa8671a0d8ULL, 0x0000000000000000ULL},
    {"queue/sc/random/q4/t4", 0x84c1e6467b5aab30ULL, 0x0000000000000000ULL},
    {"queue/sc/random/q64/t4", 0xaea9515eac508e58ULL, 0x0000000000000000ULL},
    {"queue/sc/replay-rr/t4", 0xbb1a8ebc9bca0f18ULL, 0x9a0f12804f624ea1ULL},
    {"queue/sc/replay-random/t4", 0xa8e1272648dbfb54ULL, 0xc888f59eeed03436ULL},
    {"queue/tso/rr/q1/t1", 0x148e1ce9869dc2ebULL, 0x0000000000000000ULL},
    {"queue/tso/rr/q4/t1", 0x148e1ce9869dc2ebULL, 0x0000000000000000ULL},
    {"queue/tso/rr/q64/t1", 0x148e1ce9869dc2ebULL, 0x0000000000000000ULL},
    {"queue/tso/random/q1/t1", 0x148e1ce9869dc2ebULL, 0x0000000000000000ULL},
    {"queue/tso/random/q4/t1", 0x148e1ce9869dc2ebULL, 0x0000000000000000ULL},
    {"queue/tso/random/q64/t1", 0x148e1ce9869dc2ebULL, 0x0000000000000000ULL},
    {"queue/tso/replay-rr/t1", 0x148e1ce9869dc2ebULL, 0xcbf29ce484222325ULL},
    {"queue/tso/replay-random/t1", 0x148e1ce9869dc2ebULL, 0xcbf29ce484222325ULL},
    {"queue/tso/rr/q1/t2", 0x494d9d15ffb43b39ULL, 0x0000000000000000ULL},
    {"queue/tso/rr/q4/t2", 0x38ea9c48f3fd16faULL, 0x0000000000000000ULL},
    {"queue/tso/rr/q64/t2", 0x8fb9383973facda1ULL, 0x0000000000000000ULL},
    {"queue/tso/random/q1/t2", 0xce342251f48a45e3ULL, 0x0000000000000000ULL},
    {"queue/tso/random/q4/t2", 0x9c7a347e2ba84f21ULL, 0x0000000000000000ULL},
    {"queue/tso/random/q64/t2", 0x8931cb69d14376c4ULL, 0x0000000000000000ULL},
    {"queue/tso/replay-rr/t2", 0x263043ca41b9e815ULL, 0xf14e4e85eb3efa76ULL},
    {"queue/tso/replay-random/t2", 0xc4b48253e4cc376dULL, 0x56b30077da995437ULL},
    {"queue/tso/rr/q1/t4", 0x12c976f37e538a1eULL, 0x0000000000000000ULL},
    {"queue/tso/rr/q4/t4", 0xafc0114b70a0626aULL, 0x0000000000000000ULL},
    {"queue/tso/rr/q64/t4", 0xb8c663922ff06621ULL, 0x0000000000000000ULL},
    {"queue/tso/random/q1/t4", 0x16cc57e987aec74aULL, 0x0000000000000000ULL},
    {"queue/tso/random/q4/t4", 0xd66793caabe946c2ULL, 0x0000000000000000ULL},
    {"queue/tso/random/q64/t4", 0x3d28fbd717e2ac4cULL, 0x0000000000000000ULL},
    {"queue/tso/replay-rr/t4", 0x4967d716b13dad69ULL, 0xef428eedb1117561ULL},
    {"queue/tso/replay-random/t4", 0x83825d017af02248ULL, 0x0c20741356f12c81ULL},
};
// clang-format on

void
checkMatrix(const std::string &workload)
{
    std::map<std::string, const Pin *> expected;
    for (const Pin &pin : pins)
        expected[pin.name] = &pin;
    for (const auto &[name, hashes] : runMatrix(workload)) {
        char actual[128];
        std::snprintf(actual, sizeof(actual),
                      "    {\"%s\", 0x%016llxULL, 0x%016llxULL},",
                      name.c_str(),
                      static_cast<unsigned long long>(hashes.trace),
                      static_cast<unsigned long long>(hashes.decisions));
        auto it = expected.find(name);
        if (it == expected.end()) {
            ADD_FAILURE() << "no pin for\n" << actual;
            continue;
        }
        EXPECT_EQ(hashes.trace, it->second->trace) << actual;
        EXPECT_EQ(hashes.decisions, it->second->decisions) << actual;
    }
}

TEST(TraceIdentity, KvRouterTxnMix)
{
    checkMatrix("kv");
}

TEST(TraceIdentity, QueueProgram)
{
    checkMatrix("queue");
}

} // namespace
} // namespace persim
