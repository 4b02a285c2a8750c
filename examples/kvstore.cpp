/**
 * @file
 * Persistent key-value store example: a fixed-size open-addressing
 * hash table in NVRAM, with the publish-after-data discipline and
 * strand annotations.
 *
 * Bucket layout (24 bytes): [key][value][state], state 0 = empty,
 * 1 = live. Inserting a new key writes key+value, persist-barriers,
 * then publishes state=1; updating an existing key is a single
 * atomic 8-byte persist of the value (strong persist atomicity makes
 * versions of one cell well-ordered with no barrier at all).
 *
 * The demo runs concurrent writers, reports persist concurrency under
 * the three models, and crash-tests the invariant that every live
 * bucket always holds a (key, value) pair some writer actually wrote.
 */

#include <iostream>

#include "persistency/timing_engine.hh"
#include "recovery/fault_campaign.hh"
#include "recovery/recovery.hh"
#include "sim/engine.hh"
#include "sync/locks.hh"

using namespace persim;

namespace {

constexpr std::uint64_t bucket_count = 256; // Power of two.
constexpr std::uint64_t bucket_bytes = 24;
constexpr std::uint64_t key_off = 0;
constexpr std::uint64_t value_off = 8;
constexpr std::uint64_t state_off = 16;

/** The canonical value any writer stores for (key, version). */
std::uint64_t
valueFor(std::uint64_t key, std::uint64_t version)
{
    return key * 1000003 + version;
}

std::uint64_t
hashKey(std::uint64_t key)
{
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 33;
    return key;
}

/** A persistent hash table bound to one simulated memory region. */
class PersistentKv
{
  public:
    static PersistentKv
    create(ThreadCtx &ctx, std::size_t threads)
    {
        PersistentKv kv;
        kv.table_ = ctx.pmalloc(bucket_count * bucket_bytes, 64);
        // Zero-fill is implicit (fresh simulated memory); publish the
        // empty table before first use.
        ctx.persistBarrier();
        kv.lock_ = McsLock::create(ctx);
        for (std::size_t i = 0; i < threads; ++i)
            kv.qnodes_.push_back(McsLock::createQnode(ctx));
        return kv;
    }

    /**
     * Insert or update. The bucket array is guarded by one lock (the
     * interesting concurrency here is between persists, not probes).
     */
    void
    put(ThreadCtx &ctx, std::size_t slot, std::uint64_t key,
        std::uint64_t value)
    {
        McsGuard guard(ctx, lock_, qnodes_[slot]);
        // Independent of whatever this thread persisted before.
        ctx.newStrand();
        std::uint64_t index = hashKey(key) % bucket_count;
        for (std::uint64_t probe = 0; probe < bucket_count; ++probe) {
            const Addr bucket = table_ + index * bucket_bytes;
            const std::uint64_t state = ctx.load(bucket + state_off);
            if (state == 0) {
                // Fresh bucket: write data, barrier, publish.
                ctx.store(bucket + key_off, key);
                ctx.store(bucket + value_off, value);
                ctx.persistBarrier();
                ctx.store(bucket + state_off, 1);
                return;
            }
            if (ctx.load(bucket + key_off) == key) {
                // Update in place: one atomic persist, ordered against
                // other versions of this cell by strong persist
                // atomicity alone.
                ctx.store(bucket + value_off, value);
                return;
            }
            index = (index + 1) % bucket_count;
        }
        PERSIM_FATAL("kv table full");
    }

    /** Lock-free read (for the demo's final verification). */
    bool
    get(ThreadCtx &ctx, std::uint64_t key, std::uint64_t &value)
    {
        std::uint64_t index = hashKey(key) % bucket_count;
        for (std::uint64_t probe = 0; probe < bucket_count; ++probe) {
            const Addr bucket = table_ + index * bucket_bytes;
            if (ctx.load(bucket + state_off) == 0)
                return false;
            if (ctx.load(bucket + key_off) == key) {
                value = ctx.load(bucket + value_off);
                return true;
            }
            index = (index + 1) % bucket_count;
        }
        return false;
    }

    Addr table() const { return table_; }

  private:
    Addr table_ = 0;
    McsLock lock_;
    std::vector<Addr> qnodes_;
};

/** Crash invariant: every live bucket holds a plausible version. */
std::string
checkImage(const MemoryImage &image, Addr table,
           std::uint64_t max_version)
{
    for (std::uint64_t i = 0; i < bucket_count; ++i) {
        const Addr bucket = table + i * bucket_bytes;
        if (image.load(bucket + state_off, 8) != 1)
            continue;
        const std::uint64_t key = image.load(bucket + key_off, 8);
        const std::uint64_t value = image.load(bucket + value_off, 8);
        const std::uint64_t version = value - key * 1000003;
        if (version < 1 || version > max_version)
            return "live bucket " + std::to_string(i) +
                " holds a value no writer wrote";
    }
    return "";
}

} // namespace

int
main()
{
    std::cout << "persim example: persistent key-value store\n\n";

    constexpr std::uint32_t threads = 4;
    constexpr std::uint64_t puts_per_thread = 60;
    constexpr std::uint64_t key_space = 48;
    constexpr std::uint64_t max_version = 4; // Updates per key bound.

    PersistTimingEngine strict({.model = ModelConfig::strict()});
    PersistTimingEngine epoch({.model = ModelConfig::epoch()});
    PersistTimingEngine strand({.model = ModelConfig::strand()});
    InMemoryTrace trace;
    FanoutSink fanout;
    for (TraceSink *sink : std::vector<TraceSink *>{&strict, &epoch,
                                                    &strand, &trace})
        fanout.addSink(sink);

    EngineConfig config;
    config.seed = 7;
    config.quantum = 5;
    ExecutionEngine engine(config, &fanout);

    PersistentKv kv;
    engine.runSetup([&kv](ThreadCtx &ctx) {
        kv = PersistentKv::create(ctx, threads);
    });

    std::vector<ExecutionEngine::WorkerFn> workers;
    for (std::uint32_t t = 0; t < threads; ++t) {
        workers.push_back([&kv, t](ThreadCtx &ctx) {
            for (std::uint64_t i = 0; i < puts_per_thread; ++i) {
                const std::uint64_t key = (t * 17 + i * 5) % key_space;
                const std::uint64_t version = 1 + (i % max_version);
                kv.put(ctx, t, key, valueFor(key, version));
            }
            // Read back a few keys through the public API.
            std::uint64_t value = 0;
            if (!kv.get(ctx, (t * 17) % key_space, value))
                PERSIM_FATAL("lost a key this thread inserted");
        });
    }
    engine.run(workers);

    std::cout << "applied " << threads * puts_per_thread
              << " puts over " << key_space << " keys\n\n"
              << "persist concurrency (critical path, levels):\n";
    for (const auto *analysis : {&strict, &epoch, &strand}) {
        std::cout << "  " << analysis->config().model.name() << ": "
                  << analysis->result().critical_path << " total ("
                  << analysis->result().coalesced << "/"
                  << analysis->result().persists << " coalesced)\n";
    }

    std::cout << "\ncrash-recovery check (strand persistency):\n";
    InjectionConfig injection;
    injection.model = ModelConfig::strand();
    injection.realizations = 10;
    injection.crashes_per_realization = 50;
    const Addr table = kv.table();
    const auto result = runFaultCampaign(
        trace, {.injection = injection},
        [table](const MemoryImage &image) {
            return checkImage(image, table, max_version);
        });
    std::cout << "  " << result.samples << " crash states, "
              << result.violations << " violations\n";
    if (!result.ok())
        std::cout << "  first: " << result.first_violation << "\n";

    std::cout << (result.ok()
                  ? "\nPublish-after-barrier plus strong persist "
                    "atomicity for in-place\nupdates keeps every crash "
                    "state consistent, even under the most\nrelaxed "
                    "model.\n"
                  : "\nBUG in the kv annotations.\n");
    return result.ok() ? 0 : 1;
}
