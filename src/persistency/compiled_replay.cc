#include "persistency/compiled_replay.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "common/bitops.hh"
#include "common/error.hh"
#include "persistency/segment_compile.hh"

namespace persim {
namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** The compile-relevant slice of a TimingConfig (mirrors the engine
    constructor's unpacking). */
CompileSpec
specFor(const TimingConfig &config)
{
    config.model.validate();
    CompileSpec spec;
    spec.track_shift = log2Exact(config.model.tracking_granularity);
    spec.atomic_shift = log2Exact(config.model.atomic_granularity);
    spec.unified = spec.track_shift == spec.atomic_shift;
    spec.all_scope =
        config.model.conflict_scope == ConflictScope::AllAddresses;
    spec.detect_races = config.detect_races;
    spec.px86 = config.model.kind == ModelKind::Px86;
    return spec;
}

/**
 * Dependence summary for the fast path: Tag with the persist-id
 * witness and dep-set handle elided. In the eligible configurations
 * nothing observable reads Tag::src (no logs, no deps, no races, no
 * plugins, no window), so tag validity degenerates to t > 0 and the
 * tag fits 24 bytes — 40% less bank traffic than the engine's Tag.
 */
struct FastTag
{
    double t = 0.0;
    double oth = 0.0;
    std::uint64_t block = ~0ULL;
};

/** mergeInto() minus the src/deps bookkeeping (same case analysis). */
inline void
fmerge(FastTag &dst, const FastTag &cand)
{
    if (cand.t == 0.0)
        return;
    if (dst.t == 0.0) {
        dst = cand;
        return;
    }
    if (dst.block == cand.block && dst.t == cand.t) {
        if (cand.oth > dst.oth)
            dst.oth = cand.oth;
        return;
    }
    if (cand.t > dst.t) {
        double oth = dst.t > dst.oth ? dst.t : dst.oth;
        if (cand.oth > oth)
            oth = cand.oth;
        dst.t = cand.t;
        dst.oth = oth;
        dst.block = cand.block;
        return;
    }
    double oth = cand.t > cand.oth ? cand.t : cand.oth;
    if (dst.oth > oth)
        oth = dst.oth;
    dst.oth = oth;
}

} // namespace

std::uint64_t
compiledSpecFingerprint(const TimingConfig &config)
{
    // One byte per fact (shifts are < 64), so equal fingerprints mean
    // equal specs: no hash, no collisions.
    const CompileSpec spec = specFor(config);
    return std::uint64_t{spec.track_shift} |
        std::uint64_t{spec.atomic_shift} << 8 |
        std::uint64_t{spec.unified} << 16 |
        std::uint64_t{spec.all_scope} << 24 |
        std::uint64_t{spec.detect_races} << 32 |
        std::uint64_t{spec.px86} << 40;
}

bool
compiledFastEligible(const TimingConfig &config)
{
    return config.model.kind != ModelKind::Px86 &&
        config.clock == ClockMode::Levels &&
        config.mutant == EngineMutant::None && !config.record_log &&
        !config.record_deps && !config.detect_races &&
        config.coalesce_window == 0 && config.plugins.empty() &&
        config.model.conflict_scope == ConflictScope::AllAddresses &&
        config.model.detect_load_before_store &&
        config.model.tracking_granularity ==
            config.model.atomic_granularity;
}

CompiledTrace
compileTrace(const TraceEvent *events, std::size_t count,
             const TimingConfig &config, std::uint32_t jobs,
             TaskPool *pool)
{
    PERSIM_REQUIRE(events != nullptr || count == 0,
                   "compileTrace needs a valid event range");
    const CompileSpec spec = specFor(config);

    if (jobs == 0)
        jobs = TaskPool::defaultWorkers();

    // A few segments per worker (load balance for skewed event
    // mixes), with a floor so tiny traces are not over-split.
    constexpr std::uint64_t min_segment = 16384;
    const std::uint64_t seg = std::max<std::uint64_t>(
        min_segment, count / (4ULL * jobs + 1));
    const std::size_t segments =
        count == 0 ? 0 : (count + seg - 1) / seg;

    std::unique_ptr<TaskPool> owned;
    if (pool == nullptr && jobs > 1 && segments > 1) {
        owned = std::make_unique<TaskPool>(jobs);
        pool = owned.get();
    }

    std::vector<SegmentProgram> programs(segments);
    const auto compile_one = [&](std::size_t i) {
        const std::size_t begin = i * seg;
        const std::size_t n = std::min<std::size_t>(seg, count - begin);
        compileSegment(events + begin, n, spec, programs[i]);
    };
    if (jobs <= 1 || segments <= 1 || pool == nullptr) {
        for (std::size_t i = 0; i < segments; ++i)
            compile_one(i);
    } else {
        pool->parallelFor(segments, compile_one);
    }

    // Serial renumber: local slots -> one global first-touch order,
    // exactly the order the engine's own interning would produce when
    // replaying the events serially. The generic executor re-interns
    // these keys into a fresh engine and asserts the identity, so the
    // compiled slot numbering is provably the engine's.
    CompiledTrace out;
    out.spec_fp = compiledSpecFingerprint(config);

    std::uint64_t total_ops = 0;
    for (const SegmentProgram &program : programs)
        total_ops += program.ops.size();
    out.kind.reserve(total_ops);
    out.size.reserve(total_ops);
    out.flags.reserve(total_ops);
    out.thread.reserve(total_ops);
    out.tslot.reserve(total_ops);
    out.aslot.reserve(total_ops);
    out.addr.reserve(total_ops);
    out.value.reserve(total_ops);
    out.seq.reserve(total_ops);

    // Sharded: whole-trace renumbering interns every distinct block
    // in the trace through one table (millions of keys for the big
    // sweeps), where the sharded rehash/locality behavior pays.
    ShardedIndexMap track_global;
    ShardedIndexMap atomic_global;
    std::vector<std::uint32_t> tmap;
    std::vector<std::uint32_t> amap;
    for (SegmentProgram &program : programs) {
        tmap.clear();
        tmap.reserve(program.track_keys.size());
        for (const std::uint64_t key : program.track_keys) {
            bool inserted = false;
            const std::uint32_t slot =
                track_global.findOrInsert(key, inserted);
            if (inserted)
                out.track_keys.push_back(key);
            tmap.push_back(slot);
        }
        amap.clear();
        amap.reserve(program.atomic_keys.size());
        for (const std::uint64_t key : program.atomic_keys) {
            bool inserted = false;
            const std::uint32_t slot =
                atomic_global.findOrInsert(key, inserted);
            if (inserted)
                out.atomic_keys.push_back(key);
            amap.push_back(slot);
        }

        for (const MicroOp &op : program.ops) {
            out.kind.push_back(op.kind);
            out.size.push_back(op.size);
            out.flags.push_back(static_cast<std::uint8_t>(
                (op.is_write ? compiled_flag_write : 0u) |
                (op.kind == MicroOp::Piece && isPersistentAddr(op.addr)
                     ? compiled_flag_persistent
                     : 0u)));
            out.thread.push_back(op.thread);
            out.tslot.push_back(op.tslot == no_local
                                    ? compiled_no_slot
                                    : tmap[op.tslot]);
            out.aslot.push_back(op.aslot == no_local
                                    ? compiled_no_slot
                                    : amap[op.aslot]);
            out.addr.push_back(op.addr);
            out.value.push_back(op.value);
            out.seq.push_back(op.seq);
            if (op.thread >= out.thread_count)
                out.thread_count = op.thread + 1;
        }
        out.events += program.events;
        program = SegmentProgram{};
    }
    out.buildRuns();
    return out;
}

/**
 * Friend of PersistTimingEngine: both compiled execution paths.
 */
class CompiledReplayer
{
  public:
    /**
     * Fast path: strict / epoch / strand on the Levels clock with
     * unified granularity, all-address scope, load tracking, and no
     * observers. STRICT folds dependences into epoch_dep immediately;
     * STRAND additionally honors NewStrand resets.
     *
     * Correctness leans on three facts proved in DESIGN.md Section 17
     * (and pinned by the bit-identity tests):
     *
     *  1. nothing observable reads Tag::src in these configurations,
     *     so tag validity is exactly t > 0 and src can be elided;
     *  2. in unified mode a persist piece's tracking slot *is* its
     *     atomic slot and the tracked block equals the persist block,
     *     so the store-conflict merge makes dep.t >= last.t always:
     *     the engine's same-block serialization arm (base = last.t
     *     when last.t > dep.t) is unreachable and the issue time is
     *     simply tmax + 1;
     *  3. coalescing requires dep.t == last.t with everything outside
     *     the pending group strictly earlier, which is decidable from
     *     the three unmerged sources (epoch, store tag, load tag)
     *     without materializing the merged dependence summary — the
     *     merge itself is only needed on persists, and only its
     *     (t, block) result, never a full Tag.
     */
    template <bool STRICT, bool STRAND>
    static TimingResult
    runFast(const CompiledTraceView &view, unsigned atomic_shift,
            std::uint32_t thread_count)
    {
        struct FThread
        {
            FastTag epoch;
            FastTag accum;
        };

        TimingResult res;
        std::vector<FastTag> ts(view.track_slots);
        std::vector<FastTag> tl(view.track_slots);
        std::vector<FThread> threads(thread_count ? thread_count : 1);

        const std::uint8_t *kind = view.kind;
        const std::uint8_t *flags = view.flags;
        const std::uint32_t *thr = view.thread;
        const std::uint32_t *tsl = view.tslot;
        const std::uint64_t *addr = view.addr;
        double critical = 0.0;

        std::uint64_t i = 0;
        for (std::uint64_t r = 0; r < view.runs; ++r) {
            const std::uint64_t end = i + view.run_len[r];
            const std::uint8_t rk = view.run_kind[r];
            if (rk == MicroOp::Piece) {
                for (; i < end; ++i) {
                    FThread &thread = threads[thr[i]];
                    const std::uint32_t slot = tsl[i];
                    FastTag &epoch = thread.epoch;
                    FastTag &sink =
                        STRICT ? thread.epoch : thread.accum;
                    const std::uint8_t fl = flags[i];
                    if (!(fl & compiled_flag_write)) {
                        // Load: inherit the block's store order,
                        // record the load for later conflicting
                        // stores.
                        fmerge(sink, ts[slot]);
                        fmerge(tl[slot], epoch);
                        continue;
                    }
                    if (fl & compiled_flag_persistent) {
                        FastTag &tss = ts[slot];
                        const std::uint64_t block =
                            addr[i] >> atomic_shift;
                        ++res.persists;
                        const double last_t = tss.t;
                        double tmax =
                            epoch.t > tss.t ? epoch.t : tss.t;
                        if (tl[slot].t > tmax)
                            tmax = tl[slot].t;
                        bool coalesce = false;
                        if (last_t != 0.0 && tmax == last_t) {
                            // The pending group is the dependence
                            // argmax; coalesce unless a dependence
                            // outside that group also reaches last_t.
                            // Closed form of the three-way merge's
                            // (block, oth) result.
                            const FastTag &tll = tl[slot];
                            double oth = epoch.oth > tss.oth
                                ? epoch.oth
                                : tss.oth;
                            if (tll.oth > oth)
                                oth = tll.oth;
                            const bool e_in = epoch.t == last_t &&
                                epoch.block == block;
                            if (!e_in && epoch.t > oth)
                                oth = epoch.t;
                            const bool l_in = tll.t == last_t &&
                                tll.block == block;
                            if (!l_in && tll.t > oth)
                                oth = tll.t;
                            coalesce = !(epoch.t == last_t &&
                                         epoch.block != block) &&
                                oth < last_t;
                        }
                        if (coalesce) {
                            ++res.coalesced;
                            const FastTag out{last_t, 0.0, block};
                            fmerge(sink, out);
                        } else {
                            const double time = tmax + 1.0;
                            const double oth_ts =
                                tss.t > tss.oth ? tss.t : tss.oth;
                            tss.t = time;
                            tss.oth = oth_ts;
                            tss.block = block;
                            if (STRICT) {
                                // epoch_dep always holds the latest
                                // persist: overwrite, don't merge.
                                const double oth_e = sink.t > sink.oth
                                    ? sink.t
                                    : sink.oth;
                                sink.t = time;
                                sink.oth = oth_e;
                                sink.block = block;
                            } else {
                                // accum is NOT part of dep, so the
                                // new persist may be older than what
                                // accum already holds: full merge.
                                fmerge(sink,
                                       FastTag{time, 0.0, block});
                            }
                            if (time > critical)
                                critical = time;
                        }
                    } else if (STRICT) {
                        fmerge(epoch, ts[slot]);
                        fmerge(epoch, tl[slot]);
                        fmerge(ts[slot], epoch);
                    } else {
                        // Volatile store: dep = epoch + conflicts.
                        FastTag dep = epoch;
                        fmerge(dep, ts[slot]);
                        fmerge(dep, tl[slot]);
                        fmerge(sink, dep);
                        fmerge(ts[slot], epoch);
                    }
                }
                continue;
            }
            for (; i < end; ++i) {
                FThread &thread = threads[thr[i]];
                switch (rk) {
                  case MicroOp::Barrier:
                    ++res.barriers;
                    if (!STRICT)
                        fmerge(thread.epoch, thread.accum);
                    break;
                  case MicroOp::Flush:
                    ++res.flushes;
                    break;
                  case MicroOp::FenceOp:
                    ++res.fences;
                    if (!STRICT)
                        fmerge(thread.epoch, thread.accum);
                    break;
                  case MicroOp::Strand:
                    ++res.strands;
                    if (STRAND) {
                        thread.epoch = FastTag{};
                        thread.accum = FastTag{};
                    }
                    break;
                  case MicroOp::OpEnd:
                    ++res.ops;
                    break;
                  default:
                    // OpBegin/RoleData/RoleHead only drive log and
                    // plugin metadata, unobservable on this path.
                    break;
                }
            }
        }
        (void)kind;
        res.critical_path = critical;
        res.events += view.events;
        return res;
    }

    /** Generic path: the engine's own inline handlers over the
        columns, slots handed to the engine in compiled order. */
    static TimingResult
    runGeneric(const CompiledTraceView &view, const TimingConfig &config,
               const CompiledReplayOptions &options, PersistLog *log_out)
    {
        PersistTimingEngine engine(config);

        // Pre-intern the compiled slot tables. The engine's map is
        // empty, so insertion order is slot order — the identity
        // check below turns "the compiled numbering matches the
        // engine's" from an assumption into an invariant.
        for (std::uint64_t i = 0; i < view.track_slots; ++i) {
            const std::uint32_t slot =
                engine.trackSlot(view.track_keys[i]);
            PERSIM_REQUIRE(slot == i,
                           "corrupt compiled trace: tracking key table "
                           "entry " << i << " interned to slot "
                               << slot
                               << " (duplicate key in the table?)");
        }
        if (!engine.unified_) {
            for (std::uint64_t i = 0; i < view.atomic_slots; ++i) {
                const std::uint32_t slot =
                    engine.atomicSlot(view.atomic_keys[i]);
                PERSIM_REQUIRE(slot == i,
                               "corrupt compiled trace: atomic key "
                               "table entry " << i
                                   << " interned to slot " << slot
                                   << " (duplicate key in the "
                                      "table?)");
            }
        }

        const std::uint32_t jobs = options.jobs > 0
            ? options.jobs
            : TaskPool::defaultWorkers();
        TaskPool *pool = options.pool;
        std::unique_ptr<TaskPool> owned;
        if (pool == nullptr && jobs > 1 && engine.config_.record_log) {
            owned = std::make_unique<TaskPool>(jobs);
            pool = owned.get();
        }
        const bool parallel_log =
            engine.config_.record_log && jobs > 1 && pool != nullptr;
        engine.defer_log_ = parallel_log;

        std::uint64_t i = 0;
        for (std::uint64_t r = 0; r < view.runs; ++r) {
            const std::uint64_t end = i + view.run_len[r];
            for (; i < end; ++i) {
                PersistTimingEngine::ThreadState &thread =
                    engine.threadState(view.thread[i]);
                switch (view.kind[i]) {
                  case MicroOp::Piece:
                    engine.handlePieceAt(
                        view.tslot[i], view.aslot[i], view.seq[i],
                        view.thread[i], thread, view.addr[i],
                        view.size[i], view.value[i],
                        (view.flags[i] & compiled_flag_write) != 0);
                    break;
                  case MicroOp::Barrier:
                    engine.handleBarrierEvent(view.seq[i],
                                              view.thread[i], thread);
                    break;
                  case MicroOp::Flush:
                    engine.handleFlushEvent(
                        (view.flags[i] & compiled_flag_write) != 0,
                        view.seq[i], view.thread[i], thread,
                        view.addr[i],
                        view.tslot[i] != compiled_no_slot
                            ? view.tslot[i]
                            : view.aslot[i]);
                    break;
                  case MicroOp::FenceOp:
                    engine.handleFenceEvent(
                        (view.flags[i] & compiled_flag_write) != 0,
                        view.thread[i], thread);
                    break;
                  case MicroOp::Strand:
                    engine.handleStrandEvent(view.thread[i], thread);
                    break;
                  case MicroOp::OpBegin:
                    thread.op = view.value[i];
                    thread.role = PersistRole::None;
                    break;
                  case MicroOp::OpEnd:
                    ++engine.result_.ops;
                    thread.op = no_operation;
                    thread.role = PersistRole::None;
                    break;
                  case MicroOp::RoleData:
                    thread.role = PersistRole::Data;
                    break;
                  case MicroOp::RoleHead:
                    thread.role = PersistRole::Head;
                    break;
                  default:
                    break;
                }
            }
        }
        engine.result_.events += view.events;
        engine.onFinish();

        if (parallel_log) {
            // Deferred materialization: record construction (field
            // copies plus dep-set vector builds) fans out after the
            // serial pass. onFinish flushed the staged tail, so
            // deferred_ holds every record in final log order, and
            // materializeRecord only reads the post-replay dep-set
            // pool, so the chunks are race-free.
            const auto &deferred = engine.deferred_;
            PersistLog &log = engine.log_;
            log.resize(deferred.size());
            const std::size_t per = deferred.size() / (4ULL * jobs) + 1;
            const std::size_t chunks =
                (deferred.size() + per - 1) / per;
            pool->parallelFor(chunks, [&](std::size_t c) {
                const std::size_t begin = c * per;
                const std::size_t end_r =
                    std::min(begin + per, deferred.size());
                for (std::size_t k = begin; k < end_r; ++k)
                    log[k] = engine.materializeRecord(deferred[k]);
            });
            engine.deferred_.clear();
            engine.deferred_.shrink_to_fit();
            engine.defer_log_ = false;
        }

        if (log_out != nullptr)
            *log_out = engine.takeLog();
        return engine.result();
    }
};

TimingResult
compiledReplay(const CompiledTraceView &view, const TimingConfig &config,
               const CompiledReplayOptions &options, PersistLog *log_out,
               CompiledReplayStats *stats)
{
    const std::uint64_t want_fp = compiledSpecFingerprint(config);
    PERSIM_REQUIRE(view.spec_fp == want_fp,
                   "compiled trace was built under a different compile "
                   "spec (trace 0x"
                       << std::hex << view.spec_fp << ", config 0x"
                       << want_fp
                       << "): recompile it for this configuration");

    // Per-op invariants (piece slots/sizes, thread bounds) hold by
    // construction in compileTrace's output; an O(n) check here would
    // cost ~20% of a fast-path replay.
    const std::uint32_t thread_count = view.thread_count;
    const bool fast = compiledFastEligible(config) && log_out == nullptr;

    const auto start = std::chrono::steady_clock::now();
    TimingResult result;
    if (fast) {
        const unsigned shift =
            log2Exact(config.model.atomic_granularity);
        switch (config.model.kind) {
          case ModelKind::Strict:
            result = CompiledReplayer::runFast<true, false>(
                view, shift, thread_count);
            break;
          case ModelKind::Strand:
            result = CompiledReplayer::runFast<false, true>(
                view, shift, thread_count);
            break;
          default:
            result = CompiledReplayer::runFast<false, false>(
                view, shift, thread_count);
            break;
        }
    } else {
        result = CompiledReplayer::runGeneric(view, config, options,
                                              log_out);
    }
    if (stats != nullptr) {
        stats->fast_path = fast;
        stats->micro_ops = view.micro_ops;
        stats->exec_seconds = secondsSince(start);
    }
    return result;
}

} // namespace persim
