#include "persistency/compiled_replay.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/bitops.hh"
#include "common/error.hh"
#include "common/flat_map.hh"

namespace persim {
namespace {

static_assert(kMaxEventKind ==
                  static_cast<std::uint8_t>(EventKind::FullFence),
              "EventKind grew: teach compileTrace about the new kinds, "
              "then update this assertion");

/** Why the fast executor cannot run @p config; nullptr if it can. */
const char *
ineligibility(const TimingConfig &config)
{
    if (config.clock != ClockMode::Levels)
        return "the stochastic clock needs the engine";
    if (config.mutant != EngineMutant::None)
        return "engine mutants run on the engine only";
    if (config.record_log || config.record_deps)
        return "record_log/record_deps need the engine's persist log";
    if (config.detect_races)
        return "detect_races needs the engine's SC shadow";
    if (config.coalesce_window != 0)
        return "a coalescing window needs persist ids";
    if (config.model.conflict_scope != ConflictScope::AllAddresses)
        return "a persistent-only conflict scope (bpfs) needs the "
               "engine";
    if (config.model.kind == ModelKind::Px86) {
        if (config.model.detect_load_before_store)
            return "px86 with load-before-store tracking needs the "
                   "engine";
        if (config.model.tracking_granularity != 8)
            return "px86 needs 8-byte tracking, so that a dirty piece "
                   "is one word";
        return nullptr;
    }
    if (!config.model.detect_load_before_store)
        return "untracked loads (bpfs) need the engine";
    if (config.model.tracking_granularity !=
        config.model.atomic_granularity)
        return "tracking and atomic granularities differ";
    return nullptr;
}

/** Fatal, naming the reason, unless @p config is fast-eligible. */
void
requireEligible(const TimingConfig &config, const char *who)
{
    const char *why = ineligibility(config);
    PERSIM_REQUIRE(why == nullptr,
                   who << ": " << config.model.name()
                       << " config is not fast-eligible (" << why
                       << "); analyze it with replayTrace, which "
                          "replays it through the engine");
}

/**
 * Dependence summary for the fast path: Tag with the persist-id
 * witness and dep-set handle elided, in 12 bytes. In the eligible
 * configurations nothing observable reads Tag::src (no logs, no deps,
 * no races, no window), so tag validity degenerates to t > 0. Levels
 * are integers no larger than the micro-op count, which compileTrace
 * keeps below 2^32, and a block is its dense slot or line id.
 */
struct FastTag
{
    std::uint32_t t = 0;
    std::uint32_t oth = 0;
    std::uint32_t block = compiled_no_slot;
};

/** mergeInto() minus the src/deps bookkeeping (same case analysis). */
inline void
fmerge(FastTag &dst, const FastTag &cand)
{
    if (cand.t == 0)
        return;
    if (dst.t == 0) {
        dst = cand;
        return;
    }
    if (dst.block == cand.block && dst.t == cand.t) {
        if (cand.oth > dst.oth)
            dst.oth = cand.oth;
        return;
    }
    if (cand.t > dst.t) {
        std::uint32_t oth = dst.t > dst.oth ? dst.t : dst.oth;
        if (cand.oth > oth)
            oth = cand.oth;
        dst.t = cand.t;
        dst.oth = oth;
        dst.block = cand.block;
        return;
    }
    std::uint32_t oth = cand.t > cand.oth ? cand.t : cand.oth;
    if (dst.oth > oth)
        oth = dst.oth;
    dst.oth = oth;
}

/** strict / epoch / strand per-slot state: both conflict tags. */
struct SlotTags
{
    FastTag store;
    FastTag load;
};

/**
 * px86 per-line state. The line's dirty pieces are only counted: a
 * flush persists them all at one level (DESIGN.md Section 17.2), so
 * only the newest piece's word and shape are kept, for the same-word
 * overwrite rule.
 */
struct Px86Line
{
    /** Merged dependences of the dirty stores, or the last flush's
        persist while the line is clean. */
    FastTag ctx;
    std::uint32_t dirty = 0;
    std::uint32_t tail_slot = compiled_no_slot;
    /** Thread that last queued the line on its dirty list. */
    std::uint32_t mark = compiled_no_slot;
    std::uint8_t tail_shape = 0;
};

/**
 * The fast executor: strict / epoch / strand / px86 on the Levels
 * clock with all-address scope and no observers. Strict folds
 * dependences into epoch immediately; strand additionally honors
 * NewStrand resets; px86 parks persistent stores on their lines until
 * a flush or barrier persists them.
 *
 * Correctness leans on four facts proved in DESIGN.md Section 17
 * (and pinned by the bit-identity tests):
 *
 *  1. nothing observable reads Tag::src in these configurations, so
 *     tag validity is exactly t > 0 and src can be elided;
 *  2. in unified mode a persist piece's tracking slot *is* its atomic
 *     slot and the tracked block equals the persist block, so the
 *     store-conflict merge makes dep.t >= last.t always: the engine's
 *     same-block serialization arm (base = last.t when last.t > dep.t)
 *     is unreachable and the issue time is simply tmax + 1;
 *  3. coalescing requires dep.t == last.t with everything outside the
 *     pending group strictly earlier, which is decidable from the
 *     three unmerged sources (epoch, store tag, load tag) without
 *     materializing the merged dependence summary — the merge itself
 *     is only needed on persists, and only its (t, block) result,
 *     never a full Tag;
 *  4. under px86 a line's context dominates its last persist, so a
 *     flush of k dirty pieces is one persist at dep.t + 1 plus k - 1
 *     pieces coalesced into it.
 */
template <ModelKind KIND>
TimingResult
runFast(const CompiledTraceView &view)
{
    constexpr bool STRICT = KIND == ModelKind::Strict;
    constexpr bool STRAND = KIND == ModelKind::Strand;
    constexpr bool PX86 = KIND == ModelKind::Px86;

    struct FThread
    {
        FastTag epoch;
        FastTag accum;
        FastTag strong;                   //!< px86: clflush persists
        std::vector<std::uint32_t> dirty; //!< px86: lines to barrier
    };

    TimingResult res;
    std::vector<SlotTags> tags(PX86 ? 0 : view.track_slots);
    std::vector<FastTag> stores(PX86 ? view.track_slots : 0);
    std::vector<Px86Line> lines(PX86 ? view.lines : 0);
    std::vector<FThread> threads(view.thread_count ? view.thread_count
                                                   : 1);

    const std::uint8_t *flags = view.flags;
    const std::uint16_t *thr = view.thread;
    const std::uint32_t *tsl = view.tslot;
    const std::uint32_t *line_of = view.line;
    std::uint32_t critical = 0;

    // px86 flush of line @p li: persist its dirty pieces at one level
    // (the first founds a group, the rest coalesce into it) and route
    // the persist to the thread's strong or pending-fence order. A
    // clean line still orders the flush after its last persist.
    const auto flush = [&](FThread &thread, std::uint32_t li,
                           bool strong) {
        Px86Line &line = lines[li];
        FastTag &pending = strong ? thread.strong : thread.accum;
        if (line.dirty == 0) {
            fmerge(pending, line.ctx);
            return;
        }
        FastTag dep = thread.epoch;
        fmerge(dep, line.ctx);
        if (strong)
            fmerge(dep, thread.strong);
        const std::uint32_t time = dep.t + 1;
        res.persists += line.dirty;
        res.coalesced += line.dirty - 1;
        if (time > critical)
            critical = time;
        const FastTag out{time, 0, li};
        fmerge(pending, out);
        line.ctx = out;
        line.dirty = 0;
        line.tail_slot = compiled_no_slot;
        line.mark = compiled_no_slot;
    };
    const auto fence = [](FThread &thread) {
        fmerge(thread.epoch, thread.accum);
        if (PX86)
            fmerge(thread.epoch, thread.strong);
    };

    std::uint64_t i = 0;
    for (std::uint64_t r = 0; r < view.runs; ++r) {
        const std::uint64_t end = i + view.run_len[r];
        const auto rk = static_cast<CompiledOp>(view.run_kind[r]);
        if (rk == CompiledOp::Piece && PX86) {
            for (; i < end; ++i) {
                const std::uint32_t tid = thr[i];
                FThread &thread = threads[tid];
                FastTag &epoch = thread.epoch;
                const std::uint32_t slot = tsl[i];
                const std::uint8_t fl = flags[i];
                FastTag &store = stores[slot];
                if (!(fl & compiled_flag_write)) {
                    // Load: what the last store published is already
                    // durable, so it orders this thread's later
                    // persists without a fence.
                    fmerge(epoch, store);
                    continue;
                }
                FastTag dep = epoch;
                fmerge(dep, store);
                if (!(fl & compiled_flag_persistent)) {
                    fmerge(epoch, dep);
                    fmerge(store, epoch);
                    fmerge(store, thread.strong);
                    continue;
                }
                // Persistent store: dirty the line; it persists when a
                // flush or barrier covers the line.
                FastTag pdep = dep;
                fmerge(pdep, thread.strong);
                fmerge(pdep, epoch);
                const std::uint32_t li =
                    line_of != nullptr ? line_of[slot] : slot;
                Px86Line &line = lines[li];
                fmerge(line.ctx, pdep);
                const auto shape =
                    static_cast<std::uint8_t>(fl >> compiled_shape_shift);
                if (line.tail_slot != slot || line.tail_shape != shape) {
                    // Not a same-word overwrite of the newest dirty
                    // piece: a new piece.
                    ++line.dirty;
                    line.tail_slot = slot;
                    line.tail_shape = shape;
                }
                fmerge(store, pdep);
                if (line.mark != tid) {
                    line.mark = tid;
                    thread.dirty.push_back(li);
                }
            }
            continue;
        }
        if (rk == CompiledOp::Piece) {
            for (; i < end; ++i) {
                FThread &thread = threads[thr[i]];
                const std::uint32_t slot = tsl[i];
                SlotTags &cell = tags[slot];
                FastTag &epoch = thread.epoch;
                FastTag &sink = STRICT ? thread.epoch : thread.accum;
                const std::uint8_t fl = flags[i];
                if (!(fl & compiled_flag_write)) {
                    // Load: inherit the block's store order, record
                    // the load for later conflicting stores.
                    fmerge(sink, cell.store);
                    fmerge(cell.load, epoch);
                    continue;
                }
                if (fl & compiled_flag_persistent) {
                    FastTag &tss = cell.store;
                    const FastTag &tll = cell.load;
                    // Unified granularity: the tracking slot is the
                    // persist block.
                    const std::uint32_t block = slot;
                    ++res.persists;
                    const std::uint32_t last_t = tss.t;
                    std::uint32_t tmax = epoch.t > tss.t ? epoch.t : tss.t;
                    if (tll.t > tmax)
                        tmax = tll.t;
                    bool coalesce = false;
                    if (last_t != 0 && tmax == last_t) {
                        // The pending group is the dependence argmax;
                        // coalesce unless a dependence outside that
                        // group also reaches last_t. Closed form of
                        // the three-way merge's (block, oth) result.
                        std::uint32_t oth =
                            epoch.oth > tss.oth ? epoch.oth : tss.oth;
                        if (tll.oth > oth)
                            oth = tll.oth;
                        const bool e_in =
                            epoch.t == last_t && epoch.block == block;
                        if (!e_in && epoch.t > oth)
                            oth = epoch.t;
                        const bool l_in =
                            tll.t == last_t && tll.block == block;
                        if (!l_in && tll.t > oth)
                            oth = tll.t;
                        coalesce = !(epoch.t == last_t &&
                                     epoch.block != block) &&
                            oth < last_t;
                    }
                    if (coalesce) {
                        ++res.coalesced;
                        fmerge(sink, FastTag{last_t, 0, block});
                    } else {
                        const std::uint32_t time = tmax + 1;
                        tss.oth = tss.t > tss.oth ? tss.t : tss.oth;
                        tss.t = time;
                        tss.block = block;
                        if (STRICT) {
                            // epoch_dep always holds the latest
                            // persist: overwrite, don't merge.
                            sink.oth = sink.t > sink.oth ? sink.t : sink.oth;
                            sink.t = time;
                            sink.block = block;
                        } else {
                            // accum is NOT part of dep, so the new
                            // persist may be older than what accum
                            // already holds: full merge.
                            fmerge(sink, FastTag{time, 0, block});
                        }
                        if (time > critical)
                            critical = time;
                    }
                } else if (STRICT) {
                    fmerge(epoch, cell.store);
                    fmerge(epoch, cell.load);
                    fmerge(cell.store, epoch);
                } else {
                    // Volatile store: dep = epoch + conflicts.
                    FastTag dep = epoch;
                    fmerge(dep, cell.store);
                    fmerge(dep, cell.load);
                    fmerge(sink, dep);
                    fmerge(cell.store, epoch);
                }
            }
            continue;
        }
        for (; i < end; ++i) {
            FThread &thread = threads[thr[i]];
            switch (rk) {
              case CompiledOp::Barrier:
                ++res.barriers;
                if (PX86) {
                    // Canonical epoch->x86 compilation: weak-flush
                    // every line the thread dirtied, then sfence.
                    for (const std::uint32_t li : thread.dirty)
                        flush(thread, li, false);
                    thread.dirty.clear();
                }
                if (!STRICT)
                    fence(thread);
                break;
              case CompiledOp::Flush:
                ++res.flushes;
                if (PX86)
                    flush(thread, tsl[i],
                          (flags[i] & compiled_flag_clflush) != 0);
                break;
              case CompiledOp::Fence:
                ++res.fences;
                if (!STRICT)
                    fence(thread);
                break;
              case CompiledOp::Strand:
                ++res.strands;
                if (STRAND) {
                    thread.epoch = FastTag{};
                    thread.accum = FastTag{};
                }
                break;
              case CompiledOp::OpEnd:
                ++res.ops;
                break;
              case CompiledOp::Piece:
                break; // Handled above.
            }
        }
    }
    if (PX86)
        for (const Px86Line &line : lines)
            res.unflushed += line.dirty;
    res.critical_path = critical;
    res.events = view.events;
    return res;
}

/**
 * Line granularity shift of the program compiled for @p config: px86's
 * own line, and for the SC models the px86 preset's 64-byte line at
 * 8-byte tracking (no line column otherwise), so that px86 reuses it.
 */
unsigned
lineShift(const TimingConfig &config)
{
    if (config.model.kind == ModelKind::Px86)
        return log2Exact(config.model.atomic_granularity);
    if (config.model.tracking_granularity == 8)
        return log2Exact(cache_line_bytes);
    return log2Exact(config.model.tracking_granularity);
}

/** True when the program stamped @p spec_fp can replay @p config. */
bool
programFits(std::uint64_t spec_fp, const TimingConfig &config)
{
    const std::uint64_t want = compiledSpecFingerprint(config);
    constexpr std::uint64_t track_byte = 0xff;
    if (config.model.kind == ModelKind::Px86)
        return spec_fp == want;
    return (spec_fp & track_byte) == (want & track_byte);
}

/**
 * The compile pass. @p PRESET instantiates it for 8-byte tracking
 * with the 64-byte line column, the program every SC preset and the
 * px86 preset share, with both shifts as constants; every other
 * granularity runs the same body with the shifts read at run time.
 *
 * The micro-op columns are sized from the event count, which bounds
 * them unless an access splits across words: only a split checks the
 * room left and grows them, so the common op is three stores through
 * pointers. The run being extended lives in locals and reaches the
 * run index when it closes.
 */
template <bool PRESET>
CompiledTrace
compileEvents(const TraceEvent *events, std::size_t count,
              const TimingConfig &config)
{
    const unsigned track_shift =
        PRESET ? 3 : log2Exact(config.model.tracking_granularity);
    const unsigned line_shift = PRESET ? 6 : lineShift(config);
    // With a line wider than the tracking block (every compile at
    // 8-byte tracking but px86's 8-byte-line variant) each tracking
    // slot also records its line, and flushes are numbered by line.
    const bool lines = track_shift != line_shift;

    CompiledTrace out;
    out.events = count;
    out.spec_fp = compiledSpecFingerprint(config);

    std::size_t room = count;
    out.flags.resize(room);
    out.thread.resize(room);
    out.tslot.resize(room);
    std::uint8_t *flags = out.flags.data();
    std::uint16_t *thread = out.thread.data();
    std::uint32_t *tslot = out.tslot.data();
    std::size_t n = 0;
    // Before event i there is room for one micro-op per event left;
    // an access of k > 1 pieces needs k - 1 more.
    const auto reserveSplit = [&](std::size_t i, std::size_t extra) {
        const std::size_t need = n + (count - i) + extra;
        if (need <= room)
            return;
        room = std::max(need, room + room / 8);
        out.flags.resize(room);
        out.thread.resize(room);
        out.tslot.resize(room);
        flags = out.flags.data();
        thread = out.thread.data();
        tslot = out.tslot.data();
    };

    auto run_kind = static_cast<std::uint8_t>(CompiledOp::Piece);
    std::uint32_t run_len = 0;
    std::uint64_t thread_count = 0;
    const auto emit = [&](CompiledOp kind, unsigned op_flags,
                          std::uint32_t tid, std::uint32_t slot) {
        const auto k = static_cast<std::uint8_t>(kind);
        // Cap runs at u32 range; maximal runs beyond that just split.
        if (k != run_kind || run_len == 0xffffffffu) {
            if (run_len != 0) {
                out.run_kind.push_back(run_kind);
                out.run_len.push_back(run_len);
            }
            run_kind = k;
            run_len = 0;
        }
        ++run_len;
        flags[n] = static_cast<std::uint8_t>(op_flags);
        // A tid past the u16 column is stored truncated but counted,
        // and refused by compileTrace.
        thread[n] = static_cast<std::uint16_t>(tid);
        tslot[n] = slot;
        ++n;
        if (tid >= thread_count)
            thread_count = std::uint64_t{tid} + 1;
    };

    // The engine's own index type, numbering slots in first-touch
    // order as the engine does.
    PagedIndexMap index;
    PagedIndexMap line_index;
    bool inserted = false;
    for (std::size_t i = 0; i < count; ++i) {
        const TraceEvent &event = events[i];
        CompiledOp kind;
        unsigned op_flags = 0;
        std::uint32_t slot = compiled_no_slot;
        switch (event.kind) {
          case EventKind::Load:
          case EventKind::Store:
          case EventKind::Rmw: {
            // Same 8-byte-aligned split as the engine's process(), so
            // each piece lies within one word.
            const unsigned write =
                event.isWrite() ? compiled_flag_write : 0u;
            Addr addr = event.addr;
            unsigned remaining = event.size;
            auto offset = static_cast<unsigned>(addr % max_access_size);
            if (offset + remaining > max_access_size)
                reserveSplit(i, (offset + remaining - 1) / max_access_size);
            while (remaining > 0) {
                const unsigned chunk =
                    std::min(remaining, max_access_size - offset);
                const std::uint32_t piece_slot =
                    index.findOrInsert(addr >> track_shift, inserted);
                if (inserted && lines)
                    out.line.push_back(line_index.findOrInsert(
                        addr >> line_shift, inserted));
                const unsigned shape = (chunk - 1) << 3 | offset;
                emit(CompiledOp::Piece,
                     write |
                         (isPersistentAddr(addr) ? compiled_flag_persistent
                                                 : 0u) |
                         shape << compiled_shape_shift,
                     event.thread, piece_slot);
                addr += chunk;
                remaining -= chunk;
                offset = 0;
            }
            continue;
          }
          case EventKind::PersistBarrier:
          case EventKind::PersistSync:
            kind = CompiledOp::Barrier;
            break;
          case EventKind::CacheFlush:
          case EventKind::CacheFlushOpt:
          case EventKind::CacheWriteBack:
            // The line the flush covers, interned as the engine's
            // px86 flush does.
            kind = CompiledOp::Flush;
            if (event.kind == EventKind::CacheFlush)
                op_flags = compiled_flag_clflush;
            slot = lines ? line_index.findOrInsert(event.addr >> line_shift,
                                                   inserted)
                         : index.findOrInsert(event.addr >> track_shift,
                                              inserted);
            break;
          case EventKind::StoreFence:
          case EventKind::FullFence:
            kind = CompiledOp::Fence;
            break;
          case EventKind::NewStrand:
            kind = CompiledOp::Strand;
            break;
          case EventKind::Marker:
            // OpBegin and the role markers only drive log and plugin
            // metadata, which no eligible config observes.
            if (event.markerCode() != MarkerCode::OpEnd)
                continue;
            kind = CompiledOp::OpEnd;
            break;
          default:
            // PMalloc/PFree/ThreadStart/ThreadEnd/Fence: the engine
            // only counts them.
            continue;
        }
        emit(kind, op_flags, event.thread, slot);
    }
    if (run_len != 0) {
        out.run_kind.push_back(run_kind);
        out.run_len.push_back(run_len);
    }
    out.flags.resize(n);
    out.thread.resize(n);
    out.tslot.resize(n);
    out.thread_count = thread_count;
    out.track_slots = index.size();
    out.lines = lines ? line_index.size() : index.size();
    return out;
}

} // namespace

std::uint64_t
compiledSpecFingerprint(const TimingConfig &config)
{
    // One byte per shift (shifts are < 64), so equal fingerprints mean
    // equal granularities: no hash, no collisions.
    config.model.validate();
    return std::uint64_t{log2Exact(config.model.tracking_granularity)} |
        std::uint64_t{lineShift(config)} << 8;
}

bool
compiledFastEligible(const TimingConfig &config)
{
    return ineligibility(config) == nullptr;
}

CompiledTrace
compileTrace(const TraceEvent *events, std::size_t count,
             const TimingConfig &config)
{
    PERSIM_REQUIRE(events != nullptr || count == 0,
                   "compileTrace needs a valid event range");
    requireEligible(config, "compileTrace");
    CompiledTrace out =
        log2Exact(config.model.tracking_granularity) == 3 &&
            lineShift(config) == 6
        ? compileEvents<true>(events, count, config)
        : compileEvents<false>(events, count, config);
    // The executor's 32-bit levels count at most one per micro-op.
    PERSIM_REQUIRE(out.flags.size() < (std::uint64_t{1} << 32),
                   "compileTrace: " << out.flags.size()
                                    << " micro-ops do not fit the fast "
                                       "executor's 32-bit levels; "
                                       "replay this trace through "
                                       "the engine");
    PERSIM_REQUIRE(out.thread_count <= compiled_max_threads,
                   "compileTrace: thread id "
                       << out.thread_count - 1
                       << " does not fit the compiled trace's 16-bit "
                          "thread column; every replay accepts thread "
                          "ids below "
                       << compiled_max_threads);
    return out;
}

TimingResult
compiledReplay(const CompiledTraceView &view, const TimingConfig &config)
{
    requireEligible(config, "compiledReplay");
    PERSIM_REQUIRE(programFits(view.spec_fp, config),
                   "compiled trace was built under a different "
                   "granularity (trace 0x"
                       << std::hex << view.spec_fp << ", config 0x"
                       << compiledSpecFingerprint(config)
                       << "; the tracking byte must match, and for "
                          "px86 the line byte too): recompile it for "
                          "this configuration");

    // Per-op invariants (piece slots, thread bounds) hold by
    // construction in compileTrace's output; an O(n) check here would
    // cost ~20% of a replay.
    switch (config.model.kind) {
      case ModelKind::Strict:
        return runFast<ModelKind::Strict>(view);
      case ModelKind::Epoch:
        return runFast<ModelKind::Epoch>(view);
      case ModelKind::Strand:
        return runFast<ModelKind::Strand>(view);
      case ModelKind::Px86:
        return runFast<ModelKind::Px86>(view);
    }
    PERSIM_FATAL("compiledReplay: unknown model kind");
}

std::shared_ptr<const CompiledTrace>
traceProgram(const InMemoryTrace &trace, const TimingConfig &config)
{
    requireEligible(config, "traceProgram");
    return trace.program(
        [&](const CompiledTrace &kept) {
            return programFits(kept.spec_fp, config);
        },
        [&] {
            return compileTrace(trace.events().data(), trace.size(),
                                config);
        });
}

TimingResult
replayTrace(const InMemoryTrace &trace, const TimingConfig &config)
{
    if (compiledFastEligible(config))
        return compiledReplay(traceProgram(trace, config)->view(), config);
    PersistTimingEngine engine(config);
    trace.replay(engine);
    return engine.result();
}

} // namespace persim
