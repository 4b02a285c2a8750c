#include "persistency/compiled_replay.hh"

#include <algorithm>
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
    if (config.model.kind == ModelKind::Px86)
        return "px86 has no fast path";
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
    if (!config.plugins.empty())
        return "analysis plugins need the engine's hooks";
    if (config.model.conflict_scope != ConflictScope::AllAddresses)
        return "a persistent-only conflict scope (bpfs) needs the "
               "engine";
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

/**
 * The fast executor: strict / epoch / strand on the Levels clock with
 * unified granularity, all-address scope, load tracking, and no
 * observers. STRICT folds dependences into epoch_dep immediately;
 * STRAND additionally honors NewStrand resets.
 *
 * Correctness leans on three facts proved in DESIGN.md Section 17
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
 *     never a full Tag.
 */
template <bool STRICT, bool STRAND>
TimingResult
runFast(const CompiledTraceView &view)
{
    struct FThread
    {
        FastTag epoch;
        FastTag accum;
    };

    TimingResult res;
    std::vector<FastTag> ts(view.track_slots);
    std::vector<FastTag> tl(view.track_slots);
    std::vector<FThread> threads(view.thread_count ? view.thread_count
                                                   : 1);

    const std::uint8_t *flags = view.flags;
    const std::uint32_t *thr = view.thread;
    const std::uint32_t *tsl = view.tslot;
    const std::uint64_t *keys = view.track_keys;
    double critical = 0.0;

    std::uint64_t i = 0;
    for (std::uint64_t r = 0; r < view.runs; ++r) {
        const std::uint64_t end = i + view.run_len[r];
        const auto rk = static_cast<CompiledOp>(view.run_kind[r]);
        if (rk == CompiledOp::Piece) {
            for (; i < end; ++i) {
                FThread &thread = threads[thr[i]];
                const std::uint32_t slot = tsl[i];
                FastTag &epoch = thread.epoch;
                FastTag &sink = STRICT ? thread.epoch : thread.accum;
                const std::uint8_t fl = flags[i];
                if (!(fl & compiled_flag_write)) {
                    // Load: inherit the block's store order, record
                    // the load for later conflicting stores.
                    fmerge(sink, ts[slot]);
                    fmerge(tl[slot], epoch);
                    continue;
                }
                if (fl & compiled_flag_persistent) {
                    FastTag &tss = ts[slot];
                    // Unified granularity: the tracking block key is
                    // the persist block.
                    const std::uint64_t block = keys[slot];
                    ++res.persists;
                    const double last_t = tss.t;
                    double tmax = epoch.t > tss.t ? epoch.t : tss.t;
                    if (tl[slot].t > tmax)
                        tmax = tl[slot].t;
                    bool coalesce = false;
                    if (last_t != 0.0 && tmax == last_t) {
                        // The pending group is the dependence argmax;
                        // coalesce unless a dependence outside that
                        // group also reaches last_t. Closed form of
                        // the three-way merge's (block, oth) result.
                        const FastTag &tll = tl[slot];
                        double oth =
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
                            const double oth_e =
                                sink.t > sink.oth ? sink.t : sink.oth;
                            sink.t = time;
                            sink.oth = oth_e;
                            sink.block = block;
                        } else {
                            // accum is NOT part of dep, so the new
                            // persist may be older than what accum
                            // already holds: full merge.
                            fmerge(sink, FastTag{time, 0.0, block});
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
              case CompiledOp::Barrier:
                ++res.barriers;
                if (!STRICT)
                    fmerge(thread.epoch, thread.accum);
                break;
              case CompiledOp::Flush:
                ++res.flushes;
                break;
              case CompiledOp::Fence:
                ++res.fences;
                if (!STRICT)
                    fmerge(thread.epoch, thread.accum);
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
    res.critical_path = critical;
    res.events = view.events;
    return res;
}

} // namespace

std::uint64_t
compiledSpecFingerprint(const TimingConfig &config)
{
    // One byte per shift (shifts are < 64), so equal fingerprints mean
    // equal granularities: no hash, no collisions.
    config.model.validate();
    return std::uint64_t{log2Exact(config.model.tracking_granularity)} |
        std::uint64_t{log2Exact(config.model.atomic_granularity)} << 8;
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

    CompiledTrace out;
    out.events = count;
    out.spec_fp = compiledSpecFingerprint(config);
    const unsigned shift = log2Exact(config.model.tracking_granularity);
    // Most events compile to one micro-op; unaligned accesses that
    // split grow the columns past this.
    out.flags.reserve(count);
    out.thread.reserve(count);
    out.tslot.reserve(count);

    // The engine's own tracking index type, so both number slots in
    // the same first-touch order.
    PagedIndexMap index;
    for (std::size_t i = 0; i < count; ++i) {
        const TraceEvent &event = events[i];
        switch (event.kind) {
          case EventKind::Load:
          case EventKind::Store:
          case EventKind::Rmw: {
            // Same 8-byte-aligned split as the engine's process(), so
            // each piece lies within one block; slots are numbered in
            // the engine's first-touch order.
            const std::uint8_t write =
                event.isWrite() ? compiled_flag_write : 0u;
            Addr addr = event.addr;
            unsigned remaining = event.size;
            while (remaining > 0) {
                const auto room = static_cast<unsigned>(
                    max_access_size - (addr % max_access_size));
                const unsigned chunk = std::min(remaining, room);
                const std::uint64_t key = addr >> shift;
                bool inserted = false;
                const std::uint32_t slot =
                    index.findOrInsert(key, inserted);
                if (inserted)
                    out.track_keys.push_back(key);
                out.append(CompiledOp::Piece,
                           static_cast<std::uint8_t>(
                               write |
                               (isPersistentAddr(addr)
                                    ? compiled_flag_persistent
                                    : 0u)),
                           event.thread, slot);
                addr += chunk;
                remaining -= chunk;
            }
            break;
          }
          case EventKind::PersistBarrier:
          case EventKind::PersistSync:
            out.append(CompiledOp::Barrier, 0, event.thread,
                       compiled_no_slot);
            break;
          case EventKind::CacheFlush:
          case EventKind::CacheFlushOpt:
          case EventKind::CacheWriteBack:
            out.append(CompiledOp::Flush, 0, event.thread,
                       compiled_no_slot);
            break;
          case EventKind::StoreFence:
          case EventKind::FullFence:
            out.append(CompiledOp::Fence, 0, event.thread,
                       compiled_no_slot);
            break;
          case EventKind::NewStrand:
            out.append(CompiledOp::Strand, 0, event.thread,
                       compiled_no_slot);
            break;
          case EventKind::Marker:
            // OpBegin and the role markers only drive log and plugin
            // metadata, which no eligible config observes.
            if (event.markerCode() == MarkerCode::OpEnd)
                out.append(CompiledOp::OpEnd, 0, event.thread,
                           compiled_no_slot);
            break;
          default:
            // PMalloc/PFree/ThreadStart/ThreadEnd/Fence: the engine
            // only counts them.
            break;
        }
    }
    return out;
}

TimingResult
compiledReplay(const CompiledTraceView &view, const TimingConfig &config)
{
    requireEligible(config, "compiledReplay");
    const std::uint64_t want_fp = compiledSpecFingerprint(config);
    PERSIM_REQUIRE(view.spec_fp == want_fp,
                   "compiled trace was built under a different "
                   "granularity (trace 0x"
                       << std::hex << view.spec_fp << ", config 0x"
                       << want_fp
                       << "): recompile it for this configuration");

    // Per-op invariants (piece slots, thread bounds) hold by
    // construction in compileTrace's output; an O(n) check here would
    // cost ~20% of a replay.
    switch (config.model.kind) {
      case ModelKind::Strict:
        return runFast<true, false>(view);
      case ModelKind::Strand:
        return runFast<false, true>(view);
      default:
        return runFast<false, false>(view);
    }
}

TimingResult
replayTrace(const InMemoryTrace &trace, const TimingConfig &config)
{
    if (compiledFastEligible(config)) {
        const CompiledTrace compiled =
            compileTrace(trace.events().data(), trace.size(), config);
        return compiledReplay(compiled.view(), config);
    }
    PersistTimingEngine engine(config);
    trace.replay(engine);
    return engine.result();
}

} // namespace persim
