#include "persistency/timing_engine.hh"

#include <algorithm>
#include <iterator>

#include "common/bitops.hh"
#include "common/error.hh"
#include "memtrace/compiled_trace.hh"

namespace persim {

namespace {

template <typename T>
std::size_t
capacityBytes(const std::vector<T> &column)
{
    return column.capacity() * sizeof(T);
}

} // namespace

const char *
depSourceName(DepSource source)
{
    switch (source) {
      case DepSource::None:
        return "none";
      case DepSource::ThreadEpoch:
        return "thread_epoch";
      case DepSource::ConflictStore:
        return "conflict_store";
      case DepSource::ConflictLoad:
        return "conflict_load";
      case DepSource::SameBlockSPA:
        return "same_block_spa";
      case DepSource::Coalesced:
        return "coalesced";
    }
    return "unknown";
}

double
TimingResult::criticalPathPerOp() const
{
    return ops > 0 ? critical_path / static_cast<double>(ops)
                   : critical_path;
}

PersistTimingEngine::PersistTimingEngine(const TimingConfig &config)
    : config_(config), rng_(config.seed)
{
    config_.model.validate();
    if (config_.record_deps)
        config_.record_log = true;

    strict_ = config_.model.kind == ModelKind::Strict;
    px86_ = config_.model.kind == ModelKind::Px86;
    track_loads_ = config_.model.detect_load_before_store;
    record_deps_ = config_.record_deps;
    detect_races_ = config_.detect_races;
    all_scope_ =
        config_.model.conflict_scope == ConflictScope::AllAddresses;
    track_shift_ = log2Exact(config_.model.tracking_granularity);
    atomic_shift_ = log2Exact(config_.model.atomic_granularity);
    unified_ = track_shift_ == atomic_shift_;
    fold_barrier_ = !strict_ && !px86_ &&
        config_.mutant != EngineMutant::ElideEpochBarrier;
}

PersistTimingEngine::DepSetRef
PersistTimingEngine::DepSetPool::unionOf(DepSetRef a, DepSetRef b)
{
    // Handle-0 invariant (ISSUE 7 audit): spans_[0] is pushed by the
    // constructor as the canonical empty set, so singleton() and the
    // push below always return refs >= 1 and `Tag::deps = 0` can
    // never alias a real allocation. There is no reset path — the
    // pool lives exactly as long as one analysis (the engine is
    // rebuilt per replay), so steady-state reuse cannot recycle
    // handle 0 either. Pinned by DepSetHandleZeroIsAlwaysEmpty in
    // tests/persistency/timing_engine_test.cc.
    if (a == 0 || spans_[a].len == 0)
        return b;
    if (b == 0 || spans_[b].len == 0)
        return a;
    if (a == b)
        return a;
    scratch_.clear();
    std::set_union(data(a), data(a) + size(a), data(b),
                   data(b) + size(b), std::back_inserter(scratch_));
    // Subset short-circuit: mergeInto unions overlapping sets on the
    // hottest path, and chains of same-block persists repeatedly
    // union a set with a subset of itself. When the union equals one
    // side, reuse that handle instead of appending a copy — handles
    // change but set contents never do, so logs are unaffected.
    if (scratch_.size() == size(a))
        return a;
    if (scratch_.size() == size(b))
        return b;
    spans_.push_back(
        Span{ids_.size(), static_cast<std::uint32_t>(scratch_.size())});
    ids_.insert(ids_.end(), scratch_.begin(), scratch_.end());
    return static_cast<DepSetRef>(spans_.size() - 1);
}

std::size_t
PersistTimingEngine::DepSetPool::bytes() const
{
    return capacityBytes(ids_) + capacityBytes(spans_) +
        capacityBytes(scratch_);
}

std::size_t
PersistTimingEngine::stateBytes() const
{
    return capacityBytes(track_store_) + capacityBytes(track_load_) +
        capacityBytes(track_sc_) + capacityBytes(track_sc_src_) +
        capacityBytes(atomic_last_) + capacityBytes(atomic_group_start_) +
        capacityBytes(atomic_group_begin_) + capacityBytes(px86_ctx_) +
        capacityBytes(px86_dirty_head_) + capacityBytes(px86_dirty_tail_) +
        capacityBytes(px86_mark_) + capacityBytes(px86_reported_) +
        capacityBytes(px86_pieces_) + deps_.bytes() +
        track_index_.bytes() + atomic_index_.bytes();
}

/*
 * Hot-path handler bodies, inline so process() folds them into its
 * dispatch loop. Race detection stays behind detect_races_, so a
 * replay without it pays one predicted-untaken branch per site.
 */

inline std::uint32_t
PersistTimingEngine::trackSlot(std::uint64_t key)
{
    bool inserted = false;
    const std::uint32_t slot = track_index_.findOrInsert(key, inserted);
    if (inserted) {
        track_store_.push_back(Tag{});
        if (track_loads_)
            track_load_.push_back(Tag{});
        if (detect_races_) {
            track_sc_.push_back(Tag{});
            track_sc_src_.push_back(invalid_thread);
        }
        if (unified_) {
            // Shared index: the atomic bank grows in step, so a
            // persist piece never needs a second index lookup.
            atomic_last_.push_back(Tag{});
            atomic_group_start_.push_back(invalid_persist);
            atomic_group_begin_.push_back(0.0);
            if (px86_) {
                px86_ctx_.push_back(Tag{});
                px86_dirty_head_.push_back(no_piece);
                px86_dirty_tail_.push_back(no_piece);
                px86_mark_.push_back(invalid_thread);
            }
        }
    }
    return slot;
}

inline std::uint32_t
PersistTimingEngine::atomicSlot(std::uint64_t block)
{
    bool inserted = false;
    const std::uint32_t aslot = atomic_index_.findOrInsert(block, inserted);
    if (inserted) {
        atomic_last_.push_back(Tag{});
        atomic_group_start_.push_back(invalid_persist);
        atomic_group_begin_.push_back(0.0);
        if (px86_) {
            px86_ctx_.push_back(Tag{});
            px86_dirty_head_.push_back(no_piece);
            px86_dirty_tail_.push_back(no_piece);
            px86_mark_.push_back(invalid_thread);
        }
    }
    return aslot;
}

inline void
PersistTimingEngine::recordScTag(std::uint32_t track_slot,
                                 ThreadState &thread, ThreadId tid)
{
    // The SC tag carries the latest persist ordered before this
    // access in volatile memory order: the thread's inherited shadow
    // or its own latest persist, whichever is later.
    const Tag &best = thread.own_persist.t > thread.shadow.t
        ? thread.own_persist : thread.shadow;
    if (best.src != invalid_persist && best.t > track_sc_[track_slot].t) {
        track_sc_[track_slot] = best;
        track_sc_src_[track_slot] = tid;
    }
}

void
PersistTimingEngine::sampleRace(const RaceSample &sample)
{
    if (race_samples_.size() < 16)
        race_samples_.push_back(sample);
}

void
PersistTimingEngine::detectDirtyRead(std::uint32_t track_slot,
                                     SeqNum seq, ThreadId tid,
                                     Addr addr, bool is_write)
{
    const std::uint32_t aslot = unified_
        ? track_slot : atomic_index_.find(addr >> atomic_shift_);
    if (aslot == PagedIndexMap::no_slot)
        return; // never written, so no owner
    if (px86_reported_.size() < px86_mark_.size())
        px86_reported_.resize(px86_mark_.size(), 0);
    const ThreadId owner = px86_mark_[aslot];
    std::uint64_t &reported = px86_reported_[aslot];
    if (owner != invalid_thread && owner != tid) {
        const std::uint64_t bit = 1ULL << (tid & 63);
        if ((reported & bit) == 0) {
            reported |= bit;
            ++result_.dirty_reads;
            RaceSample sample;
            sample.kind = RaceKind::DirtyRead;
            sample.seq = seq;
            sample.thread = tid;
            sample.addr = (addr >> atomic_shift_) << atomic_shift_;
            sample.owner = owner;
            sampleRace(sample);
        }
    }
    // The write makes tid the owner (px86StorePiece sets the mark):
    // a new episode unless tid already owned the line.
    if (is_write && owner != tid)
        reported = 0;
}

inline void
PersistTimingEngine::persistPieceAt(SeqNum seq, ThreadId tid,
                                    ThreadState &thread,
                                    std::uint32_t track_slot,
                                    std::uint32_t aslot_hint, Addr addr,
                                    unsigned size, std::uint64_t value,
                                    const Tag &dep, DepSource dep_source)
{
    const std::uint64_t block = addr >> atomic_shift_;
    std::uint32_t aslot;
    if (unified_) {
        // Same granularity: the tracking probe already found (or
        // created) this block's atomic slot.
        aslot = track_slot;
    } else if (aslot_hint != no_slot_hint) {
        // A flush passes the slot of the line it drains.
        aslot = aslot_hint;
    } else {
        aslot = atomicSlot(block);
    }
    // Copy, not reference: the banks never grow below, but a copy of
    // five hot words also dodges aliasing with the writes at the end.
    const Tag last = atomic_last_[aslot];
    const bool valid = last.src != invalid_persist;

    const PersistId id = next_persist_id_++;
    ++result_.persists;

    // A persist coalesces into its block's pending atomic persist iff
    // every dependence outside that pending group completes strictly
    // before it: either the whole dependence summary is earlier, or
    // its top dependence *is* the pending group and the rest (oth)
    // is earlier.
    bool coalesce = valid && !px86_fresh_group_ &&
        (dep.t < last.t ||
         (dep.block == block && dep.t == last.t && dep.oth < last.t));
    if (coalesce && config_.coalesce_window > 0 &&
        id - atomic_group_start_[aslot] > config_.coalesce_window) {
        // The pending persist has drained (finite buffering): the new
        // persist must be issued separately.
        coalesce = false;
        ++result_.window_blocked;
    }

    double time = 0.0;
    double start = 0.0;
    double race_bound = 0.0;
    PersistId binding = invalid_persist;
    DepSource binding_source = DepSource::None;
    if (coalesce) {
        time = last.t;
        start = atomic_group_begin_[aslot];
        binding = last.src;
        binding_source = DepSource::Coalesced;
        ++result_.coalesced;
        race_bound = time;
    } else {
        double base = dep.t;
        binding = dep.src;
        binding_source = dep_source;
        if (valid && last.t > dep.t) {
            // Strong persist atomicity: serialize after the previous
            // persist to this block.
            base = last.t;
            binding = last.src;
            binding_source = DepSource::SameBlockSPA;
        }
        time = nextTime(base);
        start = base;
        race_bound = base;
    }

    if (detect_races_) {
        // Every persist in this persist's constraint cone has a time
        // no later than race_bound (times are monotone along
        // constraint edges), so an SC-preceding foreign persist past
        // that bound is provably unordered with it: a persist-epoch
        // race. (Races below the bound can go unreported; the check
        // is sound, not complete.)
        if (thread.shadow.src != invalid_persist &&
            thread.shadow.t > race_bound) {
            ++result_.races;
            RaceSample sample;
            sample.seq = seq;
            sample.thread = tid;
            sample.addr = addr;
            sample.persist = id;
            sample.foreign = thread.shadow.src;
            sampleRace(sample);
        }
    }

    DepSetRef record_ref = 0;
    if (record_deps_) {
        record_ref = dep.deps;
        if (!coalesce && valid) {
            // Strong persist atomicity: the previous group to this
            // block is a direct predecessor even when it is not the
            // timing argmax (same-word persists never reorder).
            record_ref =
                deps_.unionOf(record_ref, deps_.singleton(last.src));
        }
    }

    Tag out;
    out.t = time;
    out.oth = 0.0;
    out.src = id;
    out.block = block;
    out.deps = record_deps_ ? deps_.singleton(id) : 0;
    atomic_last_[aslot] = out;
    if (!coalesce) {
        atomic_group_start_[aslot] = id;
        atomic_group_begin_[aslot] = start;
    }

    if (detect_races_ && time > thread.own_persist.t) {
        Tag own;
        own.t = time;
        own.src = id;
        own.block = block;
        thread.own_persist = own;
    }

    if (px86_flush_route_ != nullptr) {
        // Px86 flush persist: durability routes to the flushing
        // thread's pending-order tag (strong_dep for clflush,
        // accum_dep for clflushopt/clwb); nothing is published to
        // readers or to the thread's epoch until a fence orders it.
        mergeInto(*px86_flush_route_, out);
    } else {
        mergeInto(track_store_[track_slot], out);
        mergeInto(strict_ ? thread.epoch_dep : thread.accum_dep, out);
    }

    result_.critical_path = std::max(result_.critical_path, time);

    if (config_.record_log) {
        PersistRecord &record = log_.emplace_back();
        record.id = id;
        record.seq = seq;
        record.addr = addr;
        record.size = static_cast<std::uint8_t>(size);
        record.value = value;
        record.time = time;
        record.start = start;
        record.thread = tid;
        record.op = thread.op;
        record.role = thread.role;
        record.binding = binding;
        record.binding_source = binding_source;
        if (record_ref != 0)
            record.deps.assign(deps_.data(record_ref),
                               deps_.data(record_ref) +
                                   deps_.size(record_ref));
    }
}

inline void
PersistTimingEngine::px86StorePiece(std::uint32_t track_slot,
                                    ThreadId tid, ThreadState &thread,
                                    Addr addr, unsigned size,
                                    std::uint64_t value, const Tag &dep)
{
    const std::uint32_t aslot =
        unified_ ? track_slot : atomicSlot(addr >> atomic_shift_);

    mergeInto(px86_ctx_[aslot], dep);

    const std::uint32_t tail = px86_dirty_tail_[aslot];
    if (tail != no_piece && px86_pieces_[tail].addr == addr &&
        px86_pieces_[tail].size == size) {
        // Same-word overwrite in cache: only the newest value can
        // ever reach persistent memory from this line.
        px86_pieces_[tail].value = value;
    } else {
        std::uint32_t idx;
        if (px86_free_ != no_piece) {
            idx = px86_free_;
            px86_free_ = px86_pieces_[idx].next;
        } else {
            idx = static_cast<std::uint32_t>(px86_pieces_.size());
            px86_pieces_.push_back(DirtyPiece{});
        }
        DirtyPiece &piece = px86_pieces_[idx];
        piece.addr = addr;
        piece.value = value;
        piece.next = no_piece;
        piece.tslot = track_slot;
        piece.size = static_cast<std::uint8_t>(size);
        if (tail == no_piece)
            px86_dirty_head_[aslot] = idx;
        else
            px86_pieces_[tail].next = idx;
        px86_dirty_tail_[aslot] = idx;
    }

    // Durable-before-visible: a thread that later conflicts with this
    // cell inherits the store's persist dependences — they were
    // durable before the store became visible.
    mergeInto(track_store_[track_slot], dep);

    if (px86_mark_[aslot] != tid) {
        px86_mark_[aslot] = tid;
        thread.dirty_lines.push_back(aslot);
    }
}

inline void
PersistTimingEngine::handlePieceAt(std::uint32_t track_slot,
                                   SeqNum seq, ThreadId tid, ThreadState &thread,
                                   Addr addr, unsigned size,
                                   std::uint64_t value, bool is_write)
{
    const std::uint32_t slot = track_slot;
    const bool persistent = isPersistentAddr(addr);
    const bool in_scope = all_scope_ || persistent;

    if (detect_races_) {
        // Shadow SC propagation (all addresses, regardless of the
        // model's conflict scope): inherit the latest foreign persist
        // SC-ordered before the previous access of this block.
        const ThreadId sc_src = track_sc_src_[slot];
        if (sc_src != invalid_thread && sc_src != tid &&
            track_sc_[slot].t > thread.shadow.t)
            thread.shadow = track_sc_[slot];
        if (px86_ && persistent)
            detectDirtyRead(slot, seq, tid, addr, is_write);
    }

    if (!in_scope) {
        // The SC shadow above still records ground truth.
        recordScTag(slot, thread, tid);
        return;
    }

    if (!is_write) {
        // Load: conflicts with prior stores to the block; persists
        // ordered before those stores must precede this thread's
        // post-barrier persists (immediately, under strict — and
        // under Px86, where the published facts are already durable
        // before the store was visible, so no fence is needed to
        // inherit them).
        mergeInto(strict_ || px86_ ? thread.epoch_dep
                                   : thread.accum_dep,
                  track_store_[slot]);
        // Record the load so later conflicting stores inherit order
        // (the load-before-store conflicts BPFS cannot detect).
        if (track_loads_)
            mergeInto(track_load_[slot], thread.epoch_dep);
        if (detect_races_)
            recordScTag(slot, thread, tid);
        return;
    }

    // Store or RMW: conflicts with prior loads and stores to the block.
    Tag dep = thread.epoch_dep;
    DepSource dep_source = dep.src != invalid_persist
        ? DepSource::ThreadEpoch : DepSource::None;
    {
        const Tag &cand = track_store_[slot];
        if (cand.src != invalid_persist && cand.t > dep.t)
            dep_source = DepSource::ConflictStore;
        mergeInto(dep, cand);
    }
    if (track_loads_) {
        const Tag &cand = track_load_[slot];
        if (cand.src != invalid_persist && cand.t > dep.t)
            dep_source = DepSource::ConflictLoad;
        mergeInto(dep, cand);
    }

    if (persistent) {
        if (px86_) {
            // Px86: the store only dirties its cache line; it becomes
            // durable when a later flush covers the line. The thread's
            // completed clflushes are strongly ordered before it, and
            // so is its fence-folded flush history: a store issued
            // after an sfence cannot persist ahead of the persists
            // that sfence ordered, no matter which thread eventually
            // flushes the line (false sharing flushes foreign pieces).
            Tag pdep = dep;
            mergeInto(pdep, thread.strong_dep);
            mergeInto(pdep, thread.epoch_dep);
            px86StorePiece(slot, tid, thread, addr, size, value, pdep);
        } else {
            persistPieceAt(seq, tid, thread, slot, no_slot_hint, addr,
                           size, value, dep, dep_source);
        }
        if (detect_races_)
            recordScTag(slot, thread, tid);
        return;
    }

    // Volatile store: inherit the conflict order; record that persists
    // already barrier-ordered before this store precede it. (Under
    // Px86 the inherited facts are already durable, hence epoch_dep.)
    mergeInto(strict_ || px86_ ? thread.epoch_dep : thread.accum_dep,
              dep);
    mergeInto(track_store_[slot], thread.epoch_dep);
    if (px86_)
        mergeInto(track_store_[slot], thread.strong_dep);
    if (detect_races_)
        recordScTag(slot, thread, tid);
}

inline void
PersistTimingEngine::handleFlushAt(bool strong, SeqNum seq,
                                   ThreadId tid, ThreadState &thread,
                                   Addr addr, std::uint32_t aslot_hint)
{
    std::uint32_t aslot;
    if (aslot_hint != no_slot_hint)
        aslot = aslot_hint;
    else if (unified_)
        aslot = trackSlot(addr >> track_shift_);
    else
        aslot = atomicSlot(addr >> atomic_shift_);

    std::uint32_t idx = px86_dirty_head_[aslot];

    Tag &pending = strong ? thread.strong_dep : thread.accum_dep;
    if (idx == no_piece) {
        // Clean line: nothing to persist. But same-line flushes are
        // ordered with each other, so flushing a line whose dirty
        // pieces a FOREIGN thread's flush already took must still
        // fold that line's in-flight persists into this thread's
        // pending flush order — the foreign clflushopt may never be
        // fenced, and without this fold a barrier over a stolen line
        // would publish later stores ahead of the stolen data
        // (observed as a flag-ahead-of-data cut under false sharing).
        mergeInto(pending, px86_ctx_[aslot]);
        return;
    }

    // The flush's persist is ordered after everything the line's
    // dirty stores depended on plus the thread's fence-ordered
    // history; clflush is additionally ordered after the thread's
    // earlier clflushes.
    Tag dep = thread.epoch_dep;
    mergeInto(dep, px86_ctx_[aslot]);
    if (strong)
        mergeInto(dep, thread.strong_dep);
    const DepSource dep_source = dep.src != invalid_persist
        ? DepSource::ThreadEpoch : DepSource::None;

    // Collect the persists' out-tags locally: they become the
    // thread's pending flush order AND the line's persist history
    // (px86_ctx_ survives the clear so later same-line flushes and
    // stores order after this one).
    Tag out_acc;
    px86_flush_route_ = &out_acc;
    bool first = true;
    while (idx != no_piece) {
        const DirtyPiece piece = px86_pieces_[idx];
        px86_fresh_group_ = first;
        first = false;
        persistPieceAt(seq, tid, thread, piece.tslot, aslot,
                       piece.addr, piece.size, piece.value, dep,
                       dep_source);
        px86_pieces_[idx].next = px86_free_;
        px86_free_ = idx;
        idx = piece.next;
    }
    px86_fresh_group_ = false;
    px86_flush_route_ = nullptr;
    mergeInto(pending, out_acc);

    px86_dirty_head_[aslot] = no_piece;
    px86_dirty_tail_[aslot] = no_piece;
    px86_ctx_[aslot] = out_acc;
    px86_mark_[aslot] = invalid_thread;
}

inline void
PersistTimingEngine::px86Fence(ThreadState &thread)
{
    if (config_.mutant == EngineMutant::ElideEpochBarrier)
        return;
    mergeInto(thread.epoch_dep, thread.accum_dep);
    mergeInto(thread.epoch_dep, thread.strong_dep);
}

inline void
PersistTimingEngine::px86Barrier(SeqNum seq, ThreadId tid,
                                 ThreadState &thread)
{
    // Canonical epoch->x86 compilation: weak-flush every line the
    // thread dirtied since its last barrier, then sfence. Flushing a
    // line someone else already flushed is a clean-line no-op.
    for (const std::uint32_t aslot : thread.dirty_lines)
        handleFlushAt(false, seq, tid, thread, 0, aslot);
    thread.dirty_lines.clear();
    px86Fence(thread);
}

inline void
PersistTimingEngine::handleBarrierEvent(SeqNum seq, ThreadId tid,
                                        ThreadState &thread)
{
    ++result_.barriers;
    if (px86_)
        px86Barrier(seq, tid, thread);
    else if (fold_barrier_)
        mergeInto(thread.epoch_dep, thread.accum_dep);
}

inline void
PersistTimingEngine::handleFenceEvent(ThreadState &thread)
{
    ++result_.fences;
    if (px86_)
        px86Fence(thread);
    else if (fold_barrier_)
        // Under the SC models an x86 fence acts as the persist
        // barrier of its canonical epoch counterpart.
        mergeInto(thread.epoch_dep, thread.accum_dep);
}

inline void
PersistTimingEngine::handleFlushEvent(bool strong, SeqNum seq,
                                      ThreadId tid, ThreadState &thread,
                                      Addr addr)
{
    // Under the SC-persistency models a flush carries no ordering
    // (persists are implicit in stores); only Px86 acts on it.
    ++result_.flushes;
    if (px86_)
        handleFlushAt(strong, seq, tid, thread, addr, no_slot_hint);
}

inline void
PersistTimingEngine::handleStrandEvent(ThreadState &thread)
{
    ++result_.strands;
    if (config_.model.kind == ModelKind::Strand) {
        thread.epoch_dep = Tag{};
        thread.accum_dep = Tag{};
    }
}

void
PersistTimingEngine::onEvent(const TraceEvent &event)
{
    process(event);
}

void
PersistTimingEngine::onBatch(const TraceEvent *events, std::size_t count)
{
    // One virtual dispatch per batch; the per-event loop below is
    // direct calls the compiler can inline.
    for (std::size_t i = 0; i < count; ++i)
        process(events[i]);
}

void
PersistTimingEngine::process(const TraceEvent &event)
{
    ++result_.events;
    ThreadState &thread = threadState(event.thread);

    switch (event.kind) {
      case EventKind::Load:
      case EventKind::Store:
      case EventKind::Rmw: {
        // Split the access at 8-byte aligned boundaries so each piece
        // lies within a single tracking block and atomic block (both
        // granularities are >= 8 bytes).
        Addr addr = event.addr;
        unsigned remaining = event.size;
        while (remaining > 0) {
            const auto room = static_cast<unsigned>(
                max_access_size - (addr % max_access_size));
            const unsigned chunk = std::min(remaining, room);
            const unsigned shift =
                static_cast<unsigned>(8 * (addr - event.addr));
            std::uint64_t piece_value = event.value >> shift;
            if (chunk < 8)
                piece_value &= (1ULL << (8 * chunk)) - 1;
            handlePiece(event, thread, addr, chunk, piece_value,
                        event.isWrite());
            addr += chunk;
            remaining -= chunk;
        }
        break;
      }
      case EventKind::PersistBarrier:
      case EventKind::PersistSync:
        handleBarrierEvent(event.seq, event.thread, thread);
        break;
      case EventKind::CacheFlush:
      case EventKind::CacheFlushOpt:
      case EventKind::CacheWriteBack:
        handleFlushEvent(event.kind == EventKind::CacheFlush,
                         event.seq, event.thread, thread, event.addr);
        break;
      case EventKind::StoreFence:
      case EventKind::FullFence:
        handleFenceEvent(thread);
        break;
      case EventKind::NewStrand:
        handleStrandEvent(thread);
        break;
      case EventKind::Marker:
        switch (event.markerCode()) {
          case MarkerCode::OpBegin:
            thread.op = event.value;
            thread.role = PersistRole::None;
            break;
          case MarkerCode::OpEnd:
            ++result_.ops;
            thread.op = no_operation;
            thread.role = PersistRole::None;
            break;
          case MarkerCode::RoleData:
            thread.role = PersistRole::Data;
            break;
          case MarkerCode::RoleHead:
            thread.role = PersistRole::Head;
            break;
          default:
            break;
        }
        break;
      default:
        break;
    }
}

void
PersistTimingEngine::handlePiece(const TraceEvent &event,
                                 ThreadState &thread, Addr addr,
                                 unsigned size, std::uint64_t value,
                                 bool is_write)
{
    const bool persistent = isPersistentAddr(addr);
    const bool in_scope = all_scope_ || persistent;
    if (!in_scope && !detect_races_) {
        // BPFS-style tracking ignores volatile-space accesses and no
        // shadow propagation wants the block state: skip the probe.
        return;
    }

    const std::uint32_t slot = trackSlot(addr >> track_shift_);
    handlePieceAt(slot, event.seq, event.thread, thread,
                  addr, size, value, is_write);
}

void
PersistTimingEngine::addThreads(ThreadId tid)
{
    PERSIM_REQUIRE(tid < compiled_max_threads,
                   "persist timing engine: thread id "
                       << tid << " is out of range; every replay "
                          "accepts thread ids below "
                       << compiled_max_threads);
    threads_.resize(std::size_t{tid} + 1);
}

void
PersistTimingEngine::onFinish()
{
    if (px86_) {
        // Tail audit: dirty pieces no flush ever covered. They are
        // simply not durable — deliberately not persisted here, so
        // recovery analyses see exactly what the hardware promises.
        const std::size_t lines = px86_dirty_head_.size();
        for (std::size_t i = 0; i < lines; ++i)
            for (std::uint32_t idx = px86_dirty_head_[i];
                 idx != no_piece; idx = px86_pieces_[idx].next)
                ++result_.unflushed;
    }
}

} // namespace persim
