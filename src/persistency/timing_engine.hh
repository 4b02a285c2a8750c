/**
 * @file
 * Persist-timing engine: the paper's evaluation methodology
 * (Section 7, "Persist Timing Simulation").
 *
 * The engine consumes a trace (as a TraceSink) and assigns every
 * atomic persist piece a completion time that respects the ordering
 * constraints of the configured persistency model, assuming infinite
 * bandwidth and banks. The maximum assigned time is the persist
 * ordering constraint critical path: the implementation-independent
 * lower bound on how long the trace's persists must take.
 *
 * Timing propagates through thread and memory state as tagged
 * timestamps:
 *
 *  - each thread (each strand, under strand persistency) carries
 *    `epoch_dep` (persists that must precede its current-epoch
 *    persists) and `accum_dep` (dependences observed during the
 *    current epoch, folded into epoch_dep at each persist barrier;
 *    under strict persistency the fold is immediate);
 *  - each tracking-granularity block carries `store_tag`/`load_tag`,
 *    the persists ordered (in persistent memory order) before the
 *    last conflicting store/load of that block;
 *  - each atomic-granularity block carries the time of its last
 *    persist, implementing strong persist atomicity and coalescing:
 *    a persist coalesces iff its dependences complete strictly before
 *    the block's previous persist.
 *
 * Two clocks are provided: discrete levels (critical path counted in
 * units of persist latency; coalescing-optimistic best case used for
 * the paper's results) and a stochastic clock (each persist adds an
 * exponential delay), which yields a random realization of persist
 * completion times used for failure injection in src/recovery/.
 *
 * Hot-path layout (DESIGN.md Section 11): tags are 40-byte PODs, and
 * per-block state lives in struct-of-arrays banks (plain
 * std::vector columns, one row per slot) indexed through
 * PagedIndexMap, so steady-state replay performs no per-event heap
 * allocation (growth is amortized) and no node-based hash walks.
 * Growth reallocates a bank, so code holds slot numbers, never bank
 * references, across anything that can add a slot. When tracking and
 * atomic granularity coincide (the default) the two banks share one
 * index and each persist piece costs a single index lookup.
 * Dependence-id sets (record_deps only) live in a DepSetPool of
 * offset-addressed spans referenced by 32-bit handles instead of
 * shared_ptr-counted vectors, and log records are appended straight
 * to the PersistLog. All of this is bit-identical to the original
 * scalar formulation — asserted by
 * tests/persistency/golden_replay_test.cc against frozen
 * pre-refactor outputs.
 */

#ifndef PERSIM_PERSISTENCY_TIMING_ENGINE_HH
#define PERSIM_PERSISTENCY_TIMING_ENGINE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/flat_map.hh"
#include "common/rng.hh"
#include "memtrace/sink.hh"
#include "persistency/model.hh"
#include "persistency/persist_log.hh"

namespace persim {

/** How persist completion times advance. */
enum class ClockMode : std::uint8_t {
    /** Discrete levels: each non-coalesced persist is +1. */
    Levels,
    /** Each non-coalesced persist adds an Exp(1) draw of latency units. */
    Stochastic,
};

/**
 * Test-only engine fault injection: deliberately broken variants used
 * to prove the differential fuzzer and golden tests can actually
 * detect an engine bug (ISSUE 4). Never enable outside tests.
 */
enum class EngineMutant : std::uint8_t {
    None = 0,

    /**
     * Persist barriers do not fold accum_dep into epoch_dep: epoch
     * and strand persistency lose all inter-epoch ordering and keep
     * only conflict/atomicity order. Caught by the golden tests
     * (frozen critical paths change) and by the differential fuzzer
     * (on strand-free programs epoch must equal strand exactly).
     */
    ElideEpochBarrier,
};

/** Timing engine configuration. */
struct TimingConfig
{
    ModelConfig model;

    ClockMode clock = ClockMode::Levels;

    /** Seed for the stochastic clock. */
    std::uint64_t seed = 1;

    /** Record a PersistRecord per atomic persist piece. */
    bool record_log = false;

    /**
     * Record each persist's complete direct-dependence set
     * (PersistRecord::deps), not just the binding argmax. The scalar
     * analysis keeps only the latest dependence per state because
     * only the max matters for timing; exhaustive crash-state
     * enumeration needs every constraint edge. Implies the cost of
     * carrying id sets through every tag merge — enable it only for
     * bounded model-checking runs, not the big sweeps. Requires
     * record_log.
     */
    bool record_deps = false;

    /**
     * Detect persist-epoch races (paper Section 5.2): alongside the
     * model analysis, a shadow propagation tracks, per thread, the
     * latest *foreign* persist that precedes the thread's execution
     * in SC volatile memory order (through any chain of conflicting
     * accesses). A persist whose model constraints do not cover that
     * foreign persist is "astonishingly" unordered with it despite
     * the program's synchronization — a persist-epoch race. The
     * conservative barrier discipline produces none; racing-epoch
     * and strand annotations produce them intentionally.
     *
     * Under Px86 it also detects dirty reads: an access to a cache
     * line holding another thread's not-yet-flushed store. TSO makes
     * the value visible at once, but nothing orders the accessing
     * thread's later persists after that store's durability (the
     * recover-to-a-flag-without-data hazard).
     */
    bool detect_races = false;

    /**
     * Coalescing window in issued persists (0 = unbounded). With
     * finite persist buffering, a pending persist eventually drains
     * to the device and can no longer absorb writes; this models that
     * by forbidding coalescing with a pending persist once more than
     * `coalesce_window` persists have been issued since that pending
     * persist was first created. The paper's best-case measure
     * corresponds to 0 (unbounded).
     */
    std::uint64_t coalesce_window = 0;

    /** Deliberate engine breakage for harness validation (tests). */
    EngineMutant mutant = EngineMutant::None;
};

/** Aggregate results of one timing analysis. */
struct TimingResult
{
    /** Persist ordering constraint critical path (max persist time). */
    double critical_path = 0.0;

    /** Atomic persist pieces assigned a time (incl. coalesced). */
    std::uint64_t persists = 0;

    /** Pieces that coalesced into a previous persist. */
    std::uint64_t coalesced = 0;

    /** Coalescing attempts rejected by the finite window. */
    std::uint64_t window_blocked = 0;

    /** Persist-epoch races (persists unordered with an SC-preceding
        foreign persist); requires TimingConfig::detect_races. */
    std::uint64_t races = 0;

    /** Px86 only: dirty reads, each reported once per (dirty
        episode, accessing thread). An episode is one thread's
        ownership of a dirty line: from its store to the line's next
        flush or another thread's store to it. Requires
        TimingConfig::detect_races. */
    std::uint64_t dirty_reads = 0;

    /** Operations completed (OpEnd markers). */
    std::uint64_t ops = 0;

    /** Total trace events consumed. */
    std::uint64_t events = 0;

    /** Persist barriers seen. */
    std::uint64_t barriers = 0;

    /** NewStrand events seen. */
    std::uint64_t strands = 0;

    /** clflush/clflushopt/clwb events seen (Px86 persists them). */
    std::uint64_t flushes = 0;

    /** sfence/mfence events seen. */
    std::uint64_t fences = 0;

    /** Px86 only: dirty pieces still unflushed at end of trace —
        stores that never became durable because no flush covered
        them. Always 0 under the SC-persistency models. */
    std::uint64_t unflushed = 0;

    /** Average critical path per completed operation. */
    double criticalPathPerOp() const;
};

/** Streaming persist-timing analysis for one persistency model. */
class PersistTimingEngine : public TraceSink
{
  public:
    explicit PersistTimingEngine(const TimingConfig &config);

    void onEvent(const TraceEvent &event) override;
    void onBatch(const TraceEvent *events, std::size_t count) override;
    void onFinish() override;

    const TimingConfig &config() const { return config_; }
    const TimingResult &result() const { return result_; }

    /** The two rules of detect_races. */
    enum class RaceKind : std::uint8_t {
        UnorderedPersist, //!< Counted in TimingResult::races.
        DirtyRead,        //!< Counted in TimingResult::dirty_reads.
    };

    /** One example race. */
    struct RaceSample
    {
        RaceKind kind = RaceKind::UnorderedPersist;
        SeqNum seq = 0;          //!< Trace position of the racy event.
        ThreadId thread = 0;     //!< Thread issuing the persist/access.
        /** UnorderedPersist: the persist's address; DirtyRead: the
            base of the dirty line. */
        Addr addr = 0;
        /** UnorderedPersist: the racy persist. */
        PersistId persist = invalid_persist;
        /** UnorderedPersist: the SC-preceding foreign persist it is
            unordered with. */
        PersistId foreign = invalid_persist;
        /** DirtyRead: the thread whose store dirtied the line. */
        ThreadId owner = invalid_thread;
    };

    /** Up to 16 example races of either kind, in trace order
        (requires detect_races). */
    const std::vector<RaceSample> &raceSamples() const
    {
        return race_samples_;
    }

    /** The persist log; empty unless record_log was set. */
    const PersistLog &log() const { return log_; }

    /** Move the log out (for handing to recovery analyses). */
    PersistLog takeLog() { return std::move(log_); }

    /**
     * Bytes held by the per-block state: every SoA bank, the
     * dependence-set pool and the px86 dirty-piece pool (capacity,
     * not size, times element size) plus both address indexes'
     * PagedIndexMap::bytes(). DESIGN.md Section 11 states its
     * ceiling.
     */
    std::size_t stateBytes() const;

  private:
    /** Handle into the DepSetPool; 0 is the empty set. */
    using DepSetRef = std::uint32_t;

    /**
     * Tagged timestamp summarizing a set of persist dependences.
     *
     * `t`/`src`/`block` identify the latest dependence: its time, a
     * witness persist id, and the atomic block of the coalescing
     * group it belongs to (a group is all persists that merged into
     * one atomic persist: same block, same time). `oth` is the
     * maximum time of dependences *outside* that group.
     *
     * The distinction drives exact coalescing: a persist may merge
     * into its block's pending persist iff every dependence outside
     * that pending group completes strictly earlier — i.e. dep.t is
     * below the pending time, or the top dependence *is* the pending
     * group itself and dep.oth is below it. This is what lets strict
     * persistency benefit from large atomic persists (Figure 4): a
     * serialized sequence of stores into one block collapses into a
     * single atomic persist, while a dependence on a concurrent
     * persist in another block correctly blocks the merge.
     *
     * Trivially copyable on purpose: tags are merged and copied on
     * the hottest path, and `deps` (the full dependence-id set,
     * record_deps only) is a pool handle rather than a shared_ptr.
     */
    struct Tag
    {
        double t = 0.0;
        double oth = 0.0;
        PersistId src = invalid_persist;
        std::uint64_t block = ~0ULL;
        DepSetRef deps = 0;
    };

    /**
     * Immutable sorted persist-id sets, stored as (offset, length)
     * spans of one id vector and referenced by dense handles, so a
     * handle survives the vector's reallocation. Sets are
     * never freed individually (the pool lives exactly as long as one
     * analysis), matching the shared immutable-vector semantics of
     * the original formulation without per-merge refcount traffic.
     */
    class DepSetPool
    {
      public:
        DepSetPool()
        {
            spans_.push_back(Span{0, 0}); // ref 0 = the empty set
        }

        DepSetRef singleton(PersistId id)
        {
            spans_.push_back(Span{ids_.size(), 1});
            ids_.push_back(id);
            return static_cast<DepSetRef>(spans_.size() - 1);
        }

        /** Sorted-unique union (standing in for unionDeps). */
        DepSetRef unionOf(DepSetRef a, DepSetRef b);

        const PersistId *data(DepSetRef ref) const
        {
            return ids_.data() + spans_[ref].off;
        }

        std::uint32_t size(DepSetRef ref) const
        {
            return spans_[ref].len;
        }

        /** Capacity bytes of the id, span and scratch vectors. */
        std::size_t bytes() const;

      private:
        struct Span
        {
            std::uint64_t off;
            std::uint32_t len;
        };

        std::vector<PersistId> ids_;
        std::vector<Span> spans_;
        std::vector<PersistId> scratch_;
    };

    /** Per-thread (per-strand) persistency state. */
    struct ThreadState
    {
        Tag epoch_dep;
        Tag accum_dep;
        std::uint64_t op = no_operation;
        PersistRole role = PersistRole::None;
        /** Shadow: latest foreign persist SC-ordered before here. */
        Tag shadow;
        /** Latest persist time this thread itself issued. */
        Tag own_persist;
        /** Px86: persists of the thread's clflushes — strongly
            ordered before its younger stores and flushes; folded into
            epoch_dep at fences (weak flushes go to accum_dep). */
        Tag strong_dep;
        /** Px86: atomic slots this thread dirtied since its last
            persist barrier (so barriers can replay as flush-all +
            sfence, the canonical epoch->x86 compilation). */
        std::vector<std::uint32_t> dirty_lines;
    };

    /**
     * Merge dependence summary @p cand into @p dst in place: the
     * result's top group is the later of the two (first wins ties
     * across distinct groups, which is conservative: a tie between
     * different groups lands in `oth` and correctly blocks
     * coalescing); everything else folds into `oth`. Merges whose
     * result equals @p dst — the candidate is a dead dependence edge,
     * dominated by what @p dst already carries — are pruned to a
     * no-op (except under record_deps, where the id sets must still
     * union).
     *
     * Defined here (not in the .cc) and force-inlined deliberately:
     * the profiler shows the merge as the single hottest call on the
     * replay path, and plain -O2 leaves it out of line.
     */
    [[gnu::always_inline]] inline void
    mergeInto(Tag &dst, const Tag &cand)
    {
        if (cand.src == invalid_persist)
            return;
        if (dst.src == invalid_persist) {
            dst = cand;
            return;
        }
        if (dst.block == cand.block && dst.t == cand.t) {
            // Same coalescing group: keep the newest witness.
            if (cand.src > dst.src)
                dst.src = cand.src;
            if (cand.oth > dst.oth)
                dst.oth = cand.oth;
            if (record_deps_)
                dst.deps = deps_.unionOf(dst.deps, cand.deps);
            return;
        }
        if (cand.t > dst.t) {
            // The candidate wins; the old top group folds into oth.
            const double oth = std::max({cand.oth, dst.t, dst.oth});
            const DepSetRef deps =
                record_deps_ ? deps_.unionOf(cand.deps, dst.deps) : 0;
            dst = cand;
            dst.oth = oth;
            dst.deps = deps;
            return;
        }
        // dst wins (first wins ties across distinct groups). When the
        // candidate raises nothing — a dead dependence edge, already
        // dominated by dst's group and oth — prune the merge entirely.
        const double oth = std::max({dst.oth, cand.t, cand.oth});
        if (record_deps_)
            dst.deps = deps_.unionOf(dst.deps, cand.deps);
        else if (oth == dst.oth)
            return;
        dst.oth = oth;
    }

    /** Advance the clock strictly past @p base. */
    double nextTime(double base)
    {
        if (config_.clock == ClockMode::Levels)
            return base + 1.0;
        return base + rng_.nextExponential(1.0);
    }

    ThreadState &threadState(ThreadId tid)
    {
        if (tid >= threads_.size())
            addThreads(tid);
        return threads_[tid];
    }

    /** Grow the thread table to hold @p tid; fatals, naming it, past
        compiled_max_threads. */
    void addThreads(ThreadId tid);

    /** Non-virtual event dispatch shared by onEvent and onBatch. */
    void process(const TraceEvent &event);

    /**
     * @name Centralized non-access event handlers
     *
     * process() dispatches barriers, fences, flushes, and strand
     * switches through these: each keeps its counter and model fold
     * together.
     */
    ///@{
    void handleBarrierEvent(SeqNum seq, ThreadId tid,
                            ThreadState &thread);
    void handleFenceEvent(ThreadState &thread);
    void handleFlushEvent(bool strong, SeqNum seq, ThreadId tid,
                          ThreadState &thread, Addr addr);
    void handleStrandEvent(ThreadState &thread);
    ///@}

    /** Slot of a tracking block, extending the SoA banks on insert. */
    std::uint32_t trackSlot(std::uint64_t key);

    /** Slot of an atomic block (non-unified), extending on insert. */
    std::uint32_t atomicSlot(std::uint64_t block);

    /** "No pre-resolved atomic slot" sentinel for *At handlers. */
    static constexpr std::uint32_t no_slot_hint = ~0u;

    /** Process one <=8-byte piece of an access event. */
    void handlePiece(const TraceEvent &event, ThreadState &thread,
                     Addr addr, unsigned size, std::uint64_t value,
                     bool is_write);

    /**
     * Piece body after the tracking probe: everything handlePiece
     * does once the slot is known.
     */
    void handlePieceAt(std::uint32_t track_slot, SeqNum seq,
                       ThreadId tid, ThreadState &thread, Addr addr,
                       unsigned size, std::uint64_t value,
                       bool is_write);

    /** Record the shadow SC tag on a block after an access. */
    void recordScTag(std::uint32_t track_slot, ThreadState &thread,
                     ThreadId tid);

    /** Keep up to 16 race samples (detect_races). */
    void sampleRace(const RaceSample &sample);

    /**
     * Px86 dirty-read rule (detect_races only): before a persistent
     * access piece acts, report it once per dirty episode when
     * another thread owns the line (px86_mark_), and start a new
     * episode's report mask when a write takes the line over.
     */
    void detectDirtyRead(std::uint32_t track_slot, SeqNum seq,
                         ThreadId tid, Addr addr, bool is_write);

    /** Handle a persist piece (timing, coalescing, logging). */
    void persistPieceAt(SeqNum seq, ThreadId tid, ThreadState &thread,
                        std::uint32_t track_slot,
                        std::uint32_t aslot_hint, Addr addr,
                        unsigned size, std::uint64_t value,
                        const Tag &dep, DepSource dep_source);

    /** @name Px86 operational model (DESIGN.md Section 13) */
    ///@{

    /**
     * Px86 persistent store: dirties the cache line (records the
     * piece in the line's dirty list and folds @p dep into the line
     * context) without issuing any persist. Durability happens only
     * when a flush covers the line.
     */
    void px86StorePiece(std::uint32_t track_slot, ThreadId tid,
                        ThreadState &thread, Addr addr, unsigned size,
                        std::uint64_t value, const Tag &dep);

    /**
     * clflush (@p strong) or clflushopt/clwb (weak) of the line
     * holding @p addr: issue one asynchronous persist per dirty piece
     * of the line (they coalesce into a single atomic persist), then
     * mark the line clean. The persist's completion routes to
     * strong_dep (clflush: ordered before the thread's younger stores)
     * or accum_dep (weak: ordered only by the next fence). A clean
     * line is a no-op. @p aslot_hint is the line's pre-resolved
     * atomic slot (no_slot_hint to probe on demand).
     */
    void handleFlushAt(bool strong, SeqNum seq, ThreadId tid,
                       ThreadState &thread, Addr addr,
                       std::uint32_t aslot_hint);

    /** sfence/mfence: fold pending flush order into epoch_dep. */
    void px86Fence(ThreadState &thread);

    /**
     * PersistBarrier replayed under Px86 as its canonical x86
     * compilation: weak-flush every line the thread has dirtied,
     * then sfence.
     */
    void px86Barrier(SeqNum seq, ThreadId tid, ThreadState &thread);

    ///@}

    TimingConfig config_;
    TimingResult result_;
    Rng rng_;

    /** @name Configuration unpacked for the hot path */
    ///@{
    bool strict_ = false;
    bool px86_ = false;         //!< ModelKind::Px86
    bool track_loads_ = true;   //!< model.detect_load_before_store
    bool record_deps_ = false;
    bool detect_races_ = false;
    bool all_scope_ = true;     //!< ConflictScope::AllAddresses
    bool unified_ = false;      //!< tracking == atomic granularity
    bool fold_barrier_ = false; //!< non-strict SC fold at barriers
    /** log2 of the granularities (powers of two by validate()), so
        block indexing is a shift rather than a 64-bit division. */
    unsigned track_shift_ = 3;
    unsigned atomic_shift_ = 3;
    ///@}

    /** @name Tracking-block bank (SoA, indexed by track slot) */
    ///@{
    PagedIndexMap track_index_;
    std::vector<Tag> track_store_;
    std::vector<Tag> track_load_;     //!< only with track_loads_
    std::vector<Tag> track_sc_;       //!< only with detect_races_
    std::vector<ThreadId> track_sc_src_;
    ///@}

    /**
     * @name Atomic-block bank (SoA). In unified mode it is indexed by
     * track slot (atomic_index_ unused); otherwise by its own map.
     * A block is "valid" (has a pending persist) iff its last.src is
     * not invalid_persist.
     */
    ///@{
    PagedIndexMap atomic_index_;
    std::vector<Tag> atomic_last_;
    std::vector<PersistId> atomic_group_start_;
    std::vector<double> atomic_group_begin_;
    ///@}

    /**
     * @name Px86 dirty-line bank (SoA, same index as the atomic bank;
     * populated only when px86_). Each line carries the merged
     * dependences of its dirty stores (`px86_ctx_`), an intrusive
     * list of dirty pieces in store order (head/tail into
     * `px86_pieces_`, linked via DirtyPiece::next), and the last
     * thread to write it since it was last flushed (`px86_mark_`:
     * the thread that enqueued it on its dirty_lines list, so
     * barriers flush each line once; the dirty-read rule's line
     * owner). Flushed pieces recycle
     * through the `px86_free_` free list, so steady state allocates
     * nothing.
     */
    ///@{
    struct DirtyPiece
    {
        Addr addr;
        std::uint64_t value;
        std::uint32_t next;
        std::uint32_t tslot;
        std::uint8_t size;
    };

    static constexpr std::uint32_t no_piece = ~0u;

    std::vector<Tag> px86_ctx_;
    std::vector<std::uint32_t> px86_dirty_head_;
    std::vector<std::uint32_t> px86_dirty_tail_;
    std::vector<ThreadId> px86_mark_;
    /**
     * detect_races only, grown lazily to the bank's size: threads
     * already reported against the line's current owner (bit =
     * tid & 63; collisions only merge reports). It is read only
     * while an owner is set, and the first write after a flush
     * (mark cleared) resets it, so the flush path never touches it.
     */
    std::vector<std::uint64_t> px86_reported_;
    std::vector<DirtyPiece> px86_pieces_;
    std::uint32_t px86_free_ = no_piece;

    /**
     * Non-null exactly while handleFlushAt runs: persistPieceAt
     * merges each persist's out-tag here (the flushing thread's
     * strong_dep or accum_dep) instead of publishing it to
     * track_store_/epoch/accum — a flush makes data durable but says
     * nothing to readers until a fence orders it.
     */
    Tag *px86_flush_route_ = nullptr;

    /**
     * True exactly for the first piece of a flush: a flush begins its
     * own atomic persist and may not merge into a persist issued by
     * an earlier flush of the line — the earlier flush can complete
     * alone, so crash states between the two are reachable. The
     * remaining pieces of the same flush still coalesce into the
     * group the first one founds.
     */
    bool px86_fresh_group_ = false;
    ///@}

    DepSetPool deps_;
    std::vector<ThreadState> threads_;

    PersistLog log_;

    std::vector<RaceSample> race_samples_;
    PersistId next_persist_id_ = 0;
};

} // namespace persim

#endif // PERSIM_PERSISTENCY_TIMING_ENGINE_HH
