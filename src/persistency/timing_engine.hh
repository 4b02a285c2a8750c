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
 * per-block state lives in struct-of-arrays banks backed by a common
 * Arena and indexed through ShardedIndexMap, so steady-state replay
 * performs no per-event heap allocation and no node-based hash
 * walks. When tracking and atomic granularity coincide (the default)
 * the two banks share one index and each persist piece costs a
 * single hash probe. Dependence-id sets (record_deps only) live in
 * an arena-backed DepSetPool referenced by 32-bit handles instead of
 * shared_ptr-counted vectors. Log records are staged in a fixed POD
 * buffer and appended to the PersistLog in batches. All of this is
 * bit-identical to the original scalar formulation — asserted by
 * tests/persistency/golden_replay_test.cc against frozen
 * pre-refactor outputs.
 */

#ifndef PERSIM_PERSISTENCY_TIMING_ENGINE_HH
#define PERSIM_PERSISTENCY_TIMING_ENGINE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/arena.hh"
#include "common/flat_map.hh"
#include "common/rng.hh"
#include "memtrace/sink.hh"
#include "persistency/model.hh"
#include "persistency/persist_log.hh"

namespace persim {

class AnalysisPlugin;
struct AccessInfo;
struct FlushInfo;
enum class FenceEvent : std::uint8_t;

/** How persist completion times advance. */
enum class ClockMode : std::uint8_t {
    /** Discrete levels: each non-coalesced persist is +1. */
    Levels,
    /** Each non-coalesced persist adds Exp(mean) random latency. */
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

    /** Mean persist latency (stochastic clock), in latency units. */
    double mean_latency = 1.0;

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

    /**
     * Analysis plugins notified at persist/flush/fence/access and
     * end-of-trace boundaries (analysis_plugin.hh). Non-owning: the
     * plugins must outlive the engine. An empty list costs one
     * untaken branch per hook site.
     */
    std::vector<AnalysisPlugin *> plugins;
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

    /** One example persist-epoch race. */
    struct RaceSample
    {
        SeqNum seq = 0;          //!< Trace position of the racy persist.
        ThreadId thread = 0;     //!< Thread issuing it.
        PersistId persist = invalid_persist;
        PersistId foreign = invalid_persist; //!< The persist it races.
    };

    /** Up to 16 example races (requires detect_races). */
    const std::vector<RaceSample> &raceSamples() const
    {
        return race_samples_;
    }

    /** The persist log; empty unless record_log was set. */
    const PersistLog &log() const
    {
        flushStage();
        materializeDeferred();
        return log_;
    }

    /** Move the log out (for handing to recovery analyses). */
    PersistLog takeLog()
    {
        flushStage();
        materializeDeferred();
        return std::move(log_);
    }

  private:
    /**
     * Compiled-trace replay (compiled_replay.cc) executes in-memory
     * micro-op columns through the inline handlers below, with every
     * slot pre-resolved at compile time.
     */
    friend class CompiledReplayer;

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
     * Immutable sorted persist-id sets, stored as spans in one
     * arena-backed id array and referenced by dense handles. Sets are
     * never freed individually (the pool lives exactly as long as one
     * analysis), matching the shared immutable-vector semantics of
     * the original formulation without per-merge refcount traffic.
     */
    class DepSetPool
    {
      public:
        explicit DepSetPool(Arena &arena) : ids_(arena)
        {
            spans_.push_back(Span{0, 0}); // ref 0 = the empty set
        }

        DepSetRef singleton(PersistId id)
        {
            const std::uint64_t off = ids_.appendSpan(&id, 1);
            spans_.push_back(Span{off, 1});
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

      private:
        struct Span
        {
            std::uint64_t off;
            std::uint32_t len;
        };

        ArenaVector<PersistId> ids_;
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

    /** One staged (not yet published) persist-log record, POD. */
    struct StagedRecord
    {
        PersistId id;
        SeqNum seq;
        Addr addr;
        std::uint64_t value;
        double time;
        double start;
        std::uint64_t op;
        PersistId binding;
        ThreadId thread;
        DepSetRef deps;
        PersistRole role;
        DepSource binding_source;
        std::uint8_t size;
    };

    static constexpr std::size_t stage_capacity = 256;

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
        return base + rng_.nextExponential(config_.mean_latency);
    }

    ThreadState &threadState(ThreadId tid)
    {
        if (tid >= threads_.size())
            threads_.resize(tid + 1);
        return threads_[tid];
    }

    /** Non-virtual event dispatch shared by onEvent and onBatch. */
    void process(const TraceEvent &event);

    /**
     * @name Centralized non-access event handlers
     *
     * Both process() and the compiled generic executor dispatch
     * barriers, fences, flushes, and strand switches through these,
     * so the counters, the model folds, and the analysis-plugin hooks
     * are guaranteed to behave identically on the interpreted and
     * compiled replay paths.
     */
    ///@{
    void handleBarrierEvent(SeqNum seq, ThreadId tid,
                            ThreadState &thread);
    void handleFenceEvent(bool full, ThreadId tid, ThreadState &thread);
    void handleFlushEvent(bool strong, SeqNum seq, ThreadId tid,
                          ThreadState &thread, Addr addr,
                          std::uint32_t aslot_hint);
    void handleStrandEvent(ThreadId tid, ThreadState &thread);
    ///@}

    /** Build a PersistInfo and fire the issue/complete hooks. */
    void notifyPersist(SeqNum seq, ThreadId tid, Addr addr,
                       unsigned size, std::uint64_t value, double time,
                       double start, double race_bound, PersistId id,
                       PersistId binding, DepSource binding_source,
                       std::uint64_t op, bool coalesced,
                       DepSetRef record_ref);

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
     * does once the slot is known. Split out so the compiled
     * executor can feed pre-resolved slots; @p aslot_hint is the
     * pre-resolved atomic slot (no_slot_hint to probe on demand,
     * ignored in unified mode).
     */
    void handlePieceAt(std::uint32_t track_slot,
                       std::uint32_t aslot_hint, SeqNum seq,
                       ThreadId tid, ThreadState &thread, Addr addr,
                       unsigned size, std::uint64_t value,
                       bool is_write);

    /** Record the shadow SC tag on a block after an access. */
    void recordScTag(std::uint32_t track_slot, ThreadState &thread,
                     ThreadId tid);

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
    void px86StorePiece(std::uint32_t track_slot,
                        std::uint32_t aslot_hint, ThreadId tid,
                        ThreadState &thread, Addr addr, unsigned size,
                        std::uint64_t value, const Tag &dep);

    /**
     * clflush (@p strong) or clflushopt/clwb (weak) of the line
     * holding @p addr: issue one asynchronous persist per dirty piece
     * of the line (they coalesce into a single atomic persist), then
     * mark the line clean. The persist's completion routes to
     * strong_dep (clflush: ordered before the thread's younger stores)
     * or accum_dep (weak: ordered only by the next fence). A clean
     * line is a no-op. @p aslot_hint as in handlePieceAt.
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

    /**
     * @name Out-of-line plugin fan-out
     *
     * The handlers below are defined inline (after the class) so the
     * interpreted and compiled execution paths both inline them; the
     * plugin loops stay out of line behind these helpers so the
     * inline bodies need no AnalysisPlugin definition and the
     * no-plugin hot path pays one predicted-untaken branch.
     */
    ///@{
    void notifyAccessPlugins(SeqNum seq, Addr addr, std::uint64_t value,
                             ThreadId tid, unsigned size, bool is_write,
                             bool persistent);
    void notifyFlushPlugins(SeqNum seq, ThreadId tid, bool strong,
                            bool line_dirty, Addr line_base);
    void notifyBarrierPlugins(ThreadId tid);
    void notifyFencePlugins(bool full, ThreadId tid);
    void notifyStrandPlugins(ThreadId tid);
    ///@}

    /** Publish staged records into log_ (const: called from log()). */
    void flushStage() const;

    /** Convert one staged record to its published form. Pure: reads
        only the (post-replay read-only) dep-set pool, so deferred
        materialization may run it from several threads on disjoint
        records. */
    PersistRecord materializeRecord(const StagedRecord &staged) const;

    /** Publish any deferred records serially (no-op when empty). */
    void materializeDeferred() const;

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
    bool has_plugins_ = false;  //!< !config_.plugins.empty()
    bool fold_barrier_ = false; //!< non-strict SC fold at barriers
    /** log2 of the granularities (powers of two by validate()), so
        block indexing is a shift rather than a 64-bit division. */
    unsigned track_shift_ = 3;
    unsigned atomic_shift_ = 3;
    ///@}

    Arena arena_;

    /** @name Tracking-block bank (SoA, indexed by track slot) */
    ///@{
    ShardedIndexMap track_index_;
    ArenaVector<Tag> track_store_;
    ArenaVector<Tag> track_load_;     //!< only with track_loads_
    ArenaVector<Tag> track_sc_;       //!< only with detect_races_
    ArenaVector<ThreadId> track_sc_src_;
    ///@}

    /**
     * @name Atomic-block bank (SoA). In unified mode it is indexed by
     * track slot (atomic_index_ unused); otherwise by its own map.
     * A block is "valid" (has a pending persist) iff its last.src is
     * not invalid_persist.
     */
    ///@{
    ShardedIndexMap atomic_index_;
    ArenaVector<Tag> atomic_last_;
    ArenaVector<PersistId> atomic_group_start_;
    ArenaVector<double> atomic_group_begin_;
    ///@}

    /**
     * @name Px86 dirty-line bank (SoA, same index as the atomic bank;
     * populated only when px86_). Each line carries the merged
     * dependences of its dirty stores (`px86_ctx_`), an intrusive
     * list of dirty pieces in store order (head/tail into
     * `px86_pieces_`, linked via DirtyPiece::next), and the last
     * thread that enqueued it on a dirty_lines list (`px86_mark_`,
     * dedup so barriers flush each line once). Flushed pieces recycle
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

    ArenaVector<Tag> px86_ctx_;
    ArenaVector<std::uint32_t> px86_dirty_head_;
    ArenaVector<std::uint32_t> px86_dirty_tail_;
    ArenaVector<ThreadId> px86_mark_;
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

    mutable PersistLog log_;
    mutable std::array<StagedRecord, stage_capacity> stage_;
    mutable std::size_t stage_count_ = 0;

    /**
     * Deferred-materialization mode (compiled_replay.cc): flushStage
     * parks staged PODs here instead of building PersistRecords, so
     * the record construction (field copies plus dep-set vector
     * allocations — the bulk of record_log's cost) can fan out across
     * workers after the serial pass, in exact log order. log() and
     * takeLog() fall back to serial materialization if the parallel
     * pass has not consumed the backlog.
     */
    mutable std::vector<StagedRecord> deferred_;
    bool defer_log_ = false;

    std::vector<RaceSample> race_samples_;
    PersistId next_persist_id_ = 0;
};

/*
 * Hot-path handler bodies. These live in the header (not
 * timing_engine.cc) so that every execution front end inlines them:
 * process() always could (same TU), but the compiled-trace executor
 * lives in another translation unit, and a cross-TU call per micro-op
 * was its single largest cost. Bodies are identical to the pre-move
 * .cc definitions; only the plugin loops moved behind the out-of-line
 * notify*Plugins helpers.
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
            // persist piece never needs a second hash probe.
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
        // The compiler pre-resolved the slot.
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
            if (race_samples_.size() < 16) {
                RaceSample sample;
                sample.seq = seq;
                sample.thread = tid;
                sample.persist = id;
                sample.foreign = thread.shadow.src;
                race_samples_.push_back(sample);
            }
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

    if (has_plugins_)
        notifyPersist(seq, tid, addr, size, value, time, start,
                      race_bound, id, binding, binding_source,
                      thread.op, coalesce, record_ref);

    if (config_.record_log) {
        if (stage_count_ == stage_capacity)
            flushStage();
        StagedRecord &staged = stage_[stage_count_++];
        staged.id = id;
        staged.seq = seq;
        staged.addr = addr;
        staged.value = value;
        staged.time = time;
        staged.start = start;
        staged.op = thread.op;
        staged.binding = binding;
        staged.thread = tid;
        staged.deps = record_ref;
        staged.role = thread.role;
        staged.binding_source = binding_source;
        staged.size = static_cast<std::uint8_t>(size);
    }
}

inline void
PersistTimingEngine::px86StorePiece(std::uint32_t track_slot,
                                    std::uint32_t aslot_hint,
                                    ThreadId tid, ThreadState &thread,
                                    Addr addr, unsigned size,
                                    std::uint64_t value, const Tag &dep)
{
    std::uint32_t aslot;
    if (unified_)
        aslot = track_slot;
    else if (aslot_hint != no_slot_hint)
        aslot = aslot_hint;
    else
        aslot = atomicSlot(addr >> atomic_shift_);

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
                                   std::uint32_t aslot_hint, SeqNum seq,
                                   ThreadId tid, ThreadState &thread,
                                   Addr addr, unsigned size,
                                   std::uint64_t value, bool is_write)
{
    const std::uint32_t slot = track_slot;
    const bool persistent = isPersistentAddr(addr);
    const bool in_scope = all_scope_ || persistent;

    if (has_plugins_)
        notifyAccessPlugins(seq, addr, value, tid, size, is_write,
                            persistent);

    if (detect_races_) {
        // Shadow SC propagation (all addresses, regardless of the
        // model's conflict scope): inherit the latest foreign persist
        // SC-ordered before the previous access of this block.
        const ThreadId sc_src = track_sc_src_[slot];
        if (sc_src != invalid_thread && sc_src != tid &&
            track_sc_[slot].t > thread.shadow.t)
            thread.shadow = track_sc_[slot];
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
            px86StorePiece(slot, aslot_hint, tid, thread, addr, size,
                           value, pdep);
        } else {
            persistPieceAt(seq, tid, thread, slot, aslot_hint, addr,
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

    if (has_plugins_) {
        Addr line_base = invalid_addr;
        if (idx != no_piece)
            // Dirty: the first dirty piece names the line (barrier
            // legs arrive with addr 0, so the event address cannot).
            line_base = (px86_pieces_[idx].addr >> atomic_shift_)
                        << atomic_shift_;
        else if (addr != 0)
            line_base = (addr >> atomic_shift_) << atomic_shift_;
        notifyFlushPlugins(seq, tid, strong, idx != no_piece,
                           line_base);
    }

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
    if (has_plugins_)
        notifyBarrierPlugins(tid);
}

inline void
PersistTimingEngine::handleFenceEvent(bool full, ThreadId tid,
                                      ThreadState &thread)
{
    ++result_.fences;
    if (px86_)
        px86Fence(thread);
    else if (fold_barrier_)
        // Under the SC models an x86 fence acts as the persist
        // barrier of its canonical epoch counterpart.
        mergeInto(thread.epoch_dep, thread.accum_dep);
    if (has_plugins_)
        notifyFencePlugins(full, tid);
}

inline void
PersistTimingEngine::handleFlushEvent(bool strong, SeqNum seq,
                                      ThreadId tid, ThreadState &thread,
                                      Addr addr,
                                      std::uint32_t aslot_hint)
{
    // Under the SC-persistency models a flush carries no ordering
    // (persists are implicit in stores); only Px86 acts on it, and
    // only Px86 reports it to plugins.
    ++result_.flushes;
    if (px86_)
        handleFlushAt(strong, seq, tid, thread, addr, aslot_hint);
}

inline void
PersistTimingEngine::handleStrandEvent(ThreadId tid, ThreadState &thread)
{
    ++result_.strands;
    if (config_.model.kind == ModelKind::Strand) {
        thread.epoch_dep = Tag{};
        thread.accum_dep = Tag{};
    }
    if (has_plugins_)
        notifyStrandPlugins(tid);
}

} // namespace persim

#endif // PERSIM_PERSISTENCY_TIMING_ENGINE_HH
