/**
 * @file
 * PersistRace detector: an analysis plugin reporting stores whose
 * durability order is unconstrained relative to a conflicting access
 * (after *Taming x86-TSO Persistency*'s robustness violations and
 * Jaaru/PersistRace-style dynamic detection; see DESIGN.md §14).
 *
 * Two rules, both per-trace and sound (no false positives on the
 * engine's own ground truth):
 *
 *  - **UnorderedPersist** (any model): a persist is issued while the
 *    thread's SC shadow — the latest foreign persist ordered before
 *    this thread's execution through a chain of conflicting volatile
 *    accesses — completes *later* than everything in the persist's
 *    own constraint cone. The two persists are provably unordered by
 *    the persistency model despite being ordered by the program's
 *    synchronization: recovery may observe the second without the
 *    first. This is an independent re-derivation of the engine's
 *    detect_races analysis from the plugin hook stream alone, and
 *    must agree with TimingResult::races exactly (pinned by
 *    tests/persistency/persist_race_test.cc).
 *
 *  - **DirtyRead** (Px86 only): a thread reads or overwrites a cache
 *    line holding another thread's not-yet-flushed store. TSO makes
 *    the value visible immediately, but nothing orders the reader's
 *    subsequent persists after the dirty store's eventual durability
 *    — the classic recover-to-a-flag-without-data hazard. Reported
 *    once per (dirty episode, accessing thread).
 *
 * The detector keeps its own per-line state keyed by address (it
 * never sees engine slot numbers), so it works identically under
 * unified and non-unified granularities.
 */

#ifndef PERSIM_PERSISTENCY_PERSIST_RACE_HH
#define PERSIM_PERSISTENCY_PERSIST_RACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/flat_map.hh"
#include "common/types.hh"
#include "persistency/analysis_plugin.hh"

namespace persim {

/** Streaming persistency-race detector (attach via TimingConfig). */
class PersistRaceDetector : public AnalysisPlugin
{
  public:
    struct Options
    {
        /** Max example races retained (counts are never capped). */
        std::size_t max_samples = 16;
    };

    enum class RaceKind : std::uint8_t {
        UnorderedPersist,
        DirtyRead,
    };

    /** One example race. */
    struct Race
    {
        RaceKind kind = RaceKind::UnorderedPersist;
        SeqNum seq = 0;      //!< Trace position of the racy event.
        Addr addr = 0;       //!< Address involved (DirtyRead: line base).
        ThreadId thread = 0; //!< Thread issuing the racy persist/access.
        /** DirtyRead: thread owning the dirty line. */
        ThreadId other = invalid_thread;
        /** UnorderedPersist: the racy persist. */
        PersistId persist = invalid_persist;
        /** UnorderedPersist: the SC-preceding foreign persist it is
            unordered with. */
        PersistId foreign = invalid_persist;
    };

    PersistRaceDetector() : PersistRaceDetector(Options{}) {}
    explicit PersistRaceDetector(Options options);

    void onAttach(const TimingConfig &config) override;
    void onAccess(const AccessInfo &info) override;
    void onPersistIssue(const PersistInfo &info) override;
    void onFlush(const FlushInfo &info) override;
    void onTraceEnd(const TimingResult &result) override;

    std::uint64_t unorderedPersists() const { return unordered_; }
    std::uint64_t dirtyReads() const { return dirty_reads_; }
    std::uint64_t total() const { return unordered_ + dirty_reads_; }

    const std::vector<Race> &samples() const { return samples_; }

    /** Human-readable report of counts and sample races. */
    std::string format() const;

    /** Drop all state and counts (for reuse across replays). */
    void reset();

  private:
    /** Latest-persist tag propagated through conflicting accesses. */
    struct ScTag
    {
        double t = 0.0;
        PersistId src = invalid_persist;
    };

    struct ThreadShadow
    {
        ScTag shadow;      //!< Latest SC-preceding foreign persist.
        ScTag own;         //!< Latest persist this thread issued.
    };

    ThreadShadow &shadowState(ThreadId tid);
    void commitPending();
    void recordRace(const Race &race);

    Options options_;

    unsigned track_shift_ = 3;
    unsigned atomic_shift_ = 6;
    bool px86_ = false;

    /** @name Rule 1: SC shadow propagation (tracking granularity) */
    ///@{
    FlatIndexMap sc_index_;
    std::vector<ScTag> sc_tag_;
    std::vector<ThreadId> sc_writer_;
    std::vector<ThreadShadow> threads_;
    /**
     * The engine records a block's SC tag *after* handling the access
     * (so an access's own persist is included), but the plugin hook
     * fires before. The commit is therefore deferred until the next
     * hook that could read or change the involved state: the next
     * access, or a flush (whose persists would otherwise leak into
     * the pending tag).
     */
    bool pending_ = false;
    std::uint32_t pending_slot_ = 0;
    ThreadId pending_tid_ = 0;
    ///@}

    /** @name Rule 2: Px86 dirty-line ownership (atomic granularity) */
    ///@{
    FlatIndexMap line_index_;
    std::vector<ThreadId> line_owner_;   //!< invalid_thread = clean.
    std::vector<SeqNum> line_store_seq_; //!< Seq of the dirtying store.
    /** Threads already reported against this dirty episode (bit =
        tid & 63: dedup only, collisions just merge episodes). */
    std::vector<std::uint64_t> line_reported_;
    ///@}

    std::uint64_t unordered_ = 0;
    std::uint64_t dirty_reads_ = 0;
    std::vector<Race> samples_;
};

const char *raceKindName(PersistRaceDetector::RaceKind kind);

} // namespace persim

#endif // PERSIM_PERSISTENCY_PERSIST_RACE_HH
