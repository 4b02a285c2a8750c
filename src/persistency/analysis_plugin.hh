/**
 * @file
 * Analysis-plugin interface on the persist-timing engine.
 *
 * A plugin is a passive observer the engine notifies at the points
 * where persistency-relevant facts are decided: every tracked access
 * piece, every persist (issue and completion), every Px86 cache-line
 * flush, every fence/barrier, and the end-of-trace crash-cut
 * boundary. Plugins compose with every engine feature — record_log
 * and record_deps included — because the hooks fire from the engine's
 * own piece handlers in trace order. A config with plugins is never
 * compiled: replayTrace (persistency/compiled_replay.hh) sends it
 * through the engine.
 *
 * Scope: plugins observe exactly the accesses the engine tracks.
 * Under ConflictScope::AllAddresses (every built-in model except
 * BPFS) that is every access piece; under PersistentOnly, volatile
 * pieces are skipped before the hook unless detect_races re-enables
 * tracking. Granularity: info structs carry raw piece addresses;
 * plugins that reason per cache line derive the line themselves from
 * the shifts in the attached TimingConfig (the engine's banks are
 * not exposed — under the non-unified px86 preset tracking and
 * atomic granularity differ, so slot numbers would be meaningless to
 * a plugin anyway).
 *
 * Hooks are plain virtuals behind a has-plugins flag, so a config
 * with no plugins pays one untaken branch per site and the hot path
 * stays unchanged (asserted by the golden replay tests).
 */

#ifndef PERSIM_PERSISTENCY_ANALYSIS_PLUGIN_HH
#define PERSIM_PERSISTENCY_ANALYSIS_PLUGIN_HH

#include <cstdint>

#include "common/types.hh"
#include "persistency/persist_log.hh"

namespace persim {

struct TimingConfig;
struct TimingResult;

/** One tracked access piece (<=8 bytes), before the engine acts. */
struct AccessInfo
{
    SeqNum seq = 0;            //!< Trace position of the access.
    Addr addr = 0;             //!< Piece address.
    std::uint64_t value = 0;   //!< Piece value (stores/RMWs).
    ThreadId thread = 0;
    std::uint8_t size = 0;     //!< Piece size in bytes.
    bool is_write = false;
    bool persistent = false;   //!< isPersistentAddr(addr).
};

/** One atomic persist piece, with its timing decided. */
struct PersistInfo
{
    PersistId id = invalid_persist;
    SeqNum seq = 0;            //!< Trace position of the causing event.
    Addr addr = 0;
    std::uint64_t value = 0;
    double start = 0.0;        //!< In-flight window start.
    double time = 0.0;         //!< Completion time.
    /** Upper bound on the completion time of every persist in this
        persist's constraint cone (= start, or the group time when
        coalescing). A foreign persist past this bound is provably
        unordered with this one. */
    double race_bound = 0.0;
    ThreadId thread = 0;       //!< Issuing (for flushes: flushing) thread.
    std::uint64_t op = no_operation;
    PersistId binding = invalid_persist;
    DepSource binding_source = DepSource::None;
    /** Full direct-dependence set (record_deps only, else null/0).
        Valid only for the duration of the hook call. */
    const PersistId *deps = nullptr;
    std::uint32_t dep_count = 0;
    std::uint8_t size = 0;
    bool coalesced = false;
};

/** One Px86 cache-line flush (clflush/clflushopt/clwb/barrier leg). */
struct FlushInfo
{
    SeqNum seq = 0;
    /** Base address of the flushed line (atomic granularity), or
        invalid_addr for a barrier-compiled flush of a line another
        thread already cleaned (no dirty piece survives to name it —
        such a flush persists nothing). */
    Addr line_base = invalid_addr;
    ThreadId thread = 0;
    bool strong = false;       //!< clflush (vs clflushopt/clwb/barrier).
    bool line_dirty = false;   //!< Pieces persisted by this flush.
};

/** Ordering-point kinds reported to onFence. */
enum class FenceEvent : std::uint8_t {
    StoreFence,     //!< sfence
    FullFence,      //!< mfence
    PersistBarrier, //!< persist barrier / sync (any model)
};

/**
 * Base class for timing-engine analysis plugins. Hooks fire in trace
 * order on the replay thread; default implementations are no-ops so
 * plugins override only what they need. The engine does not own the
 * plugin; the pointer in TimingConfig::plugins must outlive replay.
 */
class AnalysisPlugin
{
  public:
    virtual ~AnalysisPlugin() = default;

    /** Engine construction: the validated config, for granularities
        and model flags. */
    virtual void onAttach(const TimingConfig &config)
    {
        (void)config;
    }

    /** A tracked access piece, before the engine updates any state. */
    virtual void onAccess(const AccessInfo &info) { (void)info; }

    /**
     * A persist piece is issued / completes. The engine assigns
     * completion eagerly, so the two hooks fire back-to-back with the
     * same info; plugins modelling in-flight windows should use
     * info.start and info.time rather than hook arrival order.
     */
    virtual void onPersistIssue(const PersistInfo &info) { (void)info; }
    virtual void onPersistComplete(const PersistInfo &info)
    {
        (void)info;
    }

    /** A Px86 flush event, before its pieces persist (the persists
        follow as onPersistIssue/Complete calls when line_dirty). The
        SC-persistency models treat flushes as no-ops and do not
        report them. */
    virtual void onFlush(const FlushInfo &info) { (void)info; }

    /** A fence or persist barrier, after the engine applied it (a
        Px86 barrier's compiled flushes report first). */
    virtual void onFence(FenceEvent kind, ThreadId thread)
    {
        (void)kind;
        (void)thread;
    }

    /** A NewStrand event, after the strand state reset. */
    virtual void onStrand(ThreadId thread) { (void)thread; }

    /** End of trace: the crash-cut boundary. The result is final
        (including the Px86 unflushed audit); crash-state enumeration
        over the persist log happens after this point. */
    virtual void onTraceEnd(const TimingResult &result)
    {
        (void)result;
    }
};

} // namespace persim

#endif // PERSIM_PERSISTENCY_ANALYSIS_PLUGIN_HH
