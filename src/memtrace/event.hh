/**
 * @file
 * Memory trace event model.
 *
 * A trace is the sequence of memory events of one multithreaded
 * execution, recorded in a single global order. Because the persim
 * execution engine serializes one event at a time (analysis
 * atomicity, see src/sim/), the global order is a legal sequentially
 * consistent execution: every event of every thread appears, events
 * of one thread appear in program order, and a load returns the value
 * of the most recent prior store to its address.
 *
 * This replaces the paper's PIN-based tracing framework [19, 22]: the
 * downstream persistency analyses consume exactly the information PIN
 * provided (loads, stores, persist/strand barriers, persistent
 * malloc/free, and operation markers).
 */

#ifndef PERSIM_MEMTRACE_EVENT_HH
#define PERSIM_MEMTRACE_EVENT_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace persim {

/**
 * Base of the simulated volatile address region. Addresses below
 * persistent_base belong to the volatile address space.
 */
constexpr Addr volatile_base = 0x0000'0001'0000'0000ULL;

/** Base of the simulated persistent (NVRAM) address region. */
constexpr Addr persistent_base = 0x0000'0100'0000'0000ULL;

/** True iff @p addr lies in the persistent address space. */
constexpr bool
isPersistentAddr(Addr addr)
{
    return addr >= persistent_base;
}

/** Kind of a trace event. */
enum class EventKind : std::uint8_t {
    Load = 0,           //!< Read of up to 8 bytes.
    Store = 1,          //!< Write of up to 8 bytes (a persist if the
                        //!< address is persistent).
    Rmw = 2,            //!< Atomic read-modify-write of up to 8 bytes.
    PersistBarrier = 3, //!< Divides the thread's execution into epochs.
    NewStrand = 4,      //!< Begins a new persist strand on the thread.
    PersistSync = 5,    //!< Drains outstanding persists (buffered
                        //!< strict persistency).
    PMalloc = 6,        //!< Persistent allocation: addr, value = size.
    PFree = 7,          //!< Persistent free: addr.
    ThreadStart = 8,    //!< First event of a thread.
    ThreadEnd = 9,      //!< Last event of a thread.
    Marker = 10,        //!< Operation annotation; does not touch memory.
    Fence = 11,         //!< Consistency fence: under TSO execution,
                        //!< the point where the thread drained its
                        //!< store buffer. Not a persist barrier.
    CacheFlush = 12,    //!< clflush: flush one cache line, strongly
                        //!< ordered against stores and other
                        //!< clflushes (Px86).
    CacheFlushOpt = 13, //!< clflushopt: flush one cache line, ordered
                        //!< only against same-line stores and fences.
    CacheWriteBack = 14, //!< clwb: write back one cache line; same
                        //!< ordering as clflushopt.
    StoreFence = 15,    //!< sfence: orders clflushopt/clwb with
                        //!< surrounding stores (a persistency fence).
    FullFence = 16,     //!< mfence: full fence; same persistency
                        //!< semantics as sfence.
};

/**
 * Highest valid EventKind value. The single source of truth for the
 * trace reader's kind-byte check (readTraceFile) and the static_assert
 * in compiled_replay.cc: keep it on the last enumerator above when
 * extending the enum — eventKindName's exhaustive switch (-Wswitch)
 * is the compile-time reminder.
 */
constexpr std::uint8_t kMaxEventKind =
    static_cast<std::uint8_t>(EventKind::FullFence);

/**
 * Simulated cache line size in bytes: the unit clflush/clflushopt/
 * clwb operate on, and the atomic persist granularity of the Px86
 * persistency model.
 */
constexpr std::uint64_t cache_line_bytes = 64;

/** Marker codes carried by EventKind::Marker events. */
enum class MarkerCode : std::uint16_t {
    None = 0,
    OpBegin = 1,   //!< Start of a logical operation; value = operation id.
    OpEnd = 2,     //!< End of a logical operation; value = operation id.
    RoleData = 3,  //!< Subsequent persists of this op are entry data.
    RoleHead = 4,  //!< Subsequent persists of this op are head/commit
                   //!< pointer updates.
    UserBase = 100, //!< First code available to applications.
};

/**
 * One memory event. Fixed-size and trivially copyable so traces can
 * be written to disk as a flat array.
 */
struct TraceEvent
{
    SeqNum seq = 0;          //!< Position in the global SC order.
    Addr addr = 0;           //!< Accessed / allocated address.
    std::uint64_t value = 0; //!< Stored value (Store/Rmw), allocation
                             //!< size (PMalloc), or marker argument.
    ThreadId thread = 0;     //!< Issuing thread.
    EventKind kind = EventKind::Load;
    std::uint8_t size = 0;   //!< Access size in bytes (1..8).
    std::uint16_t marker = 0; //!< MarkerCode for Marker events.

    /** True for Load/Store/Rmw. */
    bool isAccess() const
    {
        return kind == EventKind::Load || kind == EventKind::Store ||
            kind == EventKind::Rmw;
    }

    /** True if the event reads memory (Load or Rmw). */
    bool isRead() const
    {
        return kind == EventKind::Load || kind == EventKind::Rmw;
    }

    /** True if the event writes memory (Store or Rmw). */
    bool isWrite() const
    {
        return kind == EventKind::Store || kind == EventKind::Rmw;
    }

    /** True if the event is a write to the persistent address space. */
    bool isPersist() const
    {
        return isWrite() && isPersistentAddr(addr);
    }

    /** Marker code, for Marker events. */
    MarkerCode markerCode() const
    {
        return static_cast<MarkerCode>(marker);
    }
};

static_assert(sizeof(TraceEvent) == 32, "TraceEvent must stay compact");

/** Human-readable name of an event kind. */
const char *eventKindName(EventKind kind);

/** One-line textual rendering of an event (for debugging/tools). */
std::string formatEvent(const TraceEvent &event);

} // namespace persim

#endif // PERSIM_MEMTRACE_EVENT_HH
