/**
 * @file
 * The segment compiler: decode + cache-line split + scope filter +
 * slot interning as a pure function of (events, CompileSpec).
 *
 * compiled_replay.cc compiles a whole trace's segments in parallel on
 * the TaskPool and renumbers the segment-local slots to global ones,
 * producing the in-memory compiled trace (memtrace/compiled_trace.hh,
 * DESIGN.md Section 17) the compiled executors run. None of this
 * depends on engine state, so segments compile in any order on any
 * worker.
 */

#ifndef PERSIM_PERSISTENCY_SEGMENT_COMPILE_HH
#define PERSIM_PERSISTENCY_SEGMENT_COMPILE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/flat_map.hh"
#include "memtrace/event.hh"

namespace persim {

static_assert(kMaxEventKind ==
                  static_cast<std::uint8_t>(EventKind::FullFence),
              "EventKind grew: teach compileSegment about the new "
              "kinds, then update this assertion");

/** Local-slot sentinel: this op has no slot of that bank. */
constexpr std::uint32_t no_local = ~0u;

/**
 * One compiled micro-op. Pieces carry their pre-split address range
 * and pre-masked value plus segment-local slot ids; control ops carry
 * only what the serial dispatch switch reads. 40 bytes, POD.
 */
struct MicroOp
{
    enum Kind : std::uint8_t {
        Piece,    //!< One <=8-byte access piece (tslot resolved).
        Barrier,  //!< PersistBarrier / PersistSync.
        Strand,   //!< NewStrand.
        Flush,    //!< clflush/clflushopt/clwb (is_write = strong).
        FenceOp,  //!< sfence / mfence.
        OpBegin,  //!< Marker OpBegin (operation id in value).
        OpEnd,    //!< Marker OpEnd.
        RoleData, //!< Marker RoleData.
        RoleHead, //!< Marker RoleHead.
    };

    Addr addr = 0;
    std::uint64_t value = 0;
    SeqNum seq = 0;
    std::uint32_t tslot = no_local; //!< Segment-local tracking slot.
    std::uint32_t aslot = no_local; //!< Segment-local atomic slot.
    ThreadId thread = 0;
    std::uint8_t kind = Piece;
    std::uint8_t size = 0;
    std::uint8_t is_write = 0;
};

/** Compiled form of one trace segment. */
struct SegmentProgram
{
    std::vector<MicroOp> ops;
    /** Interned block keys, indexed by local slot id. */
    std::vector<std::uint64_t> track_keys;
    std::vector<std::uint64_t> atomic_keys; //!< Non-unified only.
    /** Raw events consumed (including uncompiled kinds). */
    std::uint64_t events = 0;
};

/** Engine-config facts the compiler needs; entry-state independent. */
struct CompileSpec
{
    unsigned track_shift = 3;
    unsigned atomic_shift = 3;
    bool unified = false;
    bool all_scope = true;
    bool detect_races = false;
    bool px86 = false; //!< Flush/fence ops act (and intern slots).
};

/**
 * Compile @p count events into a micro-op program. Mirrors
 * PersistTimingEngine::process()/handlePiece() up to (but not
 * including) the first read of engine state: the piece split, the
 * scope filter, and the block-key computation are pure functions of
 * the event and the configuration.
 */
inline void
compileSegment(const TraceEvent *events, std::size_t count,
               const CompileSpec &spec, SegmentProgram &out)
{
    FlatIndexMap track_local;
    FlatIndexMap atomic_local;
    // Start at a quarter of the worst case: scope-filtered configs
    // emit far fewer ops than events, and growth on the POD vector is
    // a cheap memcpy, while a full-size reserve costs real page
    // faults per segment.
    out.ops.reserve(count / 4 + 16);
    out.events = count;

    for (std::size_t i = 0; i < count; ++i) {
        const TraceEvent &event = events[i];
        switch (event.kind) {
          case EventKind::Load:
          case EventKind::Store:
          case EventKind::Rmw: {
            // Same 8-byte-aligned split as process(), so each piece
            // lies within one tracking block and one atomic block.
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

                const bool persistent = isPersistentAddr(addr);
                const bool in_scope = spec.all_scope || persistent;
                if (in_scope || spec.detect_races) {
                    MicroOp op;
                    op.addr = addr;
                    op.value = piece_value;
                    op.seq = event.seq;
                    op.thread = event.thread;
                    op.kind = MicroOp::Piece;
                    op.size = static_cast<std::uint8_t>(chunk);
                    op.is_write = event.isWrite() ? 1 : 0;

                    bool inserted = false;
                    op.tslot = track_local.findOrInsert(
                        addr >> spec.track_shift, inserted);
                    if (inserted)
                        out.track_keys.push_back(addr >> spec.track_shift);
                    // Only persist pieces probe the atomic bank, and
                    // in unified mode it shares the tracking index.
                    if (!spec.unified && op.is_write && persistent) {
                        op.aslot = atomic_local.findOrInsert(
                            addr >> spec.atomic_shift, inserted);
                        if (inserted)
                            out.atomic_keys.push_back(
                                addr >> spec.atomic_shift);
                    }
                    out.ops.push_back(op);
                }
                addr += chunk;
                remaining -= chunk;
            }
            break;
          }
          case EventKind::PersistBarrier:
          case EventKind::PersistSync: {
            MicroOp op;
            op.kind = MicroOp::Barrier;
            op.thread = event.thread;
            // Px86 replays barriers as flushes, which log records
            // carrying the trace position.
            op.seq = event.seq;
            out.ops.push_back(op);
            break;
          }
          case EventKind::CacheFlush:
          case EventKind::CacheFlushOpt:
          case EventKind::CacheWriteBack: {
            // Always compiled (the SC models count flushes too); the
            // slot is interned only when Px86 will act on it.
            MicroOp op;
            op.kind = MicroOp::Flush;
            op.thread = event.thread;
            op.addr = event.addr;
            op.seq = event.seq;
            op.is_write = event.kind == EventKind::CacheFlush ? 1 : 0;
            if (spec.px86) {
                bool inserted = false;
                if (spec.unified) {
                    op.tslot = track_local.findOrInsert(
                        event.addr >> spec.track_shift, inserted);
                    if (inserted)
                        out.track_keys.push_back(
                            event.addr >> spec.track_shift);
                } else {
                    op.aslot = atomic_local.findOrInsert(
                        event.addr >> spec.atomic_shift, inserted);
                    if (inserted)
                        out.atomic_keys.push_back(
                            event.addr >> spec.atomic_shift);
                }
            }
            out.ops.push_back(op);
            break;
          }
          case EventKind::StoreFence:
          case EventKind::FullFence: {
            MicroOp op;
            op.kind = MicroOp::FenceOp;
            op.thread = event.thread;
            // The engine folds both the same way; plugins are told
            // which one fired (is_write = full fence).
            op.is_write = event.kind == EventKind::FullFence ? 1 : 0;
            out.ops.push_back(op);
            break;
          }
          case EventKind::NewStrand: {
            MicroOp op;
            op.kind = MicroOp::Strand;
            op.thread = event.thread;
            out.ops.push_back(op);
            break;
          }
          case EventKind::Marker: {
            MicroOp op;
            op.thread = event.thread;
            switch (event.markerCode()) {
              case MarkerCode::OpBegin:
                op.kind = MicroOp::OpBegin;
                op.value = event.value;
                out.ops.push_back(op);
                break;
              case MarkerCode::OpEnd:
                op.kind = MicroOp::OpEnd;
                out.ops.push_back(op);
                break;
              case MarkerCode::RoleData:
                op.kind = MicroOp::RoleData;
                out.ops.push_back(op);
                break;
              case MarkerCode::RoleHead:
                op.kind = MicroOp::RoleHead;
                out.ops.push_back(op);
                break;
              default:
                break; // Counted, like process()'s default arm.
            }
            break;
          }
          default:
            // PMalloc/PFree/ThreadStart/ThreadEnd/Fence: the serial
            // engine only counts them.
            break;
        }
    }
}

} // namespace persim

#endif // PERSIM_PERSISTENCY_SEGMENT_COMPILE_HH
