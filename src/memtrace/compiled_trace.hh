/**
 * @file
 * Compiled trace container (DESIGN.md Section 17).
 *
 * A compiled trace holds what the fast compiled executor reads of a
 * trace — the 8-byte-split, slot-interned micro-op program a replay
 * would otherwise rebuild from the raw event stream — as in-memory
 * struct-of-arrays columns, 7 bytes per micro-op:
 *
 *   flags u8[n] | thread u16[n] | tslot u32[n]
 *   | run_len u32[r] | run_kind u8[r]
 *   | line u32[t]   (only when the line and tracking granularity differ)
 *
 * For a piece, flags bit 0 is is_write, bit 1 "address is persistent"
 * (precomputed so the hot loop never recomputes range membership), and
 * bits 2-7 the piece's shape: its byte offset in its 8-byte word and
 * its size - 1. tslot is the piece's tracking slot in first-touch
 * order. A flush carries the slot of the line it flushes in tslot and
 * its clflush bit in flags bit 0. The run index partitions
 * [0, micro_ops) into maximal same-kind runs (CompiledOp), so the
 * executor dispatches per run, not per op.
 *
 * No block key is kept: a persist block is identified by its dense
 * slot. When the line granularity equals the tracking granularity
 * the tracking slot is the line; otherwise line[tslot] is the piece's
 * line, numbered in first-touch order with the flushed lines. Only
 * px86 reads the line column (its atomic block is the line); strict,
 * epoch and strand persist whole tracking blocks and ignore it, so
 * one program at 8-byte tracking serves all four models. spec_fp
 * records the tracking and line granularity the program was built
 * under, so replaying it under a config that needs other ones is
 * caught.
 */

#ifndef PERSIM_MEMTRACE_COMPILED_TRACE_HH
#define PERSIM_MEMTRACE_COMPILED_TRACE_HH

#include <cstdint>
#include <vector>

namespace persim {

/** tslot sentinel: the op is not an access piece or a flush. */
constexpr std::uint32_t compiled_no_slot = ~0u;

/** Threads the u16 thread column can name (ids 0 to 65,535): the one
    ceiling of every per-thread table, so the engine and TraceStats
    refuse the ids a compile refuses. */
constexpr std::uint64_t compiled_max_threads = std::uint64_t{1} << 16;

/** flags bit 0 of a piece: the micro-op is a write. */
constexpr std::uint8_t compiled_flag_write = 1u;
/** flags bit 1 of a piece: the micro-op's address is persistent. */
constexpr std::uint8_t compiled_flag_persistent = 2u;
/** flags bit 0 of a flush: clflush (ordered like a store). */
constexpr std::uint8_t compiled_flag_clflush = 1u;
/** flags bits 2-7 of a piece: (size - 1) << 3 | offset in its word. */
constexpr unsigned compiled_shape_shift = 2;

/** Micro-op kinds, one per run in the run index. */
enum class CompiledOp : std::uint8_t {
    Piece,   //!< One <=8-byte access piece.
    Barrier, //!< PersistBarrier / PersistSync.
    Flush,   //!< clflush / clflushopt / clwb.
    Fence,   //!< sfence / mfence.
    Strand,  //!< NewStrand.
    OpEnd,   //!< Marker OpEnd.
};

/**
 * Zero-copy view of one compiled trace: column pointers plus the
 * trace facts. Valid only while the backing CompiledTrace is alive.
 */
struct CompiledTraceView
{
    std::uint64_t micro_ops = 0;
    std::uint64_t events = 0;
    std::uint64_t track_slots = 0;
    /** Lines: track_slots unless a line column is kept. */
    std::uint64_t lines = 0;
    std::uint64_t runs = 0;
    std::uint32_t thread_count = 0;
    std::uint64_t spec_fp = 0;

    const std::uint8_t *flags = nullptr;
    const std::uint16_t *thread = nullptr;
    const std::uint32_t *tslot = nullptr;
    const std::uint32_t *run_len = nullptr;
    const std::uint8_t *run_kind = nullptr;
    /** Line of each tracking slot; null when they coincide. */
    const std::uint32_t *line = nullptr;
};

/** Owning compiled trace: the columns as growable vectors. */
struct CompiledTrace
{
    std::uint64_t events = 0;
    std::uint64_t track_slots = 0;
    std::uint64_t lines = 0;
    /** Highest thread id + 1; compileTrace refuses more than
        compiled_max_threads. */
    std::uint64_t thread_count = 0;
    std::uint64_t spec_fp = 0;

    std::vector<std::uint8_t> flags;
    std::vector<std::uint16_t> thread;
    std::vector<std::uint32_t> tslot;
    std::vector<std::uint32_t> run_len;
    std::vector<std::uint8_t> run_kind;
    std::vector<std::uint32_t> line;

    /** A view over this object's storage. */
    CompiledTraceView view() const;
};

} // namespace persim

#endif // PERSIM_MEMTRACE_COMPILED_TRACE_HH
