/**
 * @file
 * Compiled trace container (DESIGN.md Section 17).
 *
 * A compiled trace holds what the fast compiled executor reads of a
 * trace — the cache-line-split, slot-interned micro-op program a
 * replay would otherwise rebuild from the raw event stream — as
 * in-memory struct-of-arrays columns, 9 bytes per micro-op:
 *
 *   flags u8[n] | thread u32[n] | tslot u32[n]
 *   | run_len u32[r] | run_kind u8[r] | track_keys u64[t]
 *
 * flags bit 0 is the micro-op's is_write, bit 1 is "address is
 * persistent" (precomputed so the hot loop never recomputes range
 * membership). tslot is the piece's tracking slot in first-touch
 * order, and track_keys[tslot] its block key; the executor runs only
 * unified-granularity configs, where that key is also the persist
 * block, so no address column is kept. The run index partitions
 * [0, micro_ops) into maximal same-kind runs (CompiledOp) so the
 * executor dispatches per run, not per op. spec_fp records the
 * granularity the program was built under, so replaying it under a
 * different one is caught.
 */

#ifndef PERSIM_MEMTRACE_COMPILED_TRACE_HH
#define PERSIM_MEMTRACE_COMPILED_TRACE_HH

#include <cstdint>
#include <vector>

namespace persim {

/** tslot sentinel: the op is not an access piece. */
constexpr std::uint32_t compiled_no_slot = ~0u;

/** flags bit 0: the micro-op is a write. */
constexpr std::uint8_t compiled_flag_write = 1u;
/** flags bit 1: the micro-op's address is persistent. */
constexpr std::uint8_t compiled_flag_persistent = 2u;

/** Micro-op kinds, one per run in the run index. */
enum class CompiledOp : std::uint8_t {
    Piece,   //!< One <=8-byte access piece.
    Barrier, //!< PersistBarrier / PersistSync.
    Flush,   //!< clflush / clflushopt / clwb (counted only).
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
    std::uint64_t runs = 0;
    std::uint32_t thread_count = 0;
    std::uint64_t spec_fp = 0;

    const std::uint8_t *flags = nullptr;
    const std::uint32_t *thread = nullptr;
    const std::uint32_t *tslot = nullptr;
    const std::uint32_t *run_len = nullptr;
    const std::uint8_t *run_kind = nullptr;
    const std::uint64_t *track_keys = nullptr;
};

/** Owning compiled trace: the columns as growable vectors. */
struct CompiledTrace
{
    std::uint64_t events = 0;
    std::uint32_t thread_count = 0;
    std::uint64_t spec_fp = 0;

    std::vector<std::uint8_t> flags;
    std::vector<std::uint32_t> thread;
    std::vector<std::uint32_t> tslot;
    std::vector<std::uint32_t> run_len;
    std::vector<std::uint8_t> run_kind;
    std::vector<std::uint64_t> track_keys;

    /**
     * Append one micro-op, extending the current run or opening a new
     * one.
     */
    void
    append(CompiledOp kind, std::uint8_t op_flags, std::uint32_t tid,
           std::uint32_t slot)
    {
        const auto k = static_cast<std::uint8_t>(kind);
        // Cap runs at u32 range; maximal runs beyond that just split.
        if (run_kind.empty() || run_kind.back() != k ||
            run_len.back() == 0xffffffffu) {
            run_kind.push_back(k);
            run_len.push_back(0);
        }
        ++run_len.back();
        flags.push_back(op_flags);
        thread.push_back(tid);
        tslot.push_back(slot);
        if (tid >= thread_count)
            thread_count = tid + 1;
    }

    /** A view over this object's storage. */
    CompiledTraceView view() const;
};

} // namespace persim

#endif // PERSIM_MEMTRACE_COMPILED_TRACE_HH
