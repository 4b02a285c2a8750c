/**
 * @file
 * Compiled trace container (DESIGN.md Section 17).
 *
 * A compiled trace holds the output of segment prep — the decoded,
 * cache-line-split, scope-filtered, slot-interned micro-op program a
 * replay would otherwise rebuild from the raw event stream — as
 * in-memory struct-of-arrays columns the timing engine executes
 * directly:
 *
 *   kind u8[n] | size u8[n] | flags u8[n] | thread u32[n]
 *   | tslot u32[n] | aslot u32[n] | addr u64[n] | value u64[n]
 *   | seq u64[n] | run_len u32[r] | run_kind u8[r]
 *   | track_keys u64[t] | atomic_keys u64[a]
 *
 * flags bit 0 is the micro-op's is_write, bit 1 is "address is
 * persistent" (precomputed so the hot loop never recomputes range
 * membership). The run index partitions [0, micro_ops) into maximal
 * same-kind runs so the executor dispatches per run, not per op.
 * spec_fp records the compile spec the program was built under, so
 * replaying it under a different one is caught.
 */

#ifndef PERSIM_MEMTRACE_COMPILED_TRACE_HH
#define PERSIM_MEMTRACE_COMPILED_TRACE_HH

#include <cstdint>
#include <vector>

namespace persim {

/** tslot/aslot sentinel: the op has no slot in that bank. */
constexpr std::uint32_t compiled_no_slot = ~0u;

/** flags bit 0: the micro-op is a write. */
constexpr std::uint8_t compiled_flag_write = 1u;
/** flags bit 1: the micro-op's address is persistent. */
constexpr std::uint8_t compiled_flag_persistent = 2u;

/**
 * Zero-copy view of one compiled trace: column pointers plus the
 * trace facts. Valid only while the backing CompiledTrace is alive.
 */
struct CompiledTraceView
{
    std::uint64_t micro_ops = 0;
    std::uint64_t events = 0;
    std::uint64_t track_slots = 0;
    std::uint64_t atomic_slots = 0;
    std::uint64_t runs = 0;
    std::uint32_t thread_count = 0;
    std::uint64_t spec_fp = 0;

    const std::uint8_t *kind = nullptr;
    const std::uint8_t *size = nullptr;
    const std::uint8_t *flags = nullptr;
    const std::uint32_t *thread = nullptr;
    const std::uint32_t *tslot = nullptr;
    const std::uint32_t *aslot = nullptr;
    const std::uint64_t *addr = nullptr;
    const std::uint64_t *value = nullptr;
    const std::uint64_t *seq = nullptr;
    const std::uint32_t *run_len = nullptr;
    const std::uint8_t *run_kind = nullptr;
    const std::uint64_t *track_keys = nullptr;
    const std::uint64_t *atomic_keys = nullptr;
};

/** Owning compiled trace: the columns as growable vectors. */
struct CompiledTrace
{
    std::uint64_t events = 0;
    std::uint32_t thread_count = 0;
    std::uint64_t spec_fp = 0;

    std::vector<std::uint8_t> kind;
    std::vector<std::uint8_t> size;
    std::vector<std::uint8_t> flags;
    std::vector<std::uint32_t> thread;
    std::vector<std::uint32_t> tslot;
    std::vector<std::uint32_t> aslot;
    std::vector<std::uint64_t> addr;
    std::vector<std::uint64_t> value;
    std::vector<std::uint64_t> seq;
    std::vector<std::uint32_t> run_len;
    std::vector<std::uint8_t> run_kind;
    std::vector<std::uint64_t> track_keys;
    std::vector<std::uint64_t> atomic_keys;

    /** Rebuild the run index from the kind column. */
    void buildRuns();

    /** A view over this object's storage. */
    CompiledTraceView view() const;
};

} // namespace persim

#endif // PERSIM_MEMTRACE_COMPILED_TRACE_HH
