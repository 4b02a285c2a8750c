/**
 * @file
 * Locks over the traced memory API.
 *
 * The paper's queue benchmarks use MCS queue locks [20], and so does
 * every workload here. All lock state lives in simulated memory (by
 * convention the volatile address space, as the paper recommends), so
 * lock accesses appear in the trace and participate in
 * persist-ordering conflict analysis exactly as they would under
 * hardware tracing.
 */

#ifndef PERSIM_SYNC_LOCKS_HH
#define PERSIM_SYNC_LOCKS_HH

#include "common/types.hh"
#include "sim/engine.hh"

namespace persim {

/**
 * MCS queue lock. Waiters enqueue a per-thread qnode with an atomic
 * exchange on the tail pointer and spin on their own node's flag,
 * giving FIFO admission with local spinning.
 *
 * Qnode layout (16 bytes): [0..7] next pointer, [8..15] locked flag.
 */
class McsLock
{
  public:
    /** Bytes a caller must allocate for the lock word. */
    static constexpr std::uint64_t lock_bytes = 8;

    /** Bytes a caller must allocate per thread for a qnode. */
    static constexpr std::uint64_t qnode_bytes = 16;

    McsLock() : tail_(invalid_addr) {}

    /** Adopt an 8-byte lock word at @p tail_addr (must read as 0). */
    explicit McsLock(Addr tail_addr) : tail_(tail_addr) {}

    /** Allocate and zero the lock word in volatile simulated memory. */
    static McsLock create(ThreadCtx &ctx);

    /** Allocate and zero a qnode in volatile simulated memory. */
    static Addr createQnode(ThreadCtx &ctx);

    /** Acquire with the caller's @p qnode. */
    void lock(ThreadCtx &ctx, Addr qnode) const;

    /** Release; @p qnode must be the one passed to lock. */
    void unlock(ThreadCtx &ctx, Addr qnode) const;

    Addr tailAddr() const { return tail_; }

  private:
    Addr tail_;
};

/** RAII guard for McsLock. */
class McsGuard
{
  public:
    McsGuard(ThreadCtx &ctx, const McsLock &lock, Addr qnode)
        : ctx_(ctx), lock_(lock), qnode_(qnode)
    {
        lock_.lock(ctx_, qnode_);
    }

    ~McsGuard() { lock_.unlock(ctx_, qnode_); }

    McsGuard(const McsGuard &) = delete;
    McsGuard &operator=(const McsGuard &) = delete;

  private:
    ThreadCtx &ctx_;
    const McsLock &lock_;
    Addr qnode_;
};

} // namespace persim

#endif // PERSIM_SYNC_LOCKS_HH
