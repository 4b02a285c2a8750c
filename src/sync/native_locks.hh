/**
 * @file
 * Native (real-hardware) lock for instruction-rate measurement.
 *
 * The paper measures "instruction execution rate" by running the
 * queue benchmarks natively, optimized for volatile performance, on a
 * real machine. NativeMcsLock is the native twin of the traced MCS
 * lock in locks.hh, built on std::atomic; it mirrors the MCS
 * algorithm [20] used in the paper's methodology.
 */

#ifndef PERSIM_SYNC_NATIVE_LOCKS_HH
#define PERSIM_SYNC_NATIVE_LOCKS_HH

#include <atomic>
#include <cstdint>

namespace persim {

/** MCS queue lock over std::atomic. */
class NativeMcsLock
{
  public:
    /** Per-thread queue node; 64-byte aligned to avoid false sharing. */
    struct alignas(64) Qnode
    {
        std::atomic<Qnode *> next{nullptr};
        std::atomic<std::uint64_t> locked{0};
    };

    void lock(Qnode &qnode);
    void unlock(Qnode &qnode);

  private:
    std::atomic<Qnode *> tail_{nullptr};
};

} // namespace persim

#endif // PERSIM_SYNC_NATIVE_LOCKS_HH
