#include "sync/native_locks.hh"

#include <thread>

namespace persim {

void
NativeMcsLock::lock(Qnode &qnode)
{
    qnode.next.store(nullptr, std::memory_order_relaxed);
    qnode.locked.store(1, std::memory_order_relaxed);
    Qnode *pred = tail_.exchange(&qnode, std::memory_order_acq_rel);
    if (pred != nullptr) {
        pred->next.store(&qnode, std::memory_order_release);
        while (qnode.locked.load(std::memory_order_acquire) != 0)
            std::this_thread::yield();
    }
}

void
NativeMcsLock::unlock(Qnode &qnode)
{
    Qnode *next = qnode.next.load(std::memory_order_acquire);
    if (next == nullptr) {
        Qnode *expected = &qnode;
        if (tail_.compare_exchange_strong(expected, nullptr,
                                          std::memory_order_acq_rel))
            return;
        while ((next = qnode.next.load(std::memory_order_acquire))
               == nullptr)
            std::this_thread::yield();
    }
    next->locked.store(0, std::memory_order_release);
}

} // namespace persim
