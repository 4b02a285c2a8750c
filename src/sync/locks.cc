#include "sync/locks.hh"

namespace persim {

namespace {

constexpr std::uint64_t qnode_next_off = 0;
constexpr std::uint64_t qnode_locked_off = 8;

} // namespace

McsLock
McsLock::create(ThreadCtx &ctx)
{
    const Addr tail = ctx.vmalloc(lock_bytes, 64);
    ctx.store(tail, 0);
    return McsLock(tail);
}

Addr
McsLock::createQnode(ThreadCtx &ctx)
{
    const Addr qnode = ctx.vmalloc(qnode_bytes, 64);
    ctx.store(qnode + qnode_next_off, 0);
    ctx.store(qnode + qnode_locked_off, 0);
    return qnode;
}

void
McsLock::lock(ThreadCtx &ctx, Addr qnode) const
{
    ctx.store(qnode + qnode_next_off, 0);
    ctx.store(qnode + qnode_locked_off, 1);
    const Addr pred = ctx.rmwExchange(tail_, qnode);
    if (pred != 0) {
        ctx.store(pred + qnode_next_off, qnode);
        while (ctx.load(qnode + qnode_locked_off) != 0) {
            // Local spin on our own qnode flag.
        }
    }
}

void
McsLock::unlock(ThreadCtx &ctx, Addr qnode) const
{
    Addr next = ctx.load(qnode + qnode_next_off);
    if (next == 0) {
        // No known successor: try to swing the tail back to empty.
        if (ctx.rmwCas(tail_, qnode, 0) == qnode)
            return;
        // A successor is enqueueing; wait for it to link itself.
        while ((next = ctx.load(qnode + qnode_next_off)) == 0) {
        }
    }
    ctx.store(next + qnode_locked_off, 0);
}

} // namespace persim
