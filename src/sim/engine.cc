#include "sim/engine.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/error.hh"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__)
#error "the fiber switch in engine.cc is written for x86-64"
#endif

/*
 * persim_fiber_switch(save, next): save the System V callee-saved
 * state (rbx, rbp, r12-r15, the MXCSR control bits and the x87
 * control word) on the current stack, store the stack pointer in
 * *save, load next as the stack pointer and restore the same state
 * from it. Returns on the fiber whose stack next is.
 *
 * It carries no CFI: mid-switch the frame belongs to neither stack,
 * and nothing unwinds through it.
 *
 * persim_fiber_start: where a fresh fiber's first switch "returns"
 * to. Its initial frame (see Fiber::Fiber) leaves the entry function
 * in r12 and its argument in rbx; the stack is 16-byte aligned at the
 * call. The entry function never returns (a finished fiber switches
 * away for good); ud2 traps if it does.
 */
asm(R"(
    .pushsection .text
    .p2align 4
    .globl persim_fiber_switch
    .hidden persim_fiber_switch
    .type persim_fiber_switch, @function
persim_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size persim_fiber_switch, .-persim_fiber_switch

    .p2align 4
    .globl persim_fiber_start
    .hidden persim_fiber_start
    .type persim_fiber_start, @function
persim_fiber_start:
    .cfi_startproc
    .cfi_undefined rip
    movq %rbx, %rdi
    callq *%r12
    ud2
    .cfi_endproc
    .size persim_fiber_start, .-persim_fiber_start
    .popsection
)");

extern "C" void persim_fiber_switch(void **save, void *next);
extern "C" void persim_fiber_start();

namespace persim {

namespace {

/** Fiber stack size, guard page included: glibc's default thread
    stack (RLIMIT_STACK), so a workload that fits a std::thread fits
    a fiber. */
constexpr std::size_t fiber_stack_bytes = 8ULL << 20;

} // namespace

/**
 * One simulated thread's execution context. A worker fiber owns an
 * mmap'd stack whose lowest page is a PROT_NONE guard; the context of
 * run()'s caller (the one without a stack) only holds its saved stack
 * pointer while the workers run.
 */
struct ExecutionEngine::Fiber
{
    /** The caller's context. */
    Fiber() = default;

    /** A worker fiber that will run @p fn as thread @p tid. */
    Fiber(ExecutionEngine *engine, ThreadId tid, const WorkerFn *fn)
        : engine(engine), tid(tid), fn(fn)
    {
        void *mapping = mmap(nullptr, fiber_stack_bytes,
                             PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE |
                                 MAP_STACK,
                             -1, 0);
        if (mapping == MAP_FAILED)
            PERSIM_FATAL("cannot map a " << fiber_stack_bytes
                         << "-byte fiber stack: " << std::strerror(errno));
        stack = static_cast<char *>(mapping);
        const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
        if (mprotect(stack, page, PROT_NONE) != 0) {
            const int error = errno;
            munmap(stack, fiber_stack_bytes);
            PERSIM_FATAL("cannot protect a fiber guard page: "
                         << std::strerror(error));
        }
        stack_bottom = stack + page;
        stack_size = fiber_stack_bytes - page;

        // Initial frame, as persim_fiber_switch pops it: control
        // words, r15..r12, rbx, rbp, return address. Leaves rsp
        // 16-byte aligned in persim_fiber_start.
        auto *frame = reinterpret_cast<std::uint64_t *>(
            stack + fiber_stack_bytes - 128);
        std::uint32_t mxcsr = 0;
        std::uint16_t fpu_cw = 0;
        asm volatile("stmxcsr %0" : "=m"(mxcsr));
        asm volatile("fnstcw %0" : "=m"(fpu_cw));
        frame[0] = mxcsr | (std::uint64_t{fpu_cw} << 32);
        frame[1] = 0; // r15
        frame[2] = 0; // r14
        frame[3] = 0; // r13
        frame[4] = reinterpret_cast<std::uint64_t>(&fiberMain); // r12
        frame[5] = reinterpret_cast<std::uint64_t>(this);       // rbx
        frame[6] = 0; // rbp: ends frame-pointer walks
        frame[7] = reinterpret_cast<std::uint64_t>(&persim_fiber_start);
        sp = frame;
#if defined(__SANITIZE_THREAD__)
        tsan_fiber = __tsan_create_fiber(0);
#endif
    }

    ~Fiber()
    {
        if (stack == nullptr)
            return;
#if defined(__SANITIZE_THREAD__)
        __tsan_destroy_fiber(tsan_fiber);
#endif
#if defined(__SANITIZE_ADDRESS__)
        // Frames left on a finished fiber's stack keep their redzones
        // poisoned; clear them before the range can be mapped again.
        __asan_unpoison_memory_region(stack_bottom, stack_size);
#endif
        munmap(stack, fiber_stack_bytes);
    }

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    ExecutionEngine *engine = nullptr;
    ThreadId tid = invalid_thread;
    const WorkerFn *fn = nullptr;

    /** Saved stack pointer while suspended. */
    void *sp = nullptr;

    /** The mapping (guard page first); null for the caller. */
    char *stack = nullptr;

    /** Usable stack range (the caller's is learned on first entry). */
    const void *stack_bottom = nullptr;
    std::size_t stack_size = 0;

#if defined(__SANITIZE_ADDRESS__)
    void *fake_stack = nullptr;
#endif
#if defined(__SANITIZE_THREAD__)
    void *tsan_fiber = nullptr;
#endif
};

ExecutionEngine::ExecutionEngine(const EngineConfig &config, TraceSink *sink)
    : config_(config), sink_(sink),
      valloc_(volatile_base, volatile_capacity),
      palloc_(persistent_base, persistent_capacity),
      owned_policy_(makePolicy(config.scheduler, config.seed,
                               config.quantum)),
      policy_(owned_policy_.get())
{
}

ExecutionEngine::ExecutionEngine(const EngineConfig &config, TraceSink *sink,
                                 SchedulingPolicy *policy)
    : config_(config), sink_(sink),
      valloc_(volatile_base, volatile_capacity),
      palloc_(persistent_base, persistent_capacity),
      policy_(policy)
{
    PERSIM_REQUIRE(policy != nullptr, "injected policy must not be null");
}

ExecutionEngine::~ExecutionEngine() = default;

void
ExecutionEngine::runSetup(const WorkerFn &fn)
{
    PERSIM_REQUIRE(!ran_, "runSetup must precede run");
    if (store_buffers_.empty()) {
        store_buffers_.resize(1);
        drain_ticks_.resize(1, 0);
    }
    in_setup_ = true;
    ThreadCtx ctx(this, 0);
    try {
        fn(ctx);
        // Setup results must be visible to every worker.
        if (config_.consistency == ConsistencyModel::TSO)
            drainAll(0);
    } catch (...) {
        in_setup_ = false;
        throw;
    }
    in_setup_ = false;
}

void
ExecutionEngine::run(const std::vector<WorkerFn> &workers)
{
    PERSIM_REQUIRE(!ran_, "an ExecutionEngine can only run once");
    ran_ = true;

    if (workers.empty()) {
        if (sink_)
            sink_->onFinish();
        return;
    }

    const auto n = static_cast<ThreadId>(workers.size());
    serial_ = (n == 1);
    errors_.assign(n, nullptr);
    store_buffers_.resize(std::max<std::size_t>(store_buffers_.size(), n));
    drain_ticks_.resize(store_buffers_.size(), 0);
    runnable_.clear();
    for (ThreadId t = 0; t < n; ++t)
        runnable_.push_back(t);

    if (serial_) {
        workerBody(0, workers[0]);
    } else {
        caller_ = std::make_unique<Fiber>();
#if defined(__SANITIZE_THREAD__)
        caller_->tsan_fiber = __tsan_get_current_fiber();
#endif
        for (ThreadId t = 0; t < n; ++t)
            fibers_.push_back(std::make_unique<Fiber>(this, t, &workers[t]));

        const ScheduleDecision d = policy_->pick(runnable_, invalid_thread);
        quantum_left_ = d.quantum;
        switchFiber(*caller_, *fibers_[d.thread]);
        // Every fiber has finished: free their stacks.
        fibers_.clear();
    }

    for (const std::exception_ptr &error : errors_) {
        if (error)
            std::rethrow_exception(error);
    }
    if (sink_)
        sink_->onFinish();
}

void
ExecutionEngine::fiberMain(void *arg)
{
    Fiber &self = *static_cast<Fiber *>(arg);
    ExecutionEngine &engine = *self.engine;
#if defined(__SANITIZE_ADDRESS__)
    const void *from_bottom = nullptr;
    std::size_t from_size = 0;
    __sanitizer_finish_switch_fiber(nullptr, &from_bottom, &from_size);
    // The first fiber to start is entered from run()'s caller.
    if (engine.caller_->stack_bottom == nullptr) {
        engine.caller_->stack_bottom = from_bottom;
        engine.caller_->stack_size = from_size;
    }
#endif
    engine.workerBody(self.tid, *self.fn);
}

void
ExecutionEngine::switchFiber(Fiber &from, Fiber &to, bool from_exits)
{
    if (from.stack && to.stack)
        ++counters_.handoffs;
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(from_exits ? nullptr : &from.fake_stack,
                                   to.stack_bottom, to.stack_size);
#else
    (void)from_exits;
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
    persim_fiber_switch(&from.sp, to.sp);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(from.fake_stack, nullptr, nullptr);
#endif
}

void
ExecutionEngine::workerBody(ThreadId tid, const WorkerFn &fn)
{
    try {
        ThreadCtx ctx(this, tid);
        schedulePoint(tid);
        emit(tid, EventKind::ThreadStart, 0, 0, 0);
        fn(ctx);
        schedulePoint(tid);
        if (config_.consistency == ConsistencyModel::TSO)
            drainAll(tid);
        emit(tid, EventKind::ThreadEnd, 0, 0, 0);
    } catch (const Aborted &) {
    } catch (...) {
        errors_[tid] = std::current_exception();
    }
    // Outside the handlers: the C++ runtime's exception state is per
    // OS thread, shared by every fiber, so no switch may happen while
    // a handler is active.
    finishThread(tid);
}

void
ExecutionEngine::schedulePoint(ThreadId tid)
{
    schedulePointInner(tid);
    // This thread runs the next event: safe to age its store buffer.
    if (config_.consistency == ConsistencyModel::TSO)
        backgroundDrain(tid);
}

void
ExecutionEngine::backgroundDrain(ThreadId tid)
{
    if (store_buffers_[tid].empty()) {
        drain_ticks_[tid] = 0;
        return;
    }
    if (++drain_ticks_[tid] >= drain_interval) {
        drain_ticks_[tid] = 0;
        drainOne(tid);
    }
}

void
ExecutionEngine::schedulePointInner(ThreadId tid)
{
    if (in_setup_ || serial_)
        return;

    for (;;) {
        if (aborting_)
            throw Aborted{};
        if (quantum_left_ > 0) {
            --quantum_left_;
            return;
        }
        const ScheduleDecision d = policy_->pick(runnable_, tid);
        quantum_left_ = d.quantum;
        // Loop: either this thread keeps running (and now has
        // quantum) or it resumes here when it is picked again.
        if (d.thread != tid)
            switchFiber(*fibers_[tid], *fibers_[d.thread]);
    }
}

void
ExecutionEngine::finishThread(ThreadId tid)
{
    if (serial_)
        return;

    runnable_.erase(std::remove(runnable_.begin(), runnable_.end(), tid),
                    runnable_.end());
    // A worker error aborts the run: every unfinished fiber is resumed
    // in turn and unwinds from its schedule point.
    if (errors_[tid])
        aborting_ = true;
    Fiber *next = caller_.get();
    if (!runnable_.empty()) {
        if (aborting_) {
            next = fibers_[runnable_.front()].get();
        } else {
            const ScheduleDecision d =
                policy_->pick(runnable_, invalid_thread);
            quantum_left_ = d.quantum;
            next = fibers_[d.thread].get();
        }
    }
    switchFiber(*fibers_[tid], *next, /*from_exits=*/true);
}

void
ExecutionEngine::emit(ThreadId tid, EventKind kind, Addr addr,
                      unsigned size, std::uint64_t value,
                      std::uint16_t marker)
{
    if (config_.max_events > 0 && next_seq_ >= config_.max_events) {
        if (!(in_setup_ || serial_))
            aborting_ = true;
        PERSIM_FATAL("execution exceeded max_events="
                     << config_.max_events
                     << " (possible livelock in the workload)");
    }

    TraceEvent event;
    event.seq = next_seq_++;
    event.addr = addr;
    event.value = value;
    event.thread = tid;
    event.kind = kind;
    event.size = static_cast<std::uint8_t>(size);
    event.marker = marker;
    if (sink_)
        sink_->onEvent(event);
}

std::uint64_t
ExecutionEngine::debugLoad(Addr addr, unsigned size) const
{
    return image_.load(addr, size);
}

void
ExecutionEngine::debugReadBytes(void *dst, Addr src, std::size_t n) const
{
    image_.readBytes(dst, src, n);
}

void
ExecutionEngine::drainOne(ThreadId tid)
{
    auto &buffer = store_buffers_[tid];
    PERSIM_ASSERT(!buffer.empty(), "drain of an empty store buffer");
    const BufferedStore entry = buffer.front();
    buffer.pop_front();
    ++counters_.store_buffer_drains;
    image_.store(entry.addr, entry.size, entry.value);
    emit(tid, EventKind::Store, entry.addr, entry.size, entry.value);
}

void
ExecutionEngine::drainAll(ThreadId tid)
{
    auto &buffer = store_buffers_[tid];
    while (!buffer.empty())
        drainOne(tid);
}

void
ExecutionEngine::drainLine(ThreadId tid, Addr addr)
{
    const std::uint64_t line = addr / cache_line_bytes;
    auto &buffer = store_buffers_[tid];
    // Find the newest buffered store of the line; everything up to it
    // must drain first (the buffer is FIFO), which is always legal —
    // the background drain may retire those stores at any time.
    std::size_t keep = 0;
    for (std::size_t i = 0; i < buffer.size(); ++i) {
        const BufferedStore &entry = buffer[i];
        if (entry.addr / cache_line_bytes == line ||
            (entry.addr + entry.size - 1) / cache_line_bytes == line)
            keep = i + 1;
    }
    for (std::size_t i = 0; i < keep; ++i)
        drainOne(tid);
}

std::uint64_t
ThreadCtx::load(Addr addr, unsigned size)
{
    engine_->schedulePoint(tid_);
    if (engine_->config_.consistency == ConsistencyModel::TSO) {
        auto &buffer = engine_->store_buffers_[tid_];
        // Store-to-load forwarding: the newest buffered store fully
        // covering the load supplies the value. A partial overlap
        // (which real pipelines stall on) drains the buffer instead.
        for (auto it = buffer.rbegin(); it != buffer.rend(); ++it) {
            if (it->addr <= addr && addr + size <= it->addr + it->size) {
                const unsigned shift =
                    static_cast<unsigned>(8 * (addr - it->addr));
                std::uint64_t value = it->value >> shift;
                if (size < 8)
                    value &= (1ULL << (8 * size)) - 1;
                engine_->emit(tid_, EventKind::Load, addr, size, value);
                return value;
            }
            if (it->addr < addr + size && addr < it->addr + it->size) {
                engine_->drainAll(tid_);
                break;
            }
        }
    }
    const std::uint64_t value = engine_->image_.load(addr, size);
    engine_->emit(tid_, EventKind::Load, addr, size, value);
    return value;
}

void
ThreadCtx::store(Addr addr, std::uint64_t value, unsigned size)
{
    engine_->schedulePoint(tid_);
    if (engine_->config_.consistency == ConsistencyModel::TSO) {
        auto &buffer = engine_->store_buffers_[tid_];
        buffer.push_back(ExecutionEngine::BufferedStore{
            addr, size, value});
        while (buffer.size() > engine_->config_.store_buffer_depth)
            engine_->drainOne(tid_);
        return;
    }
    engine_->image_.store(addr, size, value);
    engine_->emit(tid_, EventKind::Store, addr, size, value);
}

std::uint64_t
ThreadCtx::rmwExchange(Addr addr, std::uint64_t value, unsigned size)
{
    engine_->schedulePoint(tid_);
    if (engine_->config_.consistency == ConsistencyModel::TSO)
        engine_->drainAll(tid_);
    const std::uint64_t old = engine_->image_.load(addr, size);
    engine_->image_.store(addr, size, value);
    engine_->emit(tid_, EventKind::Rmw, addr, size, value);
    return old;
}

std::uint64_t
ThreadCtx::rmwCas(Addr addr, std::uint64_t expected, std::uint64_t desired,
                  unsigned size)
{
    engine_->schedulePoint(tid_);
    if (engine_->config_.consistency == ConsistencyModel::TSO)
        engine_->drainAll(tid_);
    const std::uint64_t old = engine_->image_.load(addr, size);
    if (old == expected) {
        engine_->image_.store(addr, size, desired);
        engine_->emit(tid_, EventKind::Rmw, addr, size, desired);
    } else {
        // A failed CAS performs no write; trace it as a load.
        engine_->emit(tid_, EventKind::Load, addr, size, old);
    }
    return old;
}

std::uint64_t
ThreadCtx::rmwFetchAdd(Addr addr, std::uint64_t delta, unsigned size)
{
    engine_->schedulePoint(tid_);
    if (engine_->config_.consistency == ConsistencyModel::TSO)
        engine_->drainAll(tid_);
    const std::uint64_t old = engine_->image_.load(addr, size);
    const std::uint64_t updated = old + delta;
    engine_->image_.store(addr, size, updated);
    engine_->emit(tid_, EventKind::Rmw, addr, size, updated);
    return old;
}

void
ThreadCtx::copyIn(Addr dst, const void *src, std::size_t n)
{
    const auto *bytes = static_cast<const std::uint8_t *>(src);
    while (n > 0) {
        const std::size_t room = max_access_size - (dst % max_access_size);
        const std::size_t chunk = std::min(n, room);
        std::uint64_t value = 0;
        std::memcpy(&value, bytes, chunk);
        store(dst, value, static_cast<unsigned>(chunk));
        dst += chunk;
        bytes += chunk;
        n -= chunk;
    }
}

void
ThreadCtx::copyOut(void *dst, Addr src, std::size_t n)
{
    auto *bytes = static_cast<std::uint8_t *>(dst);
    while (n > 0) {
        const std::size_t room = max_access_size - (src % max_access_size);
        const std::size_t chunk = std::min(n, room);
        const std::uint64_t value =
            load(src, static_cast<unsigned>(chunk));
        std::memcpy(bytes, &value, chunk);
        src += chunk;
        bytes += chunk;
        n -= chunk;
    }
}

void
ThreadCtx::copySim(Addr dst, Addr src, std::size_t n)
{
    while (n > 0) {
        const std::size_t src_room =
            max_access_size - (src % max_access_size);
        const std::size_t dst_room =
            max_access_size - (dst % max_access_size);
        const std::size_t chunk = std::min({n, src_room, dst_room});
        const std::uint64_t value =
            load(src, static_cast<unsigned>(chunk));
        store(dst, value, static_cast<unsigned>(chunk));
        src += chunk;
        dst += chunk;
        n -= chunk;
    }
}

void
ThreadCtx::persistBarrier()
{
    engine_->schedulePoint(tid_);
    engine_->emit(tid_, EventKind::PersistBarrier, 0, 0, 0);
}

void
ThreadCtx::newStrand()
{
    engine_->schedulePoint(tid_);
    engine_->emit(tid_, EventKind::NewStrand, 0, 0, 0);
}

void
ThreadCtx::persistSync()
{
    engine_->schedulePoint(tid_);
    engine_->emit(tid_, EventKind::PersistSync, 0, 0, 0);
}

void
ThreadCtx::fence()
{
    engine_->schedulePoint(tid_);
    if (engine_->config_.consistency == ConsistencyModel::TSO)
        engine_->drainAll(tid_);
    engine_->emit(tid_, EventKind::Fence, 0, 0, 0);
}

void
ThreadCtx::clflush(Addr addr)
{
    engine_->schedulePoint(tid_);
    // clflush is ordered against all older stores: they must be
    // globally visible before the flush takes effect.
    if (engine_->config_.consistency == ConsistencyModel::TSO)
        engine_->drainAll(tid_);
    engine_->emit(tid_, EventKind::CacheFlush, addr, 0, 0);
}

void
ThreadCtx::clflushopt(Addr addr)
{
    engine_->schedulePoint(tid_);
    // clflushopt/clwb are ordered only against older stores to the
    // flushed line: drain the FIFO prefix covering those and nothing
    // more, so the flush can overtake older stores to other lines.
    if (engine_->config_.consistency == ConsistencyModel::TSO)
        engine_->drainLine(tid_, addr);
    engine_->emit(tid_, EventKind::CacheFlushOpt, addr, 0, 0);
}

void
ThreadCtx::clwb(Addr addr)
{
    engine_->schedulePoint(tid_);
    if (engine_->config_.consistency == ConsistencyModel::TSO)
        engine_->drainLine(tid_, addr);
    engine_->emit(tid_, EventKind::CacheWriteBack, addr, 0, 0);
}

void
ThreadCtx::sfence()
{
    engine_->schedulePoint(tid_);
    if (engine_->config_.consistency == ConsistencyModel::TSO)
        engine_->drainAll(tid_);
    engine_->emit(tid_, EventKind::StoreFence, 0, 0, 0);
}

void
ThreadCtx::mfence()
{
    engine_->schedulePoint(tid_);
    if (engine_->config_.consistency == ConsistencyModel::TSO)
        engine_->drainAll(tid_);
    engine_->emit(tid_, EventKind::FullFence, 0, 0, 0);
}

void
ThreadCtx::marker(MarkerCode code, std::uint64_t arg)
{
    engine_->schedulePoint(tid_);
    engine_->emit(tid_, EventKind::Marker, 0, 0, arg,
                  static_cast<std::uint16_t>(code));
}

Addr
ThreadCtx::pmalloc(std::uint64_t size, std::uint64_t align)
{
    engine_->schedulePoint(tid_);
    const Addr addr = engine_->palloc_.allocate(size, align);
    engine_->emit(tid_, EventKind::PMalloc, addr, 0, size);
    return addr;
}

void
ThreadCtx::pfree(Addr addr)
{
    engine_->schedulePoint(tid_);
    engine_->palloc_.free(addr);
    engine_->emit(tid_, EventKind::PFree, addr, 0, 0);
}

Addr
ThreadCtx::vmalloc(std::uint64_t size, std::uint64_t align)
{
    engine_->schedulePoint(tid_);
    return engine_->valloc_.allocate(size, align);
}

void
ThreadCtx::vfree(Addr addr)
{
    engine_->schedulePoint(tid_);
    engine_->valloc_.free(addr);
}

} // namespace persim
