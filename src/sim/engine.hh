/**
 * @file
 * The persim execution engine.
 *
 * ExecutionEngine runs a set of workload functions as simulated
 * threads over a shared simulated memory, serializing one traced
 * memory event at a time ("analysis atomicity", as the paper's
 * PIN-based tracer achieves with its bank of address locks). Because
 * at most one event executes at any instant and each thread's events
 * occur in program order, the emitted global order is a legal
 * sequentially consistent execution by construction.
 *
 * Simulated threads are fibers: each runs on its own mmap'd stack,
 * and all of them share the OS thread that called run(). A handoff
 * is a direct user-level switch to the fiber the SchedulingPolicy
 * picked — no lock, no kernel wake. A one-worker run stays on the
 * caller's stack and never switches. See DESIGN.md Section 18.
 *
 * Workloads are ordinary C++ functions taking a ThreadCtx and using
 * its traced memory API: load/store/rmw, bulk copies (split into
 * <= 8-byte word accesses), persist and strand barriers, persistent
 * and volatile allocation, and operation markers. Every event is
 * pushed to a TraceSink; persistency analyses are sinks, so traces
 * need not be materialized.
 *
 * Interleaving is controlled by a SchedulingPolicy and is exactly
 * reproducible from the engine seed.
 */

#ifndef PERSIM_SIM_ENGINE_HH
#define PERSIM_SIM_ENGINE_HH

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "memtrace/event.hh"
#include "memtrace/sink.hh"
#include "sim/address_allocator.hh"
#include "sim/memory_image.hh"
#include "sim/scheduler.hh"

namespace persim {

class ExecutionEngine;

/**
 * Memory consistency model the engine executes under.
 *
 * SC serializes every access in issue order (the default; all
 * persistency models in the paper are defined over SC). TSO gives
 * each thread a FIFO store buffer: stores become visible to other
 * threads (and enter the trace) when they drain — on buffer overflow,
 * before any RMW, at a fence(), or at thread exit — while the issuing
 * thread forwards from its own buffer. Persist and strand barriers
 * deliberately do NOT drain: persistency and consistency barriers are
 * decoupled, which is exactly the hazard of paper Section 4.3 /
 * Figure 1 (a store may become visible, and thus persist, on the far
 * side of its persist barrier).
 */
enum class ConsistencyModel : std::uint8_t {
    SC,
    TSO,
};

/** Engine construction parameters. */
struct EngineConfig
{
    /** Seed for the scheduler (and anything else that needs RNG). */
    std::uint64_t seed = 1;

    /** Interleaving policy. */
    SchedulerKind scheduler = SchedulerKind::Random;

    /**
     * Events per timeslice: the fixed quantum for round-robin, the
     * mean of the geometric quantum for random scheduling.
     */
    std::uint64_t quantum = 8;

    /** Abort the execution after this many events (0 = unlimited). */
    std::uint64_t max_events = 0;

    /** Memory consistency model to execute under. */
    ConsistencyModel consistency = ConsistencyModel::SC;

    /** TSO store buffer entries per thread (drain-on-overflow). */
    std::uint32_t store_buffer_depth = 8;
};

/** Scheduler activity of one ExecutionEngine run. */
struct SimCounters
{
    /** Control transfers from one simulated thread to another. */
    std::uint64_t handoffs = 0;

    /** TSO buffered stores drained into memory (and the trace). */
    std::uint64_t store_buffer_drains = 0;
};

/**
 * Per-thread handle to the engine: the traced memory API.
 *
 * A ThreadCtx is only valid on the simulated thread it was created
 * for; all of its operations are scheduling points.
 */
class ThreadCtx
{
  public:
    /** Simulated thread id (dense from 0). */
    ThreadId id() const { return tid_; }

    /** The engine this context belongs to. */
    ExecutionEngine &engine() { return *engine_; }

    /** @name Traced accesses (at most 8 bytes each) */
    ///@{
    /** Read @p size bytes at @p addr. */
    std::uint64_t load(Addr addr, unsigned size = 8);

    /** Write the low @p size bytes of @p value at @p addr. */
    void store(Addr addr, std::uint64_t value, unsigned size = 8);

    /** Atomically write @p value and return the previous value. */
    std::uint64_t rmwExchange(Addr addr, std::uint64_t value,
                              unsigned size = 8);

    /**
     * Atomic compare-and-swap; writes @p desired iff the current
     * value equals @p expected.
     * @return The previous value (== expected on success).
     */
    std::uint64_t rmwCas(Addr addr, std::uint64_t expected,
                         std::uint64_t desired, unsigned size = 8);

    /** Atomically add @p delta and return the previous value. */
    std::uint64_t rmwFetchAdd(Addr addr, std::uint64_t delta,
                              unsigned size = 8);
    ///@}

    /** @name Bulk traced copies (split into word accesses) */
    ///@{
    /** Copy @p n host bytes into simulated memory as traced stores. */
    void copyIn(Addr dst, const void *src, std::size_t n);

    /** Copy @p n simulated bytes to host memory as traced loads. */
    void copyOut(void *dst, Addr src, std::size_t n);

    /** Traced load+store copy within simulated memory. */
    void copySim(Addr dst, Addr src, std::size_t n);
    ///@}

    /** @name Persistency annotations */
    ///@{
    /** Epoch boundary: orders persists before against persists after. */
    void persistBarrier();

    /** Begin a new persist strand (strand persistency). */
    void newStrand();

    /** Drain: synchronize instruction execution with persistent state. */
    void persistSync();
    ///@}

    /**
     * Consistency fence: under TSO, drain this thread's store buffer
     * (making all its stores visible) and mark the point in the
     * trace. A no-op event under SC. Carries no persistency
     * semantics — sfence()/mfence() are the persistency fences.
     */
    void fence();

    /** @name Px86 flush / fence instructions
     *
     * The x86 persistent-memory primitives, traced as first-class
     * events for the Px86 timing model (src/persistency/). Under TSO
     * execution the drain behavior mirrors the ISA's ordering rules:
     * clflush, sfence, and mfence drain the whole store buffer (they
     * are ordered against all older stores), while clflushopt/clwb
     * drain only up to the newest buffered store of the flushed cache
     * line — so a weak flush can appear in the trace *before* an
     * older store to a different line, exposing the real clflushopt
     * reordering to the analyses. Under SC the event is emitted
     * directly (stores are already globally visible).
     */
    ///@{
    /** Flush @p addr's cache line; strongly ordered (clflush). */
    void clflush(Addr addr);

    /** Flush @p addr's cache line; weakly ordered (clflushopt). */
    void clflushopt(Addr addr);

    /** Write back @p addr's cache line without evicting (clwb). */
    void clwb(Addr addr);

    /** Store fence: orders weak flushes with stores (sfence). */
    void sfence();

    /** Full fence: same persistency semantics as sfence (mfence). */
    void mfence();
    ///@}

    /** Emit an operation marker (op begin/end, persist roles, ...). */
    void marker(MarkerCode code, std::uint64_t arg = 0);

    /** @name Allocation */
    ///@{
    /** Allocate persistent memory; appears in the trace as PMalloc. */
    Addr pmalloc(std::uint64_t size, std::uint64_t align = 8);

    /** Free persistent memory; appears in the trace as PFree. */
    void pfree(Addr addr);

    /** Allocate volatile memory (not recorded as a trace event). */
    Addr vmalloc(std::uint64_t size, std::uint64_t align = 8);

    /** Free volatile memory. */
    void vfree(Addr addr);
    ///@}

  private:
    friend class ExecutionEngine;

    ThreadCtx(ExecutionEngine *engine, ThreadId tid)
        : engine_(engine), tid_(tid)
    {}

    ExecutionEngine *engine_;
    ThreadId tid_;
};

/** Runs simulated multithreaded workloads and emits their trace. */
class ExecutionEngine
{
  public:
    using WorkerFn = std::function<void(ThreadCtx &)>;

    /**
     * @param config Engine parameters.
     * @param sink Destination for trace events (may be nullptr to
     *             discard; analyses are normally attached here).
     *             Not owned.
     */
    explicit ExecutionEngine(const EngineConfig &config,
                             TraceSink *sink = nullptr);

    /**
     * As above, but interleave with a caller-supplied policy instead
     * of constructing one from the config (the schedule-exploration
     * hook: src/explore/ injects a ReplayPolicy here and reads its
     * recorded decisions back after the run).
     * @param policy Not owned; must outlive the engine.
     */
    ExecutionEngine(const EngineConfig &config, TraceSink *sink,
                    SchedulingPolicy *policy);

    ~ExecutionEngine();

    ExecutionEngine(const ExecutionEngine &) = delete;
    ExecutionEngine &operator=(const ExecutionEngine &) = delete;

    /**
     * Run @p fn inline as thread 0, before the workers. Used for
     * workload setup (allocating and initializing shared structures);
     * its events appear in the trace as thread 0.
     */
    void runSetup(const WorkerFn &fn);

    /**
     * Run the workers to completion, one simulated thread each
     * (thread ids 0..N-1), then finish the sink. May be called once.
     * Rethrows the first worker exception, if any.
     */
    void run(const std::vector<WorkerFn> &workers);

    /** Total events emitted so far. */
    std::uint64_t eventCount() const { return next_seq_; }

    /** Scheduler counters accumulated so far. */
    SimCounters counters() const { return counters_; }

    /** Direct (untraced) read of simulated memory, for inspection. */
    std::uint64_t debugLoad(Addr addr, unsigned size = 8) const;

    /** Direct (untraced) bulk read of simulated memory. */
    void debugReadBytes(void *dst, Addr src, std::size_t n) const;

    /** The simulated memory image. */
    const MemoryImage &memory() const { return image_; }

  private:
    friend class ThreadCtx;

    /** Capacity of the volatile address region. */
    static constexpr std::uint64_t volatile_capacity = 1ULL << 32;

    /** Capacity of the persistent address region. */
    static constexpr std::uint64_t persistent_capacity = 1ULL << 32;
    static_assert(volatile_base + volatile_capacity <= persistent_base,
                  "volatile region overlaps the persistent region");

    /**
     * TSO background drain interval: hardware store buffers drain
     * *eventually*, not only at synchronizing instructions (a spinning
     * reader must eventually observe a peer's buffered store, or MCS
     * handoff would deadlock). The oldest buffered store drains after
     * the owning thread executes this many events with a non-empty
     * buffer.
     */
    static constexpr std::uint32_t drain_interval = 16;

    /** Exception used to unwind workers when the engine aborts. */
    struct Aborted {};

    /** One simulated thread's execution context (engine.cc). */
    struct Fiber;

    /**
     * Acquire the right to execute one event on thread @p tid,
     * switching to other fibers until the scheduler grants it. Under
     * TSO, also ticks the thread's background store-buffer drain.
     */
    void schedulePoint(ThreadId tid);

    /** Scheduling part of schedulePoint. */
    void schedulePointInner(ThreadId tid);

    /** Suspend @p from and resume @p to; returns when @p from is
        resumed. @p from_exits: @p from is finished and never
        resumes. */
    void switchFiber(Fiber &from, Fiber &to, bool from_exits = false);

    /** Entry point of a fresh fiber (argument: its Fiber). */
    static void fiberMain(void *arg);

    /** Age the thread's store buffer; drain the oldest entry when the
        drain interval elapses. */
    void backgroundDrain(ThreadId tid);

    /**
     * Retire thread @p tid after it finished or unwound, and hand
     * control to the next fiber (or back to run()). Never returns for
     * a fiber. Call it only outside every catch handler: the runtime's
     * caught-exception stack is shared by all fibers (DESIGN.md
     * Section 18.4).
     */
    void finishThread(ThreadId tid);

    /** Build and emit an event (caller holds the token). */
    void emit(ThreadId tid, EventKind kind, Addr addr, unsigned size,
              std::uint64_t value, std::uint16_t marker = 0);

    /** A TSO store waiting in a thread's store buffer. */
    struct BufferedStore
    {
        Addr addr = 0;
        std::uint32_t size = 0;
        std::uint64_t value = 0;
    };

    /** Drain the oldest buffered store of @p tid (token held). */
    void drainOne(ThreadId tid);

    /** Drain every buffered store of @p tid (token held). */
    void drainAll(ThreadId tid);

    /** Drain @p tid's buffer up to and including the newest store
        that overlaps @p addr's cache line (FIFO order; a no-op when
        no buffered store touches the line). */
    void drainLine(ThreadId tid, Addr addr);

    /** Body of one simulated thread. */
    void workerBody(ThreadId tid, const WorkerFn &fn);

    EngineConfig config_;
    TraceSink *sink_;
    MemoryImage image_;
    AddressAllocator valloc_;
    AddressAllocator palloc_;
    std::unique_ptr<SchedulingPolicy> owned_policy_;
    SchedulingPolicy *policy_;

    SeqNum next_seq_ = 0;
    bool ran_ = false;
    bool in_setup_ = false;
    bool serial_ = true;

    std::uint64_t quantum_left_ = 0;
    bool aborting_ = false;
    SimCounters counters_;
    std::vector<ThreadId> runnable_;
    std::vector<std::exception_ptr> errors_;

    /** One fiber per worker, indexed by thread id (multi-worker runs
        only), and the context of run()'s caller. */
    std::vector<std::unique_ptr<Fiber>> fibers_;
    std::unique_ptr<Fiber> caller_;

    /** Per-thread TSO state, sized by runSetup() and run(). */
    std::vector<std::deque<BufferedStore>> store_buffers_;
    std::vector<std::uint32_t> drain_ticks_;
};

} // namespace persim

#endif // PERSIM_SIM_ENGINE_HH
