/**
 * @file
 * Trace consumers.
 *
 * The execution engine pushes every event to a TraceSink as it
 * happens; analyses are sinks, so large experiments can run without
 * materializing the trace in memory. FanoutSink broadcasts one
 * execution to several analyses at once.
 */

#ifndef PERSIM_MEMTRACE_SINK_HH
#define PERSIM_MEMTRACE_SINK_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "memtrace/compiled_trace.hh"
#include "memtrace/event.hh"

namespace persim {

/** Abstract consumer of a stream of trace events. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Called once per event, in global (SC) order. */
    virtual void onEvent(const TraceEvent &event) = 0;

    /**
     * Deliver @p count consecutive events at once. Equivalent to
     * calling onEvent for each, which is exactly what the default
     * does; hot sinks (the timing engine) override it so replay pays
     * one virtual dispatch per batch instead of per event. Producers
     * with events in hand (InMemoryTrace::replay, file readers,
     * sweeps) should prefer it.
     */
    virtual void onBatch(const TraceEvent *events, std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i)
            onEvent(events[i]);
    }

    /** Called after the last event of the execution. */
    virtual void onFinish() {}
};

/** Broadcasts each event to a list of downstream sinks, in order. */
class FanoutSink : public TraceSink
{
  public:
    /** Append a downstream sink; not owned. */
    void addSink(TraceSink *sink);

    void onEvent(const TraceEvent &event) override;
    void onBatch(const TraceEvent *events, std::size_t count) override;
    void onFinish() override;

  private:
    std::vector<TraceSink *> sinks_;
};

/**
 * Materializes the event stream into one contiguous buffer.
 *
 * The buffer is raw storage grown geometrically with std::realloc,
 * not a std::vector. A vector regrows by copying every event into a
 * doubled block whose fresh pages the kernel must fault in and zero
 * first; realloc lets glibc move a large (mmap'd) block with mremap,
 * remapping its pages instead of copying them. Small traces
 * (explorer executions, tests) stay ordinary malloc-heap blocks.
 * Copies are deep; a moved-from trace is empty and usable.
 *
 * A trace also keeps at most one compiled program of its events
 * (DESIGN.md Section 17.6), so the models a trace is analyzed under
 * share one compile. The program is dropped when events are appended
 * or another trace is copied in, moves with the trace, and dies with
 * it; a copy starts without one.
 */
class InMemoryTrace : public TraceSink
{
  public:
    InMemoryTrace() = default;
    InMemoryTrace(const InMemoryTrace &other);
    InMemoryTrace(InMemoryTrace &&other) noexcept;
    InMemoryTrace &operator=(const InMemoryTrace &other);
    InMemoryTrace &operator=(InMemoryTrace &&other) noexcept;
    ~InMemoryTrace() override;

    void onEvent(const TraceEvent &event) override;
    void onBatch(const TraceEvent *events, std::size_t count) override;

    /** Make room for at least @p count events without regrowing. */
    void reserve(std::size_t count);

    std::span<const TraceEvent> events() const { return {data_, size_}; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Max thread id + 1, counted in 64 bits so that the last id
        (0xffffffff) counts 2^32 rather than wrapping to 0. */
    std::uint64_t threadCount() const { return thread_count_; }

    /** Replay all stored events into @p sink, then finish it. */
    void replay(TraceSink &sink) const;

    /** The compiled program kept with this trace, or null. */
    std::shared_ptr<const CompiledTrace> program() const;

    /**
     * The kept program if @p fits accepts it; otherwise the result of
     * @p compile, which replaces it. Both run under the trace's lock,
     * so concurrent callers that need one program compile it once.
     */
    std::shared_ptr<const CompiledTrace>
    program(const std::function<bool(const CompiledTrace &)> &fits,
            const std::function<CompiledTrace()> &compile) const;

  private:
    /** Reallocate to at least @p count events (geometric growth). */
    void grow(std::size_t count);

    /** Forget the kept program: the events it compiled changed. */
    void
    dropProgram()
    {
        if (program_) [[unlikely]]
            program_.reset();
    }

    TraceEvent *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
    std::uint64_t thread_count_ = 0;

    /** Guards program_ between concurrent readers of one trace; each
        trace has its own, copied or moved traces included. */
    mutable std::mutex program_mutex_;
    mutable std::shared_ptr<const CompiledTrace> program_;
};

} // namespace persim

#endif // PERSIM_MEMTRACE_SINK_HH
