#include "memtrace/sink.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>

namespace persim {

void
FanoutSink::addSink(TraceSink *sink)
{
    sinks_.push_back(sink);
}

void
FanoutSink::onEvent(const TraceEvent &event)
{
    for (auto *sink : sinks_)
        sink->onEvent(event);
}

void
FanoutSink::onBatch(const TraceEvent *events, std::size_t count)
{
    for (auto *sink : sinks_)
        sink->onBatch(events, count);
}

void
FanoutSink::onFinish()
{
    for (auto *sink : sinks_)
        sink->onFinish();
}

static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "InMemoryTrace moves events with realloc and memcpy");

namespace {

/** Capacity of a trace's first block: one explorer execution fits. */
constexpr std::size_t min_capacity = 256;

} // namespace

InMemoryTrace::InMemoryTrace(const InMemoryTrace &other)
    : TraceSink(other)
{
    *this = other;
}

InMemoryTrace::InMemoryTrace(InMemoryTrace &&other) noexcept
    : TraceSink(other), data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      capacity_(std::exchange(other.capacity_, 0)),
      thread_count_(std::exchange(other.thread_count_, 0)),
      program_(std::move(other.program_))
{
}

InMemoryTrace &
InMemoryTrace::operator=(const InMemoryTrace &other)
{
    if (this == &other)
        return *this;
    if (capacity_ < other.size_) {
        // Exact size: a copy has no growth history to continue.
        void *fresh = std::malloc(other.size_ * sizeof(TraceEvent));
        if (fresh == nullptr)
            throw std::bad_alloc();
        std::free(data_);
        data_ = static_cast<TraceEvent *>(fresh);
        capacity_ = other.size_;
    }
    if (other.size_ != 0)
        std::memcpy(data_, other.data_, other.size_ * sizeof(TraceEvent));
    size_ = other.size_;
    thread_count_ = other.thread_count_;
    dropProgram();
    return *this;
}

InMemoryTrace &
InMemoryTrace::operator=(InMemoryTrace &&other) noexcept
{
    if (this != &other) {
        std::free(data_);
        data_ = std::exchange(other.data_, nullptr);
        size_ = std::exchange(other.size_, 0);
        capacity_ = std::exchange(other.capacity_, 0);
        thread_count_ = std::exchange(other.thread_count_, 0);
        program_ = std::move(other.program_);
    }
    return *this;
}

InMemoryTrace::~InMemoryTrace()
{
    std::free(data_);
}

void
InMemoryTrace::grow(std::size_t count)
{
    constexpr std::size_t max_count =
        std::numeric_limits<std::size_t>::max() / sizeof(TraceEvent);
    if (count > max_count)
        throw std::bad_alloc();
    std::size_t capacity = std::max(capacity_, min_capacity);
    while (capacity < count)
        capacity = capacity <= max_count / 2 ? capacity * 2 : max_count;
    void *grown = std::realloc(data_, capacity * sizeof(TraceEvent));
    if (grown == nullptr)
        throw std::bad_alloc();
    data_ = static_cast<TraceEvent *>(grown);
    capacity_ = capacity;
}

void
InMemoryTrace::reserve(std::size_t count)
{
    if (count > capacity_)
        grow(count);
}

void
InMemoryTrace::onEvent(const TraceEvent &event)
{
    if (size_ == capacity_) [[unlikely]]
        grow(size_ + 1);
    data_[size_++] = event;
    thread_count_ =
        std::max(thread_count_, std::uint64_t{event.thread} + 1);
    dropProgram();
}

void
InMemoryTrace::onBatch(const TraceEvent *events, std::size_t count)
{
    if (count == 0)
        return;
    if (count > capacity_ - size_)
        grow(size_ + count);
    std::memcpy(data_ + size_, events, count * sizeof(TraceEvent));
    size_ += count;
    for (std::size_t i = 0; i < count; ++i)
        thread_count_ =
            std::max(thread_count_, std::uint64_t{events[i].thread} + 1);
    dropProgram();
}

void
InMemoryTrace::replay(TraceSink &sink) const
{
    sink.onBatch(data_, size_);
    sink.onFinish();
}

std::shared_ptr<const CompiledTrace>
InMemoryTrace::program() const
{
    const std::lock_guard<std::mutex> lock(program_mutex_);
    return program_;
}

std::shared_ptr<const CompiledTrace>
InMemoryTrace::program(
    const std::function<bool(const CompiledTrace &)> &fits,
    const std::function<CompiledTrace()> &compile) const
{
    const std::lock_guard<std::mutex> lock(program_mutex_);
    if (!program_ || !fits(*program_)) {
        // Free the old program before building its replacement.
        program_.reset();
        program_ = std::make_shared<const CompiledTrace>(compile());
    }
    return program_;
}

} // namespace persim
