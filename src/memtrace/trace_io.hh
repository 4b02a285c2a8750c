/**
 * @file
 * Binary trace file format.
 *
 * Layout (little-endian):
 *   - 8-byte magic "PSIMTRC1"
 *   - u32 version (currently 1)
 *   - u32 thread count
 *   - u64 event count
 *   - event count packed records of 32 bytes each
 *     (seq u64, addr u64, value u64, thread u32, kind u8, size u8,
 *      marker u16)
 *
 * Traces are self-contained: persistent vs. volatile address space
 * membership is determined by the fixed region layout in event.hh,
 * and allocations appear as PMalloc/PFree events.
 */

#ifndef PERSIM_MEMTRACE_TRACE_IO_HH
#define PERSIM_MEMTRACE_TRACE_IO_HH

#include <cstdio>
#include <memory>
#include <span>
#include <string>

#include "memtrace/sink.hh"

namespace persim {

/** Streaming trace writer; also usable directly as a TraceSink. */
class TraceFileWriter : public TraceSink
{
  public:
    /** Open @p path for writing; fatals if the file cannot be opened. */
    explicit TraceFileWriter(const std::string &path);

    /**
     * Best-effort finish: never throws. Call onFinish() explicitly to
     * get short-write errors (e.g. full disk) reported.
     */
    ~TraceFileWriter() override;

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    void onEvent(const TraceEvent &event) override;
    void onBatch(const TraceEvent *events, std::size_t count) override;

    /** Patch header counts and close the file. Idempotent. */
    void onFinish() override;

    std::uint64_t eventsWritten() const { return event_count_; }

  private:
    void writeHeader();

    /** Write the packed-record buffer out and empty it. */
    void flushRecords();

    std::FILE *file_ = nullptr;
    std::string path_;
    std::uint64_t event_count_ = 0;
    ThreadId thread_count_ = 0;
    bool finished_ = false;

    /** Records are packed here and written in batches. */
    std::unique_ptr<unsigned char[]> buffer_;
    std::size_t buffered_ = 0; //!< Records currently in buffer_.
};

/**
 * Reads a trace file, streaming events into a sink. Works on pipes
 * and regular files alike; on regular files the open hints the kernel
 * for sequential readahead (posix_fadvise) and records are decoded
 * from large bulk reads. To compile on-disk traces in parallel
 * prefer MmapTraceReader, which hands out zero-copy views.
 */
class TraceFileReader
{
  public:
    /**
     * Open @p path; fatals on a missing or malformed file, including
     * a header event count inconsistent with the actual file size.
     * Records carrying an out-of-range event-kind byte are rejected
     * by readNext/readAll.
     */
    explicit TraceFileReader(const std::string &path);
    ~TraceFileReader();

    TraceFileReader(const TraceFileReader &) = delete;
    TraceFileReader &operator=(const TraceFileReader &) = delete;

    std::uint64_t eventCount() const { return event_count_; }
    ThreadId threadCount() const { return thread_count_; }

    /** Stream every event into @p sink and call its onFinish. */
    void readAll(TraceSink &sink);

    /** Read the next event; returns false at end of trace. */
    bool readNext(TraceEvent &event);

    /**
     * Read up to @p max events into @p out with one bulk read;
     * returns how many were produced (0 at end of trace). Fatals on
     * truncation or corrupt records, like readNext.
     */
    std::size_t readBatch(TraceEvent *out, std::size_t max);

  private:
    std::FILE *file_ = nullptr;
    std::string path_; //!< For byte-offset error reporting.
    std::uint64_t event_count_ = 0;
    std::uint64_t events_read_ = 0;
    ThreadId thread_count_ = 0;

    /** Raw-record staging for readBatch (lazily sized). */
    std::unique_ptr<unsigned char[]> buffer_;
    std::size_t buffer_records_ = 0;
};

/**
 * Zero-copy trace reader: maps the whole .trc file and hands out
 * `std::span<const TraceEvent>` views directly over the mapping, so
 * parallel segment workers never copy or re-decode records.
 *
 * Validity rests on the on-disk record layout matching TraceEvent
 * byte for byte on a little-endian host: the 32-byte packed record
 * (seq u64, addr u64, value u64, thread u32, kind u8, size u8,
 * marker u16, little-endian) is exactly TraceEvent's field layout,
 * pinned by static_asserts in trace_io.cc, and the 24-byte header
 * keeps the record array 8-byte aligned within the page-aligned
 * mapping. Opening fatals on a big-endian host (the streaming reader
 * still works there) and validates the header *and every record's
 * event-kind byte* once up front, so downstream consumers can trust
 * the views without per-event checks.
 */
class MmapTraceReader
{
  public:
    /** Map @p path; fatals on malformed files like TraceFileReader. */
    explicit MmapTraceReader(const std::string &path);
    ~MmapTraceReader();

    MmapTraceReader(const MmapTraceReader &) = delete;
    MmapTraceReader &operator=(const MmapTraceReader &) = delete;

    std::uint64_t eventCount() const { return event_count_; }
    ThreadId threadCount() const { return thread_count_; }

    /** The whole trace as a zero-copy view. */
    std::span<const TraceEvent> events() const
    {
        return {events_, static_cast<std::size_t>(event_count_)};
    }

    /** Bounds-checked sub-view [offset, offset + count). */
    std::span<const TraceEvent> segment(std::uint64_t offset,
                                        std::uint64_t count) const;

    /** Stream every event into @p sink and call its onFinish. */
    void readAll(TraceSink &sink) const;

  private:
    const TraceEvent *events_ = nullptr;
    std::uint64_t event_count_ = 0;
    ThreadId thread_count_ = 0;
    void *map_ = nullptr;
    std::size_t map_size_ = 0;
};

/** Convenience: write a whole in-memory trace to @p path. */
void writeTraceFile(const std::string &path, const InMemoryTrace &trace);

/** Convenience: load a whole trace file into memory. */
InMemoryTrace readTraceFile(const std::string &path);

} // namespace persim

#endif // PERSIM_MEMTRACE_TRACE_IO_HH
