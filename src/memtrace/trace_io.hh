/**
 * @file
 * Binary trace file format.
 *
 * Layout (little-endian):
 *   - 8-byte magic "PSIMTRC1"
 *   - u32 version (currently 1)
 *   - u32 thread count (max thread id + 1)
 *   - u64 event count
 *   - event count records of 32 bytes each
 *     (seq u64, addr u64, value u64, thread u32, kind u8, size u8,
 *      marker u16)
 *
 * A record is a TraceEvent's bytes: the writer emits events as they
 * sit in memory and the reader reads them straight back, so the
 * static_asserts in trace_io.cc pinning TraceEvent's layout are the
 * one definition of the on-disk record.
 *
 * Traces are self-contained: persistent vs. volatile address space
 * membership is determined by the fixed region layout in event.hh,
 * and allocations appear as PMalloc/PFree events.
 */

#ifndef PERSIM_MEMTRACE_TRACE_IO_HH
#define PERSIM_MEMTRACE_TRACE_IO_HH

#include <cstdio>
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

    std::FILE *file_ = nullptr;
    std::string path_;
    std::uint64_t event_count_ = 0;
    ThreadId thread_count_ = 0;
    bool finished_ = false;
};

/** Convenience: write a whole in-memory trace to @p path. */
void writeTraceFile(const std::string &path, const InMemoryTrace &trace);

/**
 * Load a whole trace file into memory. @p path must be a regular
 * file. Fatals, naming the file, on a bad header (magic, version, an
 * event count that disagrees with the file size, a thread count that
 * disagrees with the records) and on any record whose event-kind
 * byte is out of range (naming the record and the byte's offset).
 */
InMemoryTrace readTraceFile(const std::string &path);

} // namespace persim

#endif // PERSIM_MEMTRACE_TRACE_IO_HH
