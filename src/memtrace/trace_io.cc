#include "memtrace/trace_io.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/error.hh"

namespace persim {

namespace {

constexpr std::array<char, 8> trace_magic =
    {'P', 'S', 'I', 'M', 'T', 'R', 'C', '1'};
constexpr std::uint32_t trace_version = 1;
constexpr std::size_t header_size = 8 + 4 + 4 + 8;
constexpr std::size_t record_size = 32;

/** Records per read(2) burst (512 KiB). */
constexpr std::size_t read_batch_records = 16384;

/** The file header, exactly as it sits on disk. */
struct TraceHeader
{
    std::array<char, 8> magic;
    std::uint32_t version;
    std::uint32_t thread_count;
    std::uint64_t event_count;
};

/**
 * Records and the header are written and read as raw bytes, so the
 * file format is the in-memory layout pinned here: little-endian, the
 * fields at these offsets, no padding.
 */
static_assert(std::endian::native == std::endian::little,
              "the .trc format is the little-endian TraceEvent layout");
static_assert(std::is_standard_layout_v<TraceEvent> &&
              std::is_trivially_copyable_v<TraceEvent>);
static_assert(sizeof(TraceEvent) == record_size);
static_assert(offsetof(TraceEvent, seq) == 0 &&
              offsetof(TraceEvent, addr) == 8 &&
              offsetof(TraceEvent, value) == 16 &&
              offsetof(TraceEvent, thread) == 24 &&
              offsetof(TraceEvent, kind) == 28 &&
              offsetof(TraceEvent, size) == 29 &&
              offsetof(TraceEvent, marker) == 30);
static_assert(std::is_trivially_copyable_v<TraceHeader> &&
              sizeof(TraceHeader) == header_size &&
              offsetof(TraceHeader, version) == 8 &&
              offsetof(TraceHeader, thread_count) == 12 &&
              offsetof(TraceHeader, event_count) == 16);

/** Closes a file descriptor on scope exit. */
struct FdGuard
{
    int fd;
    ~FdGuard() { ::close(fd); }
};

/**
 * read(2) until @p bytes arrived or the file ended; returns how many
 * bytes were read. Fatals on a read error.
 */
std::size_t
readFully(int fd, void *out, std::size_t bytes, const std::string &path)
{
    auto *dst = static_cast<unsigned char *>(out);
    std::size_t done = 0;
    while (done < bytes) {
        const ssize_t got = ::read(fd, dst + done, bytes - done);
        if (got == 0)
            break;
        if (got < 0) {
            if (errno == EINTR)
                continue;
            PERSIM_FATAL("cannot read trace file: "
                         << path << ": " << std::strerror(errno));
        }
        done += static_cast<std::size_t>(got);
    }
    return done;
}

} // namespace

TraceFileWriter::TraceFileWriter(const std::string &path) : path_(path)
{
    file_ = std::fopen(path.c_str(), "wb");
    PERSIM_REQUIRE(file_ != nullptr,
                   "cannot open trace file for writing: " << path);
    writeHeader();
}

TraceFileWriter::~TraceFileWriter()
{
    // Best-effort: onFinish() throws on a short write (e.g. a full
    // disk), and an exception escaping a destructor is std::terminate.
    // Callers that need the failure must call onFinish() themselves.
    try {
        onFinish();
    } catch (...) {
    }
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

void
TraceFileWriter::writeHeader()
{
    TraceHeader header = {};
    header.magic = trace_magic;
    header.version = trace_version;
    header.thread_count = thread_count_;
    header.event_count = event_count_;
    PERSIM_REQUIRE(std::fseek(file_, 0, SEEK_SET) == 0,
                   "cannot seek in trace file: " << path_);
    PERSIM_REQUIRE(std::fwrite(&header, header_size, 1, file_) == 1,
                   "short write to trace file: " << path_);
}

void
TraceFileWriter::onEvent(const TraceEvent &event)
{
    onBatch(&event, 1);
}

void
TraceFileWriter::onBatch(const TraceEvent *events, std::size_t count)
{
    PERSIM_REQUIRE(file_ != nullptr && !finished_,
                   "write to a finished trace file: " << path_);
    // An empty trace has no storage: never hand fwrite a null buffer.
    if (count == 0)
        return;
    // The header's thread count is 32-bit: refuse the one id (the
    // last) whose count does not fit, before any of its batch lands.
    std::uint64_t threads = thread_count_;
    for (std::size_t i = 0; i < count; ++i)
        threads = std::max(threads, std::uint64_t{events[i].thread} + 1);
    PERSIM_REQUIRE(threads <= std::numeric_limits<ThreadId>::max(),
                   "cannot write trace file " << path_ << ": thread id "
                       << threads - 1
                       << " needs a thread count of " << threads
                       << ", past the header's 32-bit field");
    // stdio's buffer batches the write(2)s.
    PERSIM_REQUIRE(std::fwrite(events, record_size, count, file_) == count,
                   "short write to trace file: " << path_);
    event_count_ += count;
    thread_count_ = static_cast<ThreadId>(threads);
}

void
TraceFileWriter::onFinish()
{
    if (finished_ || file_ == nullptr)
        return;
    finished_ = true;
    writeHeader();
    // Flush before close so a full disk surfaces here, checked,
    // rather than silently at fclose time.
    const bool flushed = std::fflush(file_) == 0;
    const bool closed = std::fclose(file_) == 0;
    file_ = nullptr;
    PERSIM_REQUIRE(flushed && closed,
                   "cannot finish trace file: " << path_);
}

void
writeTraceFile(const std::string &path, const InMemoryTrace &trace)
{
    TraceFileWriter writer(path);
    writer.onBatch(trace.events().data(), trace.size());
    writer.onFinish();
}

InMemoryTrace
readTraceFile(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    PERSIM_REQUIRE(fd >= 0, "cannot open trace file for reading: "
                                << path << ": " << std::strerror(errno));
    const FdGuard guard{fd};
    struct stat st = {};
    PERSIM_REQUIRE(::fstat(fd, &st) == 0 && S_ISREG(st.st_mode),
                   "cannot read trace: not a regular file: " << path);
    const auto file_size = static_cast<std::uint64_t>(st.st_size);

    TraceHeader header;
    const std::size_t got = readFully(fd, &header, header_size, path);
    PERSIM_REQUIRE(got == header_size,
                   "trace file too short: " << path << " ends at byte "
                       << got << " inside the " << header_size
                       << "-byte header");
    PERSIM_REQUIRE(header.magic == trace_magic,
                   "bad trace file magic: " << path);
    PERSIM_REQUIRE(header.version == trace_version,
                   "unsupported trace version " << header.version << ": "
                                                << path);

    // Don't trust the header count: a truncated or corrupt file must
    // be rejected before any record is read.
    const std::uint64_t records = (file_size - header_size) / record_size;
    PERSIM_REQUIRE(
        header.event_count == records &&
            file_size == header_size + records * record_size,
        "trace file size mismatch: header claims "
            << header.event_count << " events but the file holds "
            << file_size << " bytes (" << records << " whole "
            << record_size << "-byte records): " << path);

    InMemoryTrace trace;
    trace.reserve(static_cast<std::size_t>(records));
    std::vector<TraceEvent> burst(static_cast<std::size_t>(
        std::min<std::uint64_t>(records, read_batch_records)));
    for (std::uint64_t done = 0; done < records;) {
        const auto want = static_cast<std::size_t>(
            std::min<std::uint64_t>(burst.size(), records - done));
        const std::size_t bytes =
            readFully(fd, burst.data(), want * record_size, path);
        PERSIM_REQUIRE(bytes == want * record_size,
                       "truncated trace file: " << path
                           << " ends at byte "
                           << header_size + done * record_size + bytes
                           << " inside event record "
                           << done + bytes / record_size);
        for (std::size_t i = 0; i < want; ++i) {
            const auto kind = static_cast<unsigned>(burst[i].kind);
            PERSIM_REQUIRE(
                kind <= kMaxEventKind,
                "corrupt trace record " << done + i << ": event kind byte "
                    << kind << " at file offset "
                    << header_size + (done + i) * record_size +
                        offsetof(TraceEvent, kind)
                    << " is out of range (max "
                    << unsigned{kMaxEventKind} << "): " << path);
        }
        trace.onBatch(burst.data(), want);
        done += want;
    }

    PERSIM_REQUIRE(trace.threadCount() == header.thread_count,
                   "trace header claims " << header.thread_count
                       << " threads but the records' max thread id + 1 is "
                       << trace.threadCount() << ": " << path);
    return trace;
}

} // namespace persim
