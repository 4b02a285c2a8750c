/**
 * @file
 * Unit tests for src/memtrace: events, sinks, trace file I/O, stats.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "memtrace/event.hh"
#include "memtrace/sink.hh"
#include "memtrace/trace_io.hh"
#include "memtrace/trace_stats.hh"
#include "tests/persistency/golden_support.hh"
#include "tests/support/trace_builder.hh"

namespace persim {
namespace {

using test::paddr;
using test::vaddr;

std::string
tempPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "persim_" + tag + ".trc";
}

std::string
goldenDir()
{
    const char *dir = std::getenv("PERSIM_GOLDEN_DIR");
    return dir != nullptr ? dir : "tests/persistency/golden";
}

/** What the error said, or "" if @p fn did not throw. */
template <typename Fn>
std::string
errorOf(Fn &&fn)
{
    try {
        fn();
    } catch (const FatalError &error) {
        return error.what();
    }
    return {};
}

std::vector<unsigned char>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<unsigned char>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path,
           const std::vector<unsigned char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** A two-event trace file (threads 0 and 3) for corruption tests. */
std::string
writeSmallTrace(const char *tag)
{
    test::TraceBuilder builder;
    builder.store(0, paddr(0), 1).store(3, paddr(1), 2);
    const std::string path = tempPath(tag);
    writeTraceFile(path, builder.trace());
    return path;
}

TEST(Event, AddressSpaceClassification)
{
    EXPECT_TRUE(isPersistentAddr(persistent_base));
    EXPECT_TRUE(isPersistentAddr(persistent_base + 12345));
    EXPECT_FALSE(isPersistentAddr(volatile_base));
    EXPECT_FALSE(isPersistentAddr(0));
}

TEST(Event, PersistDetection)
{
    TraceEvent event;
    event.kind = EventKind::Store;
    event.addr = persistent_base;
    EXPECT_TRUE(event.isPersist());
    event.addr = volatile_base;
    EXPECT_FALSE(event.isPersist());
    event.kind = EventKind::Load;
    event.addr = persistent_base;
    EXPECT_FALSE(event.isPersist());
    event.kind = EventKind::Rmw;
    EXPECT_TRUE(event.isPersist());
    EXPECT_TRUE(event.isRead());
    EXPECT_TRUE(event.isWrite());
}

TEST(Event, KindNamesAndFormat)
{
    TraceEvent event;
    event.seq = 7;
    event.thread = 3;
    event.kind = EventKind::Store;
    event.addr = persistent_base;
    event.size = 8;
    event.value = 0xff;
    const std::string text = formatEvent(event);
    EXPECT_NE(text.find("store"), std::string::npos);
    EXPECT_NE(text.find("[persist]"), std::string::npos);
    EXPECT_STREQ(eventKindName(EventKind::PersistBarrier),
                 "persist_barrier");
    EXPECT_STREQ(eventKindName(EventKind::NewStrand), "new_strand");
}

TEST(Sink, FanoutDeliversInOrderToAll)
{
    InMemoryTrace a;
    InMemoryTrace b;
    FanoutSink fanout;
    fanout.addSink(&a);
    fanout.addSink(&b);

    TraceEvent event;
    event.kind = EventKind::Load;
    for (int i = 0; i < 5; ++i) {
        event.seq = i;
        fanout.onEvent(event);
    }
    fanout.onFinish();
    ASSERT_EQ(a.size(), 5u);
    ASSERT_EQ(b.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(a.events()[i].seq, static_cast<SeqNum>(i));
        EXPECT_EQ(b.events()[i].seq, static_cast<SeqNum>(i));
    }
}

TEST(Sink, InMemoryTraceTracksThreadCount)
{
    InMemoryTrace trace;
    TraceEvent event;
    event.thread = 0;
    trace.onEvent(event);
    event.thread = 4;
    trace.onEvent(event);
    EXPECT_EQ(trace.threadCount(), 5u);
    EXPECT_FALSE(trace.empty());
}

TEST(Sink, ThreadCountDoesNotWrapAtTheLastId)
{
    // Thread id 0xffffffff counts 2^32 threads; in 32 bits its + 1
    // wrapped to 0 and a trace with threads 5 and 0xffffffff read 6.
    TraceEvent events[2];
    events[0].thread = 5;
    events[1].thread = 0xffffffffu;
    InMemoryTrace one_by_one;
    one_by_one.onEvent(events[0]);
    one_by_one.onEvent(events[1]);
    EXPECT_EQ(one_by_one.threadCount(), std::uint64_t{1} << 32);
    InMemoryTrace batched;
    batched.onBatch(events, 2);
    EXPECT_EQ(batched.threadCount(), std::uint64_t{1} << 32);
}

TEST(Sink, ReplayFeedsAnotherSink)
{
    test::TraceBuilder builder;
    builder.store(0, paddr(0), 1).barrier(0).store(0, paddr(1), 2);

    InMemoryTrace copy;
    builder.trace().replay(copy);
    EXPECT_EQ(copy.size(), 3u);
}

/** An event whose every field is a distinct function of @p i. */
TraceEvent
numbered(std::uint64_t i)
{
    TraceEvent event;
    event.seq = i;
    event.addr = 0x1000 + 8 * i;
    event.value = i * 0x9e3779b97f4a7c15ULL;
    event.thread = static_cast<ThreadId>(i % 7);
    event.kind = static_cast<EventKind>(i % (kMaxEventKind + 1));
    event.size = static_cast<std::uint8_t>(1 + i % 8);
    event.marker = static_cast<std::uint16_t>(i % 65521);
    return event;
}

/** Field-by-field comparison of @p trace against @p expect. */
void
expectSameEvents(const InMemoryTrace &trace,
                 const std::vector<TraceEvent> &expect)
{
    ASSERT_EQ(trace.size(), expect.size());
    ASSERT_EQ(trace.events().size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
        const TraceEvent &a = trace.events()[i];
        const TraceEvent &b = expect[i];
        ASSERT_TRUE(a.seq == b.seq && a.addr == b.addr &&
                    a.value == b.value && a.thread == b.thread &&
                    a.kind == b.kind && a.size == b.size &&
                    a.marker == b.marker)
            << "event " << i;
    }
}

std::vector<TraceEvent>
numberedRange(std::uint64_t first, std::uint64_t count)
{
    std::vector<TraceEvent> events;
    for (std::uint64_t i = first; i < first + count; ++i)
        events.push_back(numbered(i));
    return events;
}

TEST(InMemoryTrace, MixedAppendsMatchAVectorAcrossGrowth)
{
    InMemoryTrace trace;
    std::vector<TraceEvent> expect;
    std::uint64_t next = 0;
    // Interleave single events and batches of varying size through
    // well over ten doublings, past the size where malloc maps blocks.
    for (int round = 0; expect.size() < 150'000; ++round) {
        if (round % 3 == 0) {
            trace.onEvent(numbered(next));
            expect.push_back(numbered(next++));
            continue;
        }
        const auto batch =
            numberedRange(next, 1 + static_cast<std::uint64_t>(round) % 997);
        trace.onBatch(batch.data(), batch.size());
        expect.insert(expect.end(), batch.begin(), batch.end());
        next += batch.size();
    }
    // One batch larger than twice everything so far: more than the
    // whole current capacity in a single append.
    const auto big = numberedRange(next, 2 * expect.size() + 1);
    trace.onBatch(big.data(), big.size());
    expect.insert(expect.end(), big.begin(), big.end());
    trace.onEvent(numbered(next + big.size()));
    expect.push_back(numbered(next + big.size()));

    expectSameEvents(trace, expect);
    EXPECT_EQ(trace.threadCount(), 7u);
    EXPECT_EQ(trace.events().front().seq, 0u);
    EXPECT_EQ(trace.events().back().seq, expect.back().seq);
}

TEST(InMemoryTrace, CopyIsDeepAndIndependent)
{
    InMemoryTrace original;
    const auto events = numberedRange(0, 3000);
    original.onBatch(events.data(), events.size());

    InMemoryTrace copy(original);
    expectSameEvents(copy, events);
    EXPECT_EQ(copy.threadCount(), original.threadCount());
    EXPECT_NE(copy.events().data(), original.events().data());

    // Copy-assign over a trace that is smaller, then one that is
    // larger, than the source.
    InMemoryTrace small;
    small.onEvent(numbered(99));
    small = original;
    expectSameEvents(small, events);
    InMemoryTrace large;
    const auto more = numberedRange(10'000, 5000);
    large.onBatch(more.data(), more.size());
    large = original;
    expectSameEvents(large, events);

    // Appending to one side leaves the others untouched.
    original.onEvent(numbered(3000));
    copy.onEvent(numbered(7));
    expectSameEvents(small, events);
    expectSameEvents(large, events);
    EXPECT_EQ(original.size(), 3001u);
    EXPECT_EQ(original.events().back().seq, 3000u);
    EXPECT_EQ(copy.size(), 3001u);
    EXPECT_EQ(copy.events().back().seq, 7u);
    EXPECT_EQ(copy.events()[2999].seq, 2999u);
}

TEST(InMemoryTrace, MovedFromTraceIsEmptyAndUsable)
{
    const auto events = numberedRange(0, 1000);
    InMemoryTrace source;
    source.onBatch(events.data(), events.size());

    InMemoryTrace moved(std::move(source));
    expectSameEvents(moved, events);
    EXPECT_TRUE(source.empty());
    EXPECT_TRUE(source.events().empty());
    EXPECT_EQ(source.threadCount(), 0u);
    source.onEvent(numbered(5));
    expectSameEvents(source, {numbered(5)});
    EXPECT_EQ(source.threadCount(), 6u);

    InMemoryTrace assigned;
    assigned.onEvent(numbered(42));
    assigned = std::move(moved);
    expectSameEvents(assigned, events);
    EXPECT_TRUE(moved.empty());
    EXPECT_EQ(moved.threadCount(), 0u);
    const auto again = numberedRange(500, 300);
    moved.onBatch(again.data(), again.size());
    expectSameEvents(moved, again);
}

TEST(InMemoryTrace, EmptyTraceYieldsEmptySpan)
{
    InMemoryTrace trace;
    EXPECT_TRUE(trace.empty());
    EXPECT_EQ(trace.size(), 0u);
    EXPECT_TRUE(trace.events().empty());
    EXPECT_EQ(trace.threadCount(), 0u);

    // Replaying and copying an empty trace stay empty.
    InMemoryTrace sink;
    trace.replay(sink);
    EXPECT_TRUE(sink.events().empty());
    const InMemoryTrace copy(trace);
    EXPECT_TRUE(copy.events().empty());
}

TEST(InMemoryTrace, ReserveThenBatchKeepsContents)
{
    // As readTraceFile does: reserve the whole trace up front, then
    // append it in batches without the buffer ever moving.
    InMemoryTrace trace;
    trace.reserve(50'000);
    const TraceEvent *reserved = trace.events().data();
    std::vector<TraceEvent> expect = numberedRange(0, 100);
    trace.onBatch(expect.data(), expect.size());
    const auto tail = numberedRange(100, 49'900);
    trace.onBatch(tail.data(), tail.size());
    expect.insert(expect.end(), tail.begin(), tail.end());
    EXPECT_EQ(trace.events().data(), reserved);
    expectSameEvents(trace, expect);

    // Reserving more on a filled trace keeps what it holds.
    trace.reserve(120'000);
    expectSameEvents(trace, expect);
    const auto more = numberedRange(50'000, 70'000);
    trace.onBatch(more.data(), more.size());
    expect.insert(expect.end(), more.begin(), more.end());
    expectSameEvents(trace, expect);

    // Reserving less than the size is a no-op.
    trace.reserve(10);
    expectSameEvents(trace, expect);
}

TEST(TraceIo, RoundTripPreservesEvents)
{
    test::TraceBuilder builder;
    builder.opBegin(1, 99)
        .store(1, paddr(3), 0xdeadbeef)
        .load(1, vaddr(2))
        .rmw(0, vaddr(5), 7)
        .barrier(1)
        .strand(0)
        .opEnd(1, 99);

    const std::string path = tempPath("roundtrip");
    writeTraceFile(path, builder.trace());
    const InMemoryTrace loaded = readTraceFile(path);

    ASSERT_EQ(loaded.size(), builder.trace().size());
    EXPECT_EQ(loaded.threadCount(), builder.trace().threadCount());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        const auto &a = builder.trace().events()[i];
        const auto &b = loaded.events()[i];
        EXPECT_EQ(a.seq, b.seq);
        EXPECT_EQ(a.addr, b.addr);
        EXPECT_EQ(a.value, b.value);
        EXPECT_EQ(a.thread, b.thread);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.size, b.size);
        EXPECT_EQ(a.marker, b.marker);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, HeaderRecordsCounts)
{
    test::TraceBuilder builder;
    builder.store(0, paddr(0)).store(3, paddr(1));
    const std::string path = tempPath("header");
    writeTraceFile(path, builder.trace());

    const InMemoryTrace loaded = readTraceFile(path);
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded.threadCount(), 4u);
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileIsFatal)
{
    EXPECT_THROW(readTraceFile("/nonexistent/path/trace.trc"),
                 FatalError);
}

TEST(TraceIo, NonRegularFileIsFatal)
{
    EXPECT_NE(errorOf([] { readTraceFile("/dev/null"); })
                  .find("not a regular file"),
              std::string::npos);
}

TEST(TraceIo, BadMagicIsFatal)
{
    const std::string path = tempPath("badmagic");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOTATRACEFILE_________________", f);
    std::fclose(f);
    EXPECT_THROW(readTraceFile(path), FatalError);
    std::remove(path.c_str());
}

TEST(TraceIo, WriterAsSinkIsStreamable)
{
    const std::string path = tempPath("sink");
    {
        TraceFileWriter writer(path);
        test::TraceBuilder builder;
        builder.store(0, paddr(0), 1).store(1, paddr(1), 2);
        builder.trace().replay(writer);
        EXPECT_EQ(writer.eventsWritten(), 2u);
    }
    const InMemoryTrace loaded = readTraceFile(path);
    EXPECT_EQ(loaded.size(), 2u);
    std::remove(path.c_str());
}

TEST(TraceIo, WriterRefusesAThreadCountPastItsHeader)
{
    // The header's thread count is 32-bit, so thread id 0xffffffff
    // (count 2^32) cannot be recorded: the writer fails naming the id
    // instead of writing a wrapped count, and the file it leaves holds
    // only the batches before.
    const std::string path = tempPath("last_thread");
    {
        TraceFileWriter writer(path);
        test::TraceBuilder builder;
        builder.store(5, paddr(0), 1);
        writer.onBatch(builder.trace().events().data(),
                       builder.trace().size());
        TraceEvent last;
        last.kind = EventKind::Store;
        last.thread = 0xffffffffu;
        last.addr = paddr(1);
        last.size = 8;
        try {
            writer.onEvent(last);
            ADD_FAILURE() << "thread id 0xffffffff was written";
        } catch (const FatalError &error) {
            const std::string what = error.what();
            EXPECT_NE(what.find("thread id 4294967295"), std::string::npos)
                << what;
        }
        EXPECT_EQ(writer.eventsWritten(), 1u);
        writer.onFinish();
    }
    const InMemoryTrace loaded = readTraceFile(path);
    EXPECT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded.threadCount(), 6u);
    std::remove(path.c_str());
}

TEST(TraceIo, HeaderIsLittleEndianOnDisk)
{
    // The records were always serialized little-endian; the header
    // must be too, or traces aren't portable across endianness. Check
    // the raw bytes: version 1, 4 threads, 2 events.
    const std::string path = writeSmallTrace("le_header");
    const auto bytes = readBytes(path);
    ASSERT_GE(bytes.size(), 24u);
    const std::vector<unsigned char> expected{
        'P', 'S', 'I', 'M', 'T', 'R', 'C', '1', // magic
        1,   0,   0,   0,                       // version, LE
        4,   0,   0,   0,                       // thread count, LE
        2,   0,   0,   0,   0,   0,   0,   0,   // event count, LE
    };
    EXPECT_EQ(std::vector<unsigned char>(bytes.begin(),
                                         bytes.begin() + 24),
              expected);
    std::remove(path.c_str());
}

TEST(TraceIo, TruncatedFileIsRejectedAtOpen)
{
    // The header claims two events; chop off part of the last record.
    const std::string path = writeSmallTrace("truncated");
    auto bytes = readBytes(path);
    bytes.resize(bytes.size() - 10);
    writeBytes(path, bytes);
    const std::string what = errorOf([&] { readTraceFile(path); });
    EXPECT_NE(what.find("size mismatch"), std::string::npos) << what;
    std::remove(path.c_str());
}

TEST(TraceIo, OverstatedEventCountIsRejectedAtOpen)
{
    // Bump the header count without appending records: the reader
    // must not trust it and walk off the end of the file.
    const std::string path = writeSmallTrace("overcount");
    auto bytes = readBytes(path);
    bytes[16] = 200; // event_count LE low byte: claim 200 events.
    writeBytes(path, bytes);
    EXPECT_THROW(readTraceFile(path), FatalError);
    std::remove(path.c_str());
}

TEST(TraceIo, HeaderThreadCountMismatchIsFatal)
{
    // The records' highest thread id is 3; a header claiming 7
    // threads is corrupt, and the error names both counts.
    const std::string path = writeSmallTrace("threadcount");
    auto bytes = readBytes(path);
    bytes[12] = 7; // thread_count LE low byte.
    writeBytes(path, bytes);
    const std::string what = errorOf([&] { readTraceFile(path); });
    EXPECT_NE(what.find("claims 7 threads"), std::string::npos) << what;
    EXPECT_NE(what.find("max thread id + 1 is 4"), std::string::npos)
        << what;
    std::remove(path.c_str());
}

TEST(TraceIo, BadEventKindByteIsRejected)
{
    // Corrupt the kind byte of the second record (offset 24 + 32 + 28)
    // — the file size still matches, so only the per-record check can
    // catch it, and it must say which record and where.
    const std::string path = writeSmallTrace("badkind");
    auto bytes = readBytes(path);
    const std::size_t kind_offset = 24 + 32 + 28;
    ASSERT_GT(bytes.size(), kind_offset);
    bytes[kind_offset] = 0xee;
    writeBytes(path, bytes);

    const std::string what = errorOf([&] { readTraceFile(path); });
    EXPECT_NE(what.find("record 1:"), std::string::npos) << what;
    EXPECT_NE(what.find("kind byte 238"), std::string::npos) << what;
    EXPECT_NE(what.find("file offset 84"), std::string::npos) << what;
    std::remove(path.c_str());
}

// The x86 flush/fence kinds must survive the trace file bit-exactly.
TEST(TraceIo, FlushAndFenceKindsRoundTrip)
{
    test::TraceBuilder builder;
    builder.store(0, paddr(0), 1)
        .clflush(0, paddr(0))
        .clflushopt(1, paddr(8))
        .clwb(0, paddr(16))
        .sfence(1)
        .mfence(0);
    const std::string path = tempPath("flushkinds");
    writeTraceFile(path, builder.trace());

    const InMemoryTrace loaded = readTraceFile(path);
    const auto &expect = builder.trace().events();
    ASSERT_EQ(loaded.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(loaded.events()[i].kind, expect[i].kind) << i;
        EXPECT_EQ(loaded.events()[i].addr, expect[i].addr) << i;
        EXPECT_EQ(loaded.events()[i].thread, expect[i].thread) << i;
    }

    EXPECT_STREQ(eventKindName(EventKind::CacheFlush), "clflush");
    EXPECT_STREQ(eventKindName(EventKind::CacheFlushOpt),
                 "clflushopt");
    EXPECT_STREQ(eventKindName(EventKind::CacheWriteBack), "clwb");
    EXPECT_STREQ(eventKindName(EventKind::StoreFence), "sfence");
    EXPECT_STREQ(eventKindName(EventKind::FullFence), "mfence");
    std::remove(path.c_str());
}

// The kind check accepts exactly [0, kMaxEventKind]: the highest
// legal byte (mfence) reads back, while kMaxEventKind + 1 is
// rejected. Guards against the bound lagging behind a future
// EventKind growth.
TEST(TraceIo, KindJustBeyondMaxIsRejected)
{
    test::TraceBuilder builder;
    builder.store(0, paddr(0), 1).mfence(0);
    const std::string path = tempPath("overmax");
    writeTraceFile(path, builder.trace());
    EXPECT_EQ(readTraceFile(path).events()[1].kind, EventKind::FullFence);

    auto bytes = readBytes(path);
    const std::size_t kind_offset = 24 + 32 + 28;
    ASSERT_GT(bytes.size(), kind_offset);
    ASSERT_EQ(bytes[kind_offset], kMaxEventKind); // mfence is the max
    bytes[kind_offset] = kMaxEventKind + 1;
    writeBytes(path, bytes);
    EXPECT_THROW(readTraceFile(path), FatalError);
    std::remove(path.c_str());
}

// The committed golden fixtures pin the on-disk format: loading one
// and writing it back must reproduce the file byte for byte.
TEST(TraceIo, GoldenFixturesRewriteByteIdentically)
{
    for (const std::string &name : test::goldenFixtureNames()) {
        const std::string fixture = goldenDir() + "/" + name + ".trc";
        const std::string path = tempPath(("golden_" + name).c_str());
        writeTraceFile(path, readTraceFile(fixture));
        const auto original = readBytes(fixture);
        ASSERT_GT(original.size(), 24u) << fixture;
        EXPECT_TRUE(readBytes(path) == original) << name;
        std::remove(path.c_str());
    }
}

// readTraceFile reads records in bursts of 16 Ki events. The
// MmapTraceIo cases load traces that span several bursts, so record
// indices, file offsets and the copy into the trace are checked across
// burst boundaries, not only inside the first one.
constexpr std::size_t reader_burst = 16384;
constexpr std::size_t multi_burst_events = 2 * reader_burst + 3;

std::string
writeMultiBurstTrace(const char *tag, test::TraceBuilder &builder)
{
    for (std::size_t i = 0; i < multi_burst_events; ++i)
        builder.store(static_cast<ThreadId>(i % 3), paddr(i % 64), i);
    const std::string path = tempPath(tag);
    writeTraceFile(path, builder.trace());
    return path;
}

TEST(MmapTraceIo, RoundTripAndSegmentViews)
{
    test::TraceBuilder builder;
    const std::string path = writeMultiBurstTrace("burst_roundtrip", builder);
    const InMemoryTrace loaded = readTraceFile(path);
    const auto &expect = builder.trace().events();
    ASSERT_EQ(loaded.size(), multi_burst_events);
    EXPECT_EQ(loaded.threadCount(), 3u);
    for (std::size_t i = 0; i < expect.size(); ++i) {
        const auto &a = expect[i];
        const auto &b = loaded.events()[i];
        ASSERT_TRUE(a.seq == b.seq && a.addr == b.addr &&
                    a.value == b.value && a.thread == b.thread &&
                    a.kind == b.kind && a.size == b.size &&
                    a.marker == b.marker)
            << "event " << i;
    }
    std::remove(path.c_str());

    // An empty trace is a header and nothing else.
    const std::string empty = tempPath("burst_empty");
    writeTraceFile(empty, InMemoryTrace{});
    EXPECT_EQ(readBytes(empty).size(), 24u);
    const InMemoryTrace none = readTraceFile(empty);
    EXPECT_TRUE(none.empty());
    EXPECT_EQ(none.threadCount(), 0u);
    std::remove(empty.c_str());
}

TEST(MmapTraceIo, MissingFileIsFatal)
{
    const std::string what =
        errorOf([] { readTraceFile("/nonexistent/path/trace.trc"); });
    EXPECT_NE(what.find("cannot open trace file"), std::string::npos)
        << what;
    EXPECT_NE(what.find("/nonexistent/path/trace.trc"), std::string::npos)
        << what;
}

TEST(MmapTraceIo, BadMagicIsFatal)
{
    // A well-formed trace with one magic byte flipped: the size and
    // every record are fine, so only the magic check can catch it.
    const std::string path = writeSmallTrace("burst_badmagic");
    auto bytes = readBytes(path);
    bytes[7] = '2';
    writeBytes(path, bytes);
    const std::string what = errorOf([&] { readTraceFile(path); });
    EXPECT_NE(what.find("bad trace file magic"), std::string::npos)
        << what;

    // Shorter than the header: the error says where the file ends.
    bytes.resize(9);
    writeBytes(path, bytes);
    const std::string short_what = errorOf([&] { readTraceFile(path); });
    EXPECT_NE(short_what.find("ends at byte 9 inside the 24-byte header"),
              std::string::npos)
        << short_what;
    std::remove(path.c_str());
}

TEST(MmapTraceIo, TruncatedFileIsRejectedAtOpen)
{
    // Drop exactly one whole record, so the remainder is still a
    // multiple of the record size: only the header count disagrees.
    test::TraceBuilder builder;
    const std::string path = writeMultiBurstTrace("burst_truncated", builder);
    auto bytes = readBytes(path);
    bytes.resize(bytes.size() - 32);
    writeBytes(path, bytes);
    const std::string what = errorOf([&] { readTraceFile(path); });
    EXPECT_NE(what.find("size mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("header claims " +
                        std::to_string(multi_burst_events) + " events"),
              std::string::npos)
        << what;
    std::remove(path.c_str());
}

TEST(MmapTraceIo, OverstatedEventCountIsRejectedAtOpen)
{
    // A count near 2^63 must be rejected by the size check before the
    // reader reserves storage for it.
    const std::string path = writeSmallTrace("burst_overcount");
    auto bytes = readBytes(path);
    bytes[23] = 0x7f; // event_count LE high byte.
    writeBytes(path, bytes);
    const std::string what = errorOf([&] { readTraceFile(path); });
    EXPECT_NE(what.find("size mismatch"), std::string::npos) << what;
    std::remove(path.c_str());
}

TEST(MmapTraceIo, BadEventKindByteIsRejectedAtOpen)
{
    // Poison a record in the second burst: the error must give its
    // index and offset in the whole file, not within the burst.
    test::TraceBuilder builder;
    const std::string path = writeMultiBurstTrace("burst_badkind", builder);
    auto bytes = readBytes(path);
    const std::size_t record = reader_burst + 1;
    const std::size_t kind_offset = 24 + record * 32 + 28;
    ASSERT_GT(bytes.size(), kind_offset);
    bytes[kind_offset] = 0xee;
    writeBytes(path, bytes);

    const std::string what = errorOf([&] { readTraceFile(path); });
    EXPECT_NE(what.find("record " + std::to_string(record) + ":"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("file offset " + std::to_string(kind_offset)),
              std::string::npos)
        << what;
    std::remove(path.c_str());
}

TEST(TraceIo, WriterDestructorIsBestEffortOnFullDisk)
{
    // /dev/full returns ENOSPC on flush: the explicit onFinish() must
    // report it, and the destructor must swallow it rather than call
    // std::terminate.
    std::FILE *probe = std::fopen("/dev/full", "wb");
    if (probe == nullptr)
        GTEST_SKIP() << "/dev/full not available";
    std::fclose(probe);

    test::TraceBuilder builder;
    builder.store(0, paddr(0), 1);

    {
        TraceFileWriter writer("/dev/full");
        for (const auto &event : builder.trace().events())
            writer.onEvent(event);
        EXPECT_THROW(writer.onFinish(), FatalError);
    } // Destructor after a failed finish: must not throw.

    {
        TraceFileWriter writer("/dev/full");
        for (const auto &event : builder.trace().events())
            writer.onEvent(event);
    } // Destructor alone hits the short write: must not terminate.
}

TEST(TraceStats, CountsByKind)
{
    test::TraceBuilder builder;
    builder.opBegin(0, 1)
        .load(0, vaddr(0))
        .store(0, paddr(0), 5)
        .store(0, vaddr(1), 6)
        .rmw(0, paddr(1), 7)
        .barrier(0)
        .strand(0)
        .sync(0)
        .opEnd(0, 1);

    TraceStats stats;
    builder.trace().replay(stats);
    EXPECT_EQ(stats.loads(), 1u);
    EXPECT_EQ(stats.stores(), 2u);
    EXPECT_EQ(stats.rmws(), 1u);
    EXPECT_EQ(stats.persists(), 2u); // persistent store + persistent rmw
    EXPECT_EQ(stats.persistedBytes(), 16u);
    EXPECT_EQ(stats.persistBarriers(), 1u);
    EXPECT_EQ(stats.newStrands(), 1u);
    EXPECT_EQ(stats.persistSyncs(), 1u);
    EXPECT_EQ(stats.operations(), 1u);
    EXPECT_EQ(stats.markers(), 2u);
    EXPECT_EQ(stats.totalEvents(), 9u);
}

TEST(TraceStats, PerThreadCounts)
{
    test::TraceBuilder builder;
    builder.store(0, paddr(0)).store(2, paddr(1)).store(2, paddr(2));
    TraceStats stats;
    builder.trace().replay(stats);
    EXPECT_EQ(stats.threadEvents(0), 1u);
    EXPECT_EQ(stats.threadEvents(1), 0u);
    EXPECT_EQ(stats.threadEvents(2), 2u);
    EXPECT_EQ(stats.threadCount(), 3u);
    EXPECT_FALSE(stats.render().empty());
}

TEST(TraceStats, ThreadIdsPastTheCeilingAreRefused)
{
    // The per-thread table never grows past compiled_max_threads: a
    // larger id (the last one would wrap a 32-bit size to 0) fails
    // naming it, and the stats keep what came before.
    for (const ThreadId tid : {ThreadId{65536}, ThreadId{0xffffffffu}}) {
        test::TraceBuilder builder;
        builder.store(5, paddr(0)).store(tid, paddr(1));
        TraceStats stats;
        try {
            builder.trace().replay(stats);
            FAIL() << "TraceStats accepted thread id " << tid;
        } catch (const FatalError &error) {
            const std::string what = error.what();
            EXPECT_NE(what.find("thread id " + std::to_string(tid)),
                      std::string::npos)
                << what;
        }
        EXPECT_EQ(stats.threadCount(), 6u);
        EXPECT_EQ(stats.totalEvents(), 1u);
    }
}

} // namespace
} // namespace persim
