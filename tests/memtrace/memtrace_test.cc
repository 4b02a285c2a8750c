/**
 * @file
 * Unit tests for src/memtrace: events, sinks, trace file I/O, stats.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "memtrace/event.hh"
#include "memtrace/sink.hh"
#include "memtrace/trace_io.hh"
#include "memtrace/trace_stats.hh"
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

TEST(Sink, ReplayFeedsAnotherSink)
{
    test::TraceBuilder builder;
    builder.store(0, paddr(0), 1).barrier(0).store(0, paddr(1), 2);

    InMemoryTrace copy;
    builder.trace().replay(copy);
    EXPECT_EQ(copy.size(), 3u);
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

    TraceFileReader reader(path);
    EXPECT_EQ(reader.eventCount(), 2u);
    EXPECT_EQ(reader.threadCount(), 4u);
    std::remove(path.c_str());
}

TEST(TraceIo, StreamingReaderMatchesReadAll)
{
    test::TraceBuilder builder;
    for (int i = 0; i < 20; ++i)
        builder.store(0, paddr(i), i);
    const std::string path = tempPath("stream");
    writeTraceFile(path, builder.trace());

    TraceFileReader reader(path);
    TraceEvent event;
    int count = 0;
    while (reader.readNext(event)) {
        EXPECT_EQ(event.value, static_cast<std::uint64_t>(count));
        ++count;
    }
    EXPECT_EQ(count, 20);
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileIsFatal)
{
    EXPECT_THROW(TraceFileReader("/nonexistent/path/trace.trc"),
                 FatalError);
}

TEST(TraceIo, BadMagicIsFatal)
{
    const std::string path = tempPath("badmagic");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOTATRACEFILE_________________", f);
    std::fclose(f);
    EXPECT_THROW(TraceFileReader reader(path), FatalError);
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
    try {
        TraceFileReader reader(path);
        FAIL() << "expected a size-mismatch error";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("size mismatch"),
                  std::string::npos)
            << error.what();
    }
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
    EXPECT_THROW(TraceFileReader reader(path), FatalError);
    std::remove(path.c_str());
}

TEST(TraceIo, BadEventKindByteIsRejected)
{
    // Corrupt the kind byte of the second record (offset 24 + 32 + 28)
    // — the file size still matches, so the open succeeds and the
    // poisoned record must be caught during reading.
    const std::string path = writeSmallTrace("badkind");
    auto bytes = readBytes(path);
    const std::size_t kind_offset = 24 + 32 + 28;
    ASSERT_GT(bytes.size(), kind_offset);
    bytes[kind_offset] = 0xee;
    writeBytes(path, bytes);

    TraceFileReader reader(path);
    TraceEvent event;
    EXPECT_TRUE(reader.readNext(event)); // First record is intact.
    try {
        reader.readNext(event);
        FAIL() << "expected a bad-kind error";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("kind byte"),
                  std::string::npos)
            << error.what();
    }
    std::remove(path.c_str());
}

// The x86 flush/fence kinds (ISSUE 6) must survive every trace
// surface: the buffered reader, the streaming reader, and the mmap
// reader all reproduce them bit-exactly.
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

    const InMemoryTrace buffered = readTraceFile(path);
    MmapTraceReader mapped(path);
    TraceFileReader streaming(path);
    const auto &expect = builder.trace().events();
    ASSERT_EQ(buffered.size(), expect.size());
    ASSERT_EQ(mapped.events().size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
        TraceEvent streamed;
        ASSERT_TRUE(streaming.readNext(streamed));
        EXPECT_EQ(buffered.events()[i].kind, expect[i].kind) << i;
        EXPECT_EQ(mapped.events()[i].kind, expect[i].kind) << i;
        EXPECT_EQ(streamed.kind, expect[i].kind) << i;
        EXPECT_EQ(buffered.events()[i].addr, expect[i].addr) << i;
        EXPECT_EQ(mapped.events()[i].addr, expect[i].addr) << i;
        EXPECT_EQ(streamed.thread, expect[i].thread) << i;
    }

    EXPECT_STREQ(eventKindName(EventKind::CacheFlush), "clflush");
    EXPECT_STREQ(eventKindName(EventKind::CacheFlushOpt),
                 "clflushopt");
    EXPECT_STREQ(eventKindName(EventKind::CacheWriteBack), "clwb");
    EXPECT_STREQ(eventKindName(EventKind::StoreFence), "sfence");
    EXPECT_STREQ(eventKindName(EventKind::FullFence), "mfence");
    std::remove(path.c_str());
}

// The kind validators accept exactly [0, kMaxEventKind]: the highest
// legal byte (mfence) reads back, while kMaxEventKind + 1 is rejected
// by both the streaming and the mmap decoder. Guards against the
// validator bound lagging behind a future EventKind growth.
TEST(TraceIo, KindJustBeyondMaxIsRejected)
{
    test::TraceBuilder builder;
    builder.store(0, paddr(0), 1).mfence(0);
    const std::string path = tempPath("overmax");
    writeTraceFile(path, builder.trace());

    auto bytes = readBytes(path);
    const std::size_t kind_offset = 24 + 32 + 28;
    ASSERT_GT(bytes.size(), kind_offset);
    ASSERT_EQ(bytes[kind_offset], kMaxEventKind); // mfence is the max
    bytes[kind_offset] = kMaxEventKind + 1;
    writeBytes(path, bytes);

    TraceFileReader reader(path);
    TraceEvent event;
    EXPECT_TRUE(reader.readNext(event));
    EXPECT_THROW(reader.readNext(event), FatalError);
    EXPECT_THROW(MmapTraceReader mapped(path), FatalError);
    std::remove(path.c_str());
}

TEST(MmapTraceIo, RoundTripAndSegmentViews)
{
    const std::string path = writeSmallTrace("mmap_roundtrip");
    MmapTraceReader reader(path);
    EXPECT_EQ(reader.eventCount(), 2u);
    EXPECT_EQ(reader.threadCount(), 4u);

    const auto all = reader.events();
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0].value, 1u);
    EXPECT_EQ(all[1].value, 2u);
    EXPECT_EQ(all[1].thread, 3u);
    EXPECT_EQ(all[1].kind, EventKind::Store);

    // The mapped records must read back exactly as the streaming
    // decoder produces them (layout equivalence, not just field
    // plausibility).
    const InMemoryTrace streamed = readTraceFile(path);
    for (std::size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(all[i].seq, streamed.events()[i].seq);
        EXPECT_EQ(all[i].addr, streamed.events()[i].addr);
        EXPECT_EQ(all[i].value, streamed.events()[i].value);
        EXPECT_EQ(all[i].marker, streamed.events()[i].marker);
    }

    const auto tail = reader.segment(1, 1);
    ASSERT_EQ(tail.size(), 1u);
    EXPECT_EQ(tail[0].value, 2u);
    EXPECT_EQ(reader.segment(2, 0).size(), 0u);
    EXPECT_THROW(reader.segment(1, 2), FatalError);
    EXPECT_THROW(reader.segment(3, 0), FatalError);

    InMemoryTrace sunk;
    reader.readAll(sunk);
    EXPECT_EQ(sunk.size(), 2u);
    std::remove(path.c_str());
}

TEST(MmapTraceIo, MissingFileIsFatal)
{
    EXPECT_THROW(MmapTraceReader("/nonexistent/path/trace.trc"),
                 FatalError);
}

TEST(MmapTraceIo, BadMagicIsFatal)
{
    const std::string path = tempPath("mmap_badmagic");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOTATRACEFILE_________________", f);
    std::fclose(f);
    EXPECT_THROW(MmapTraceReader reader(path), FatalError);
    std::remove(path.c_str());
}

TEST(MmapTraceIo, TruncatedFileIsRejectedAtOpen)
{
    const std::string path = writeSmallTrace("mmap_truncated");
    auto bytes = readBytes(path);
    bytes.resize(bytes.size() - 10);
    writeBytes(path, bytes);
    try {
        MmapTraceReader reader(path);
        FAIL() << "expected a size-mismatch error";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("size mismatch"),
                  std::string::npos)
            << error.what();
    }
    std::remove(path.c_str());
}

TEST(MmapTraceIo, OverstatedEventCountIsRejectedAtOpen)
{
    const std::string path = writeSmallTrace("mmap_overcount");
    auto bytes = readBytes(path);
    bytes[16] = 200; // event_count LE low byte: claim 200 events.
    writeBytes(path, bytes);
    EXPECT_THROW(MmapTraceReader reader(path), FatalError);
    std::remove(path.c_str());
}

TEST(MmapTraceIo, BadEventKindByteIsRejectedAtOpen)
{
    // Unlike the streaming reader, the mmap reader validates every
    // record's kind byte up front: the views it hands out must be
    // safe to consume without per-event checks, so the poisoned
    // record fails the OPEN, not some later replay.
    const std::string path = writeSmallTrace("mmap_badkind");
    auto bytes = readBytes(path);
    const std::size_t kind_offset = 24 + 32 + 28;
    ASSERT_GT(bytes.size(), kind_offset);
    bytes[kind_offset] = 0xee;
    writeBytes(path, bytes);
    try {
        MmapTraceReader reader(path);
        FAIL() << "expected a bad-kind error";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("kind byte"),
                  std::string::npos)
            << error.what();
    }
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

} // namespace
} // namespace persim
