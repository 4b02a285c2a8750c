/**
 * @file
 * Compiled-trace format and replay tests.
 *
 * Three surfaces:
 *
 *  - the .ctc artifact format itself: layout invariants, the
 *    little-endian gate, and rejection of corrupt artifacts — bad
 *    magic, wrong version, flipped header/payload checksum bytes,
 *    truncation (errors must name the offending byte offset), plus
 *    the .ctp pack round-trip;
 *  - the cache discipline: loadOrCompileTrace must recompile — never
 *    silently replay stale micro-ops — when the source trace changed
 *    under a caller-chosen tag, and must recover from corrupt cache
 *    files in place;
 *  - bit-identity: compiledReplay must produce the same TimingResult
 *    (and, where recorded, the same persist-log hash) as interpreted
 *    replay for every golden fixture under the full frozen golden
 *    configuration matrix, and for the 1M synthetic bench trace
 *    under strict/epoch/strand/px86 plus a recorded-log stochastic
 *    epoch config at jobs in {1, 4}.
 *
 * The streaming/mmap trace readers' truncation diagnostics
 * (byte-offset reporting) are covered here too — they share the
 * "reject short files loudly" contract with the compiled format.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util/synthetic_trace.hh"
#include "common/error.hh"
#include "common/task_pool.hh"
#include "memtrace/compiled_trace.hh"
#include "memtrace/event.hh"
#include "memtrace/trace_io.hh"
#include "persistency/compiled_replay.hh"
#include "persistency/segment_compile.hh"
#include "tests/persistency/golden_support.hh"

namespace persim::test {
namespace {

// Layout invariants the .ctc format depends on. TraceEvent must stay
// fully packed (source hashing covers raw bytes) and the compiled
// sentinels must match the segment compiler's.
static_assert(sizeof(TraceEvent) == 32,
              "TraceEvent layout feeds fnv1a source hashing");
static_assert(compiled_no_slot == 0xffffffffu,
              "compiled_no_slot must match the engine's no-slot-hint");
static_assert(compiled_trace_version == 1, "bump tests with the format");
static_assert(compiled_flag_write == 1 && compiled_flag_persistent == 2,
              "flag bits are baked into committed artifacts");
static_assert(std::endian::native == std::endian::little,
              "compiled artifacts are little-endian; the mmap path is "
              "gated on LE hosts like MmapTraceReader");

std::string
goldenDir()
{
    const char *dir = std::getenv("PERSIM_GOLDEN_DIR");
    return dir != nullptr ? dir : "tests/persistency/golden";
}

std::uint64_t
syntheticEvents()
{
    const char *env = std::getenv("PERSIM_SYNTH_EVENTS");
    if (env != nullptr && *env != '\0')
        return std::strtoull(env, nullptr, 10);
    return 1'000'000;
}

std::vector<TraceEvent>
loadGolden(const std::string &name)
{
    MmapTraceReader reader(goldenDir() + "/" + name + ".trc");
    const auto view = reader.events();
    return {view.begin(), view.end()};
}

/** Scratch path inside gtest's per-run temp directory. */
std::string
scratchPath(const std::string &name)
{
    return ::testing::TempDir() + "persim_ctc_" + name;
}

/** Byte-level surgery on a written artifact. */
void
flipByte(const std::string &path, std::uint64_t offset)
{
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xff);
    file.seekp(static_cast<std::streamoff>(offset));
    file.write(&byte, 1);
}

void
truncateFile(const std::string &path, std::uint64_t size)
{
    std::error_code ec;
    std::filesystem::resize_file(path, size, ec);
    ASSERT_FALSE(ec);
}

/** What the error said, or "" if @p fn did not throw. */
template <typename Fn>
std::string
errorOf(Fn &&fn)
{
    try {
        fn();
    } catch (const Error &error) {
        return error.what();
    }
    return {};
}

/** A small but structurally rich compiled artifact. */
CompiledTrace
compileMixed(const TimingConfig &config)
{
    const std::vector<TraceEvent> events = loadGolden("mixed");
    return compileTrace(events.data(), events.size(), config);
}

TimingConfig
epochConfig()
{
    TimingConfig config;
    config.model = ModelConfig::epoch();
    return config;
}

// ---------------------------------------------------------------
// Format: write -> mmap round trip and corrupt-artifact rejection.
// ---------------------------------------------------------------

TEST(CompiledTraceFormat, WriteThenMapRoundTripsColumns)
{
    const TimingConfig config = epochConfig();
    const CompiledTrace trace = compileMixed(config);
    const std::string path = scratchPath("roundtrip.ctc");
    writeCompiledTrace(path, trace);

    MmapCompiledTrace mapped(path, kMaxMicroOpKind);
    const CompiledTraceView &a = trace.view();
    const CompiledTraceView &b = mapped.view();
    ASSERT_EQ(a.micro_ops, b.micro_ops);
    ASSERT_EQ(a.events, b.events);
    ASSERT_EQ(a.track_slots, b.track_slots);
    ASSERT_EQ(a.atomic_slots, b.atomic_slots);
    ASSERT_EQ(a.runs, b.runs);
    ASSERT_EQ(a.thread_count, b.thread_count);
    EXPECT_EQ(a.source_hash, b.source_hash);
    EXPECT_EQ(a.spec_fp, b.spec_fp);
    for (std::uint64_t i = 0; i < a.micro_ops; ++i) {
        ASSERT_EQ(a.kind[i], b.kind[i]) << "op " << i;
        ASSERT_EQ(a.size[i], b.size[i]) << "op " << i;
        ASSERT_EQ(a.flags[i], b.flags[i]) << "op " << i;
        ASSERT_EQ(a.thread[i], b.thread[i]) << "op " << i;
        ASSERT_EQ(a.tslot[i], b.tslot[i]) << "op " << i;
        ASSERT_EQ(a.aslot[i], b.aslot[i]) << "op " << i;
        ASSERT_EQ(a.addr[i], b.addr[i]) << "op " << i;
        ASSERT_EQ(a.value[i], b.value[i]) << "op " << i;
        ASSERT_EQ(a.seq[i], b.seq[i]) << "op " << i;
    }
    std::remove(path.c_str());
}

TEST(CompiledTraceFormat, RejectsBadMagic)
{
    const std::string path = scratchPath("magic.ctc");
    writeCompiledTrace(path, compileMixed(epochConfig()));
    flipByte(path, 0);
    const std::string what = errorOf(
        [&] { MmapCompiledTrace mapped(path, kMaxMicroOpKind); });
    EXPECT_NE(what.find("magic"), std::string::npos) << what;
    std::remove(path.c_str());
}

TEST(CompiledTraceFormat, RejectsWrongVersion)
{
    const std::string path = scratchPath("version.ctc");
    writeCompiledTrace(path, compileMixed(epochConfig()));
    // Version lives at byte 8; bump it and refresh the header
    // checksum is deliberately NOT done — the version check fires
    // first and must name the version it saw.
    flipByte(path, 8);
    const std::string what = errorOf(
        [&] { MmapCompiledTrace mapped(path, kMaxMicroOpKind); });
    EXPECT_NE(what.find("version"), std::string::npos) << what;
    std::remove(path.c_str());
}

TEST(CompiledTraceFormat, RejectsFlippedHeaderChecksum)
{
    const std::string path = scratchPath("hsum.ctc");
    writeCompiledTrace(path, compileMixed(epochConfig()));
    flipByte(path, 96); // Header checksum field itself.
    const std::string what = errorOf(
        [&] { MmapCompiledTrace mapped(path, kMaxMicroOpKind); });
    EXPECT_NE(what.find("checksum"), std::string::npos) << what;
    std::remove(path.c_str());
}

TEST(CompiledTraceFormat, RejectsFlippedPayloadByte)
{
    const std::string path = scratchPath("psum.ctc");
    const CompiledTrace trace = compileMixed(epochConfig());
    writeCompiledTrace(path, trace);
    // Flip one byte mid-payload: the payload checksum must catch it
    // before any column is interpreted.
    const std::uint64_t payload_mid =
        128 + trace.view().micro_ops / 2;
    flipByte(path, payload_mid);
    const std::string what = errorOf(
        [&] { MmapCompiledTrace mapped(path, kMaxMicroOpKind); });
    EXPECT_NE(what.find("checksum"), std::string::npos) << what;
    std::remove(path.c_str());
}

TEST(CompiledTraceFormat, TruncationInsideHeaderNamesOffset)
{
    const std::string path = scratchPath("trunc_hdr.ctc");
    writeCompiledTrace(path, compileMixed(epochConfig()));
    truncateFile(path, 57);
    const std::string what = errorOf(
        [&] { MmapCompiledTrace mapped(path, kMaxMicroOpKind); });
    EXPECT_NE(what.find("byte 57"), std::string::npos) << what;
    EXPECT_NE(what.find("header"), std::string::npos) << what;
    std::remove(path.c_str());
}

TEST(CompiledTraceFormat, TruncationInsidePayloadNamesOffset)
{
    const std::string path = scratchPath("trunc_pay.ctc");
    writeCompiledTrace(path, compileMixed(epochConfig()));
    const std::uint64_t full =
        std::filesystem::file_size(path);
    const std::uint64_t cut = full - 100;
    truncateFile(path, cut);
    const std::string what = errorOf(
        [&] { MmapCompiledTrace mapped(path, kMaxMicroOpKind); });
    EXPECT_NE(what.find("byte " + std::to_string(cut)),
              std::string::npos)
        << what;
    std::remove(path.c_str());
}

TEST(CompiledTraceFormat, PackUnpackIsExact)
{
    const TimingConfig config = epochConfig();
    const CompiledTrace trace = compileMixed(config);
    const std::vector<std::uint8_t> packed =
        packCompiledTrace(trace.view());
    // Packed must actually compress the aligned layout.
    const std::string ctc = scratchPath("pack.ctc");
    writeCompiledTrace(ctc, trace);
    EXPECT_LT(packed.size(), std::filesystem::file_size(ctc));

    const CompiledTrace unpacked =
        unpackCompiledTrace(packed.data(), packed.size());
    const std::string ctc2 = scratchPath("pack2.ctc");
    writeCompiledTrace(ctc2, unpacked);
    // Byte-exact through the full pack -> unpack -> write chain.
    std::ifstream a(ctc, std::ios::binary), b(ctc2, std::ios::binary);
    const std::vector<char> ab((std::istreambuf_iterator<char>(a)),
                               std::istreambuf_iterator<char>());
    const std::vector<char> bb((std::istreambuf_iterator<char>(b)),
                               std::istreambuf_iterator<char>());
    EXPECT_EQ(ab, bb);
    std::remove(ctc.c_str());
    std::remove(ctc2.c_str());
}

TEST(CompiledTraceFormat, TruncatedPackedStreamNamesColumn)
{
    const CompiledTrace trace = compileMixed(epochConfig());
    std::vector<std::uint8_t> packed =
        packCompiledTrace(trace.view());
    packed.resize(packed.size() / 2);
    const std::string what = errorOf(
        [&] { unpackCompiledTrace(packed.data(), packed.size()); });
    EXPECT_FALSE(what.empty());
    EXPECT_NE(what.find("byte"), std::string::npos) << what;
}

// ---------------------------------------------------------------
// Trace reader truncation diagnostics (same loud-rejection contract).
// ---------------------------------------------------------------

TEST(TraceReaderErrors, StreamingTruncationNamesByteOffset)
{
    const std::vector<TraceEvent> events = loadGolden("mixed");
    const std::string path = scratchPath("trunc.trc");
    {
        TraceFileWriter writer(path);
        writer.onBatch(events.data(), events.size());
        writer.onFinish();
    }
    const std::uint64_t full = std::filesystem::file_size(path);
    const std::uint64_t cut = full - 7; // Mid-record.
    truncateFile(path, cut);

    // Header still reads fine (the reader checks size at open) —
    // so the size mismatch fires at construction, naming both sizes.
    const std::string open_what =
        errorOf([&] { TraceFileReader reader(path); });
    EXPECT_NE(open_what.find(std::to_string(cut)), std::string::npos)
        << open_what;

    // Slice below the header to hit the in-header truncation path.
    truncateFile(path, 9);
    const std::string hdr_what =
        errorOf([&] { TraceFileReader reader(path); });
    EXPECT_NE(hdr_what.find("byte 9"), std::string::npos) << hdr_what;
    EXPECT_NE(hdr_what.find("header"), std::string::npos) << hdr_what;

    const std::string mmap_what =
        errorOf([&] { MmapTraceReader reader(path); });
    EXPECT_NE(mmap_what.find("byte 9"), std::string::npos) << mmap_what;
    std::remove(path.c_str());
}

TEST(TraceReaderErrors, ReadPastShrunkenFileNamesRecord)
{
    // A file that shrinks after open (or lies in its header) must
    // fail the read loop with the record index and byte offset.
    const std::vector<TraceEvent> events = loadGolden("mixed");
    const std::string path = scratchPath("shrink.trc");
    {
        TraceFileWriter writer(path);
        writer.onBatch(events.data(), events.size());
        writer.onFinish();
    }
    TraceFileReader reader(path);
    TraceFileReader batch_reader(path);
    const std::uint64_t full = std::filesystem::file_size(path);
    truncateFile(path, full - 13);
    const std::string what = errorOf([&] {
        TraceEvent event;
        while (reader.readNext(event)) {
        }
    });
    EXPECT_NE(what.find("truncated trace file"), std::string::npos)
        << what;
    EXPECT_NE(what.find("byte"), std::string::npos) << what;
    EXPECT_NE(what.find("record"), std::string::npos) << what;

    std::vector<TraceEvent> buffer(events.size());
    const std::string batch_what = errorOf([&] {
        while (batch_reader.readBatch(buffer.data(), buffer.size()) >
               0) {
        }
    });
    EXPECT_NE(batch_what.find("truncated trace file"),
              std::string::npos)
        << batch_what;
    EXPECT_NE(batch_what.find("record"), std::string::npos)
        << batch_what;
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// Cache discipline: stale artifacts must recompile, never replay.
// ---------------------------------------------------------------

TEST(CompiledCache, HitsOnSecondLoadAndValidatesSourceHash)
{
    const std::vector<TraceEvent> events = loadGolden("cwl1");
    const TimingConfig config = epochConfig();
    const std::string cache = scratchPath("cache_hit");
    std::filesystem::remove_all(cache);

    bool hit = true;
    const CompiledTraceHandle cold = loadOrCompileTrace(
        events.data(), events.size(), config, cache, "cwl1", 1,
        nullptr, &hit);
    EXPECT_FALSE(hit);
    const CompiledTraceHandle warm = loadOrCompileTrace(
        events.data(), events.size(), config, cache, "cwl1", 1,
        nullptr, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(cold.view().source_hash, warm.view().source_hash);
    EXPECT_EQ(compiledReplay(warm.view(), config).critical_path,
              compiledReplay(cold.view(), config).critical_path);
    std::filesystem::remove_all(cache);
}

TEST(CompiledCache, StaleArtifactRecompilesUnderSameTag)
{
    // Same tag, different trace contents: the cached artifact's
    // source hash no longer matches, so the loader must recompile —
    // silently replaying the stale micro-ops would produce results
    // for the wrong trace.
    std::vector<TraceEvent> events = loadGolden("cwl1");
    const TimingConfig config = epochConfig();
    const std::string cache = scratchPath("cache_stale");
    std::filesystem::remove_all(cache);

    bool hit = true;
    (void)loadOrCompileTrace(events.data(), events.size(), config,
                             cache, "fixed-tag", 1, nullptr, &hit);
    EXPECT_FALSE(hit);

    // Mutate the trace; interpreted replay notices, the cache must
    // too.
    events[events.size() / 2].value ^= 0xdeadbeef;
    const CompiledTraceHandle handle = loadOrCompileTrace(
        events.data(), events.size(), config, cache, "fixed-tag", 1,
        nullptr, &hit);
    EXPECT_FALSE(hit) << "stale artifact served from cache";

    PersistTimingEngine engine(config);
    engine.onBatch(events.data(), events.size());
    engine.onFinish();
    const TimingResult want = engine.result();
    const TimingResult got = compiledReplay(handle.view(), config);
    EXPECT_EQ(want.critical_path, got.critical_path);
    EXPECT_EQ(want.persists, got.persists);
    std::filesystem::remove_all(cache);
}

TEST(CompiledCache, CorruptArtifactRecompilesInPlace)
{
    const std::vector<TraceEvent> events = loadGolden("cwl1");
    const TimingConfig config = epochConfig();
    const std::string cache = scratchPath("cache_corrupt");
    std::filesystem::remove_all(cache);

    bool hit = true;
    (void)loadOrCompileTrace(events.data(), events.size(), config,
                             cache, "t", 1, nullptr, &hit);
    // Corrupt the single cached artifact's payload.
    std::string artifact;
    for (const auto &entry :
         std::filesystem::directory_iterator(cache))
        artifact = entry.path().string();
    ASSERT_FALSE(artifact.empty());
    flipByte(artifact, 200);

    const CompiledTraceHandle handle = loadOrCompileTrace(
        events.data(), events.size(), config, cache, "t", 1, nullptr,
        &hit);
    EXPECT_FALSE(hit);
    // And the rewritten artifact is valid again.
    const CompiledTraceHandle again = loadOrCompileTrace(
        events.data(), events.size(), config, cache, "t", 1, nullptr,
        &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(compiledReplay(handle.view(), config).persists,
              compiledReplay(again.view(), config).persists);
    std::filesystem::remove_all(cache);
}

TEST(CompiledCache, WrongSpecFingerprintIsAHardError)
{
    const std::vector<TraceEvent> events = loadGolden("cwl1");
    const TimingConfig config = epochConfig();
    const CompiledTrace trace =
        compileTrace(events.data(), events.size(), config);
    TimingConfig other = config;
    other.model.atomic_granularity = 64; // Different compile spec.
    EXPECT_THROW((void)compiledReplay(trace.view(), other),
                 FatalError);
}

// ---------------------------------------------------------------
// Bit-identity: compiled == interpreted, everywhere.
// ---------------------------------------------------------------

/** observeReplay's twin through compile -> execute. */
GoldenObservation
observeCompiledReplay(const std::vector<TraceEvent> &events,
                      const TimingConfig &config, std::uint32_t jobs,
                      TaskPool *pool)
{
    const CompiledTrace trace =
        compileTrace(events.data(), events.size(), config, jobs, pool);
    CompiledReplayOptions options;
    options.jobs = jobs;
    options.pool = pool;
    PersistLog log;
    const TimingResult result =
        compiledReplay(trace.view(), config, options,
                       config.record_log ? &log : nullptr);
    GoldenObservation seen;
    seen.critical_path = result.critical_path;
    seen.persists = result.persists;
    seen.coalesced = result.coalesced;
    seen.window_blocked = result.window_blocked;
    seen.races = result.races;
    seen.barriers = result.barriers;
    seen.strands = result.strands;
    seen.ops = result.ops;
    seen.events = result.events;
    seen.log_hash = hashPersistLog(log);
    return seen;
}

void
expectSameObservation(const GoldenObservation &want,
                      const GoldenObservation &got,
                      const std::string &label)
{
    EXPECT_EQ(want.critical_path, got.critical_path) << label;
    EXPECT_EQ(want.persists, got.persists) << label;
    EXPECT_EQ(want.coalesced, got.coalesced) << label;
    EXPECT_EQ(want.window_blocked, got.window_blocked) << label;
    EXPECT_EQ(want.races, got.races) << label;
    EXPECT_EQ(want.barriers, got.barriers) << label;
    EXPECT_EQ(want.strands, got.strands) << label;
    EXPECT_EQ(want.ops, got.ops) << label;
    EXPECT_EQ(want.events, got.events) << label;
    EXPECT_EQ(want.log_hash, got.log_hash) << label;
}

TEST(CompiledReplayBitIdentity, GoldenFixturesFullConfigMatrix)
{
    // Every fixture under every frozen golden configuration — the
    // same surface the golden regression test pins, including the
    // order-sensitive persist-log hash (record_log forces the
    // generic path; the log must match record for record).
    for (const std::string &name : goldenFixtureNames()) {
        const std::vector<TraceEvent> events = loadGolden(name);
        InMemoryTrace trace;
        trace.onBatch(events.data(), events.size());
        trace.onFinish();
        for (const GoldenConfig &config : goldenConfigs()) {
            const GoldenObservation want =
                observeReplay(trace, config.timing);
            const GoldenObservation got = observeCompiledReplay(
                events, config.timing, 1, nullptr);
            expectSameObservation(want, got,
                                  name + "/" + config.name);
        }
    }
}

TEST(CompiledReplayBitIdentity, SyntheticAllModelsSerialAndJobs)
{
    SyntheticTraceConfig synth;
    synth.events = syntheticEvents();
    const InMemoryTrace trace = buildSyntheticTrace(synth);
    const std::vector<TraceEvent> events(trace.events().begin(),
                                         trace.events().end());

    struct Input
    {
        std::string name;
        TimingConfig config;
        std::size_t count; //!< Events replayed, from the front.
    };
    std::vector<Input> inputs;
    for (const ModelConfig &model :
         {ModelConfig::strict(), ModelConfig::epoch(),
          ModelConfig::strand(), ModelConfig::px86()}) {
        TimingConfig config;
        config.model = model;
        inputs.push_back({model.name(), config, events.size()});
    }
    // A recorded log under the stochastic clock: at jobs=4 this is
    // what exercises compiledReplay's parallel deferred-log
    // materialization, pinned by the order-sensitive log hash. Full
    // dependence sets grow quadratically with the trace, so this
    // input replays a prefix.
    TimingConfig logged;
    logged.model = ModelConfig::epoch();
    logged.clock = ClockMode::Stochastic;
    logged.seed = 42;
    logged.record_log = true;
    logged.record_deps = true;
    inputs.push_back({"epoch_stoch_deps", logged,
                      std::min<std::size_t>(events.size(), 2048)});

    TaskPool pool(4);
    for (const auto &[name, config, count] : inputs) {
        PersistTimingEngine engine(config);
        engine.onBatch(events.data(), count);
        engine.onFinish();
        const TimingResult want = engine.result();
        const std::uint64_t want_log = hashPersistLog(engine.takeLog());
        for (const std::uint32_t jobs : {1u, 4u}) {
            const CompiledTrace compiled = compileTrace(
                events.data(), count, config, jobs,
                jobs > 1 ? &pool : nullptr);
            CompiledReplayOptions options;
            options.jobs = jobs;
            options.pool = jobs > 1 ? &pool : nullptr;
            PersistLog log;
            const TimingResult got = compiledReplay(
                compiled.view(), config, options,
                config.record_log ? &log : nullptr);
            const std::string label = name + "/jobs" + std::to_string(jobs);
            EXPECT_EQ(want.critical_path, got.critical_path) << label;
            EXPECT_EQ(want.persists, got.persists) << label;
            EXPECT_EQ(want.coalesced, got.coalesced) << label;
            EXPECT_EQ(want.ops, got.ops) << label;
            EXPECT_EQ(want.events, got.events) << label;
            EXPECT_EQ(want.barriers, got.barriers) << label;
            EXPECT_EQ(want.strands, got.strands) << label;
            EXPECT_EQ(want.flushes, got.flushes) << label;
            EXPECT_EQ(want.fences, got.fences) << label;
            EXPECT_EQ(want.unflushed, got.unflushed) << label;
            EXPECT_EQ(want_log, hashPersistLog(log)) << label;
        }
    }
}

TEST(CompiledReplayBitIdentity, MappedArtifactMatchesInMemory)
{
    // The zero-copy mmap execution path must agree with the
    // freshly-compiled in-memory columns.
    const std::vector<TraceEvent> events = loadGolden("tlc2");
    for (const ModelConfig &model :
         {ModelConfig::strict(), ModelConfig::px86()}) {
        TimingConfig config;
        config.model = model;
        const CompiledTrace trace =
            compileTrace(events.data(), events.size(), config);
        const TimingResult want =
            compiledReplay(trace.view(), config);

        const std::string path = scratchPath(
            std::string("mapped_") + model.name() + ".ctc");
        writeCompiledTrace(path, trace);
        const CompiledTraceHandle handle =
            CompiledTraceHandle::fromFile(path);
        CompiledReplayStats stats;
        const TimingResult got = compiledReplay(
            handle.view(), config, {}, nullptr, &stats);
        EXPECT_EQ(want.critical_path, got.critical_path);
        EXPECT_EQ(want.persists, got.persists);
        EXPECT_EQ(want.coalesced, got.coalesced);
        EXPECT_EQ(stats.micro_ops, trace.view().micro_ops);
        std::remove(path.c_str());
    }
}

TEST(CompiledReplayBitIdentity, PackedRoundTripReplaysIdentically)
{
    const std::vector<TraceEvent> events = loadGolden("strand1");
    TimingConfig config;
    config.model = ModelConfig::strand();
    PersistTimingEngine engine(config);
    engine.onBatch(events.data(), events.size());
    engine.onFinish();
    const TimingResult want = engine.result();

    const CompiledTrace compiled =
        compileTrace(events.data(), events.size(), config);
    const std::vector<std::uint8_t> packed =
        packCompiledTrace(compiled.view());
    CompiledTrace unpacked =
        unpackCompiledTrace(packed.data(), packed.size());
    const CompiledTraceHandle handle =
        CompiledTraceHandle::fromMemory(std::move(unpacked));
    const TimingResult got = compiledReplay(handle.view(), config);
    EXPECT_EQ(want.critical_path, got.critical_path);
    EXPECT_EQ(want.persists, got.persists);
    EXPECT_EQ(want.coalesced, got.coalesced);
    EXPECT_EQ(want.strands, got.strands);
}

} // namespace
} // namespace persim::test
