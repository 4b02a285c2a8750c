/**
 * @file
 * Compiled-trace replay tests.
 *
 *  - bit-identity: compiledReplay must produce the same TimingResult
 *    as interpreted replay for every golden fixture under every
 *    fast-eligible frozen golden configuration, and for the 1M
 *    synthetic bench trace under strict/epoch/strand/px86;
 *  - dispatch: replayTrace must match a fresh PersistTimingEngine
 *    exactly on every golden fixture for strict/epoch/strand/bpfs/px86
 *    at three tracking/atomic granularity pairs, whichever path it
 *    takes;
 *  - the guards: a trace compiled under one granularity must not
 *    replay under another, a config the fast executor cannot run
 *    must fail loudly, naming why, and so must a thread id past the
 *    16-bit thread column;
 *  - the program a trace keeps: one compile serves strict, epoch,
 *    strand and px86 bit-identically to fresh engines, and appending,
 *    copying into and moving a trace drop or carry it as documented;
 *  - the compile itself: every column and fact equals a plain
 *    unordered_map + push_back compile (tests/support/
 *    compile_reference.hh) on the golden fixtures, on splitting
 *    accesses and on flushes of lines no access touches, at the
 *    shared t8/a64 program, px86 at 8-byte lines and strict at
 *    64-byte blocks.
 *
 * The trace reader's truncation diagnostics (byte-offset reporting)
 * are covered here too: a .trc file is the input compileTrace
 * consumes, and a short one must be rejected loudly.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util/synthetic_trace.hh"
#include "common/error.hh"
#include "memtrace/compiled_trace.hh"
#include "memtrace/event.hh"
#include "memtrace/trace_io.hh"
#include "persistency/compiled_replay.hh"
#include "tests/persistency/golden_support.hh"
#include "tests/support/compile_reference.hh"
#include "tests/support/trace_builder.hh"

namespace persim::test {
namespace {

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
    const InMemoryTrace trace =
        readTraceFile(goldenDir() + "/" + name + ".trc");
    return {trace.events().begin(), trace.events().end()};
}

/** Scratch path inside gtest's per-run temp directory. */
std::string
scratchPath(const std::string &name)
{
    return ::testing::TempDir() + "persim_reader_" + name;
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

TimingConfig
epochConfig()
{
    TimingConfig config;
    config.model = ModelConfig::epoch();
    return config;
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

    // The header still reads fine, so the size check rejects the file
    // before any record is read, naming the actual size.
    const std::string size_what = errorOf([&] { readTraceFile(path); });
    EXPECT_NE(size_what.find(std::to_string(cut)), std::string::npos)
        << size_what;

    // Slice below the header to hit the in-header truncation path.
    truncateFile(path, 9);
    const std::string hdr_what = errorOf([&] { readTraceFile(path); });
    EXPECT_NE(hdr_what.find("byte 9"), std::string::npos) << hdr_what;
    EXPECT_NE(hdr_what.find("header"), std::string::npos) << hdr_what;
    std::remove(path.c_str());
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
    // Fast-eligible, but compiled at 8 bytes, not 64.
    other.model.tracking_granularity = 64;
    ASSERT_TRUE(compiledFastEligible(other));
    const std::string what =
        errorOf([&] { (void)compiledReplay(trace.view(), other); });
    EXPECT_NE(what.find("different granularity"), std::string::npos)
        << what;
}

// A config the fast executor cannot run, handed to it directly, must
// fail loudly and say why, not fall back.
TEST(CompiledCache, IneligibleConfigFailsNamingTheReason)
{
    const std::vector<TraceEvent> events = loadGolden("cwl1");
    const CompiledTrace trace =
        compileTrace(events.data(), events.size(), epochConfig());

    // px86 with load-before-store tracking stays on the engine. The
    // preset's t8/a64 is the program's tracking and line granularity
    // (an epoch compile at 8 bytes carries the 64-byte line column).
    TimingConfig px86;
    px86.model = ModelConfig::px86();
    px86.model.detect_load_before_store = true;
    ASSERT_EQ(compiledSpecFingerprint(px86), trace.spec_fp);
    std::string what =
        errorOf([&] { (void)compiledReplay(trace.view(), px86); });
    EXPECT_NE(what.find("px86"), std::string::npos) << what;
    EXPECT_NE(what.find("not fast-eligible"), std::string::npos) << what;
    EXPECT_NE(what.find("load-before-store"), std::string::npos) << what;

    TimingConfig logged = epochConfig();
    logged.record_log = true;
    what = errorOf([&] { (void)compiledReplay(trace.view(), logged); });
    EXPECT_NE(what.find("record_log"), std::string::npos) << what;

    // compileTrace refuses them up front as well.
    what = errorOf(
        [&] { (void)compileTrace(events.data(), events.size(), px86); });
    EXPECT_NE(what.find("px86"), std::string::npos) << what;
}

// ---------------------------------------------------------------
// The compile against its plain reference.
// ---------------------------------------------------------------

/** The program shapes the oracle covers: the shared t8/a64 program
    (runtime shifts 3 and 6, the specialised body), px86 at 8-byte
    lines and strict at 64-byte blocks (no line column, general
    body). */
std::vector<TimingConfig>
oracleConfigs()
{
    TimingConfig shared;
    shared.model = ModelConfig::px86();
    TimingConfig px86_a8 = shared;
    px86_a8.model.atomic_granularity = 8;
    TimingConfig strict_64;
    strict_64.model = ModelConfig::strict();
    strict_64.model.tracking_granularity = 64;
    strict_64.model.atomic_granularity = 64;
    return {shared, px86_a8, strict_64};
}

void
expectCompileMatchesReference(std::span<const TraceEvent> events,
                              const std::string &what)
{
    for (const TimingConfig &config : oracleConfigs())
        expectSameProgram(
            compileTrace(events.data(), events.size(), config),
            referenceCompile(events.data(), events.size(), config),
            what + "/" + config.model.name() + "/a" +
                std::to_string(config.model.atomic_granularity));
}

TEST(CompileOracle, GoldenFixtures)
{
    for (const std::string &name : goldenFixtureNames()) {
        const std::vector<TraceEvent> events = loadGolden(name);
        expectCompileMatchesReference(events, name);
    }
}

TEST(CompileOracle, SplitsAndFlushesOfUntouchedLines)
{
    // Unaligned accesses of every size that cross a word (and, at the
    // end of a line, a line and an index page), interleaved with
    // flushes of lines that no access touches, barriers, fences,
    // strands and op markers on three threads.
    test::TraceBuilder builder;
    const Addr page_end = persistent_base + 64 * 8 - 8; // Last word of a page.
    for (unsigned size = 1; size <= 8; ++size) {
        const ThreadId tid = size % 3;
        builder.opBegin(tid, size);
        builder.store(tid, persistent_base + 8 * size + 8 - size / 2 - 1,
                      size, size);
        builder.load(tid, page_end + 8 - size / 2 - 1, size);
        builder.rmw(tid, volatile_base + 61 + size, size, size);
        builder.clwb(tid, persistent_base + 4096 * size); // Untouched.
        builder.clflush(tid, page_end);
        builder.store(tid, page_end + 5, size, size);
        builder.clflushopt(tid, page_end + 8);
        builder.sfence(tid);
        builder.barrier(tid);
        builder.strand(tid);
        builder.opEnd(tid, size);
    }
    const InMemoryTrace &trace = builder.trace();
    expectCompileMatchesReference(trace.events(), "splits");

    // The splits really happened: more pieces than accesses.
    const CompiledTrace program = compileTrace(
        trace.events().data(), trace.size(), oracleConfigs()[0]);
    std::uint64_t accesses = 0, pieces = 0;
    for (const TraceEvent &event : trace.events())
        accesses += event.isAccess() ? 1 : 0;
    for (std::size_t r = 0; r < program.run_kind.size(); ++r)
        if (program.run_kind[r] ==
            static_cast<std::uint8_t>(CompiledOp::Piece))
            pieces += program.run_len[r];
    EXPECT_GT(pieces, accesses);
}

// ---------------------------------------------------------------
// Bit-identity: compiled == interpreted, everywhere.
// ---------------------------------------------------------------

/** observeReplay's twin through compile -> execute. */
GoldenObservation
observeCompiledReplay(const std::vector<TraceEvent> &events,
                      const TimingConfig &config)
{
    const CompiledTrace trace =
        compileTrace(events.data(), events.size(), config);
    const TimingResult result = compiledReplay(trace.view(), config);
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
    seen.log_hash = hashPersistLog(PersistLog{});
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
    // Every fixture under every frozen golden configuration that the
    // fast executor runs once its persist log is off — the same
    // surface the golden regression test pins. The rest replay only
    // through the engine.
    std::size_t compared = 0;
    for (const std::string &name : goldenFixtureNames()) {
        const std::vector<TraceEvent> events = loadGolden(name);
        InMemoryTrace trace;
        trace.onBatch(events.data(), events.size());
        trace.onFinish();
        for (const GoldenConfig &config : goldenConfigs()) {
            TimingConfig timing = config.timing;
            timing.record_log = false;
            if (!compiledFastEligible(timing))
                continue;
            const GoldenObservation want = observeReplay(trace, timing);
            const GoldenObservation got =
                observeCompiledReplay(events, timing);
            expectSameObservation(want, got,
                                  name + "/" + config.name);
            ++compared;
        }
    }
    EXPECT_GT(compared, 0u);
}

/** Every TimingResult field equal, the critical path bit-exactly. */
void
expectSameResult(const TimingResult &want, const TimingResult &got,
                 const std::string &label)
{
    EXPECT_EQ(want.critical_path, got.critical_path) << label;
    EXPECT_EQ(want.persists, got.persists) << label;
    EXPECT_EQ(want.coalesced, got.coalesced) << label;
    EXPECT_EQ(want.window_blocked, got.window_blocked) << label;
    EXPECT_EQ(want.races, got.races) << label;
    EXPECT_EQ(want.dirty_reads, got.dirty_reads) << label;
    EXPECT_EQ(want.ops, got.ops) << label;
    EXPECT_EQ(want.events, got.events) << label;
    EXPECT_EQ(want.barriers, got.barriers) << label;
    EXPECT_EQ(want.strands, got.strands) << label;
    EXPECT_EQ(want.flushes, got.flushes) << label;
    EXPECT_EQ(want.fences, got.fences) << label;
    EXPECT_EQ(want.unflushed, got.unflushed) << label;
}

// The dispatch oracle: whichever path replayTrace picks (compiled for
// strict/epoch/strand at unified granularity and for px86 at 8-byte
// tracking, the engine otherwise), its answer is a fresh engine's,
// field for field.
TEST(ReplayTrace, MatchesEngineOnGoldenFixtures)
{
    const std::pair<std::uint64_t, std::uint64_t> grans[] = {
        {8, 8}, {64, 64}, {8, 64}}; // {tracking, atomic}
    std::size_t fast = 0;
    for (const std::string &name : goldenFixtureNames()) {
        const InMemoryTrace trace =
            readTraceFile(goldenDir() + "/" + name + ".trc");
        for (const ModelConfig &model :
             {ModelConfig::strict(), ModelConfig::epoch(),
              ModelConfig::strand(), ModelConfig::bpfs(),
              ModelConfig::px86()}) {
            for (const auto &[tracking, atomic] : grans) {
                TimingConfig config;
                config.model = model;
                config.model.tracking_granularity = tracking;
                config.model.atomic_granularity = atomic;
                PersistTimingEngine engine(config);
                trace.replay(engine);
                expectSameResult(engine.result(),
                                 replayTrace(trace, config),
                                 name + "/" + model.name() + "/t" +
                                     std::to_string(tracking) + "a" +
                                     std::to_string(atomic));
                fast += compiledFastEligible(config) ? 1 : 0;
            }
        }
    }
    // strict/epoch/strand at 8/8 and 64/64, px86 at 8/8 and 8/64, on
    // every fixture.
    EXPECT_EQ(fast, goldenFixtureNames().size() * (3 * 2 + 2));
}

TEST(CompiledReplayBitIdentity, SyntheticFastModels)
{
    SyntheticTraceConfig synth;
    synth.events = syntheticEvents();
    const InMemoryTrace trace = buildSyntheticTrace(synth);
    const std::span<const TraceEvent> events = trace.events();
    for (const ModelConfig &model :
         {ModelConfig::strict(), ModelConfig::epoch(),
          ModelConfig::strand(), ModelConfig::px86()}) {
        TimingConfig config;
        config.model = model;
        PersistTimingEngine engine(config);
        engine.onBatch(events.data(), events.size());
        engine.onFinish();
        const CompiledTrace compiled =
            compileTrace(events.data(), events.size(), config);
        expectSameResult(engine.result(),
                         compiledReplay(compiled.view(), config),
                         model.name());
    }
}

// ---------------------------------------------------------------
// The program a trace keeps (InMemoryTrace::program).
// ---------------------------------------------------------------

TimingConfig
presetConfig(const ModelConfig &model)
{
    TimingConfig config;
    config.model = model;
    return config;
}

TimingResult
engineResult(const InMemoryTrace &trace, const TimingConfig &config)
{
    PersistTimingEngine engine(config);
    trace.replay(engine);
    return engine.result();
}

// One trace replayed strict -> px86 -> strict -> epoch -> strand: each
// answer is a fresh engine's, field for field, and the five replays
// share the one program the first compiled.
TEST(TraceProgram, ModelSequenceMatchesFreshEnginesOnOneCompile)
{
    const ModelConfig sequence[] = {
        ModelConfig::strict(), ModelConfig::px86(),
        ModelConfig::strict(), ModelConfig::epoch(),
        ModelConfig::strand()};
    for (const std::string &name : goldenFixtureNames()) {
        const InMemoryTrace trace =
            readTraceFile(goldenDir() + "/" + name + ".trc");
        ASSERT_EQ(trace.program(), nullptr) << name;
        std::shared_ptr<const CompiledTrace> first;
        for (const ModelConfig &model : sequence) {
            const TimingConfig config = presetConfig(model);
            expectSameResult(engineResult(trace, config),
                             replayTrace(trace, config),
                             name + "/" + model.name());
            if (!first)
                first = trace.program();
            EXPECT_EQ(trace.program(), first) << name << "/"
                                              << model.name();
        }
        ASSERT_NE(first, nullptr);
        EXPECT_EQ(first->spec_fp,
                  compiledSpecFingerprint(presetConfig(ModelConfig::px86())));
        EXPECT_EQ(first->events, trace.size());
    }
}

TEST(TraceProgram, AppendingDropsTheProgram)
{
    InMemoryTrace trace = readTraceFile(goldenDir() + "/mixed.trc");
    const std::vector<TraceEvent> tail(trace.events().begin(),
                                       trace.events().begin() + 16);
    const TimingConfig epoch = presetConfig(ModelConfig::epoch());
    (void)replayTrace(trace, epoch);
    ASSERT_NE(trace.program(), nullptr);

    trace.onEvent(tail[0]);
    EXPECT_EQ(trace.program(), nullptr);
    expectSameResult(engineResult(trace, epoch), replayTrace(trace, epoch),
                     "after onEvent");
    ASSERT_NE(trace.program(), nullptr);
    EXPECT_EQ(trace.program()->events, trace.size());

    trace.onBatch(tail.data() + 1, tail.size() - 1);
    EXPECT_EQ(trace.program(), nullptr);
    const TimingConfig px86 = presetConfig(ModelConfig::px86());
    expectSameResult(engineResult(trace, px86), replayTrace(trace, px86),
                     "after onBatch");
    EXPECT_EQ(trace.program()->events, trace.size());

    // Reserving room appends nothing, so the program stays.
    const auto kept = trace.program();
    trace.reserve(trace.size() * 2);
    EXPECT_EQ(trace.program(), kept);
}

TEST(TraceProgram, CopyAssignDropsItAndMoveKeepsIt)
{
    const InMemoryTrace source = readTraceFile(goldenDir() + "/tlc2.trc");
    const TimingConfig strict = presetConfig(ModelConfig::strict());
    InMemoryTrace a = source;
    EXPECT_EQ(a.program(), nullptr); // A copy starts without one.
    (void)replayTrace(a, strict);
    const std::shared_ptr<const CompiledTrace> program = a.program();
    ASSERT_NE(program, nullptr);

    // Copy construction and copy assignment leave the program with
    // the source; the target's own program is dropped.
    InMemoryTrace b = a;
    EXPECT_EQ(b.program(), nullptr);
    EXPECT_EQ(a.program(), program);
    (void)replayTrace(b, strict);
    ASSERT_NE(b.program(), nullptr);
    b = source;
    EXPECT_EQ(b.program(), nullptr);

    // A move carries it; the moved-from trace has none.
    InMemoryTrace c = std::move(a);
    EXPECT_EQ(c.program(), program);
    EXPECT_EQ(a.program(), nullptr);
    InMemoryTrace d;
    d = std::move(c);
    EXPECT_EQ(d.program(), program);
    EXPECT_EQ(c.program(), nullptr);
    expectSameResult(engineResult(source, strict), replayTrace(d, strict),
                     "moved");
    EXPECT_EQ(d.program(), program); // Reused, not recompiled.
}

// A flush of a line no access touches interns only a line under the
// shared program (its line column is on), but a tracking slot under a
// compile without a line column: the slot numbering differs, and every
// model must still match the engine.
TEST(TraceProgram, FlushOfAnUntouchedLineKeepsEveryModelExact)
{
    const Addr untouched = test::paddr(64); // Line 8: no access.
    test::TraceBuilder builder;
    builder.clwb(0, untouched);
    builder.store(0, test::paddr(0), 1);
    builder.store(1, test::paddr(1), 2);
    builder.load(1, test::paddr(0));
    builder.clflushopt(0, test::paddr(0));
    builder.sfence(0);
    builder.store(0, test::paddr(16), 3);
    builder.barrier(0);
    builder.clflush(1, untouched);
    builder.store(1, test::paddr(0), 4);
    builder.barrier(1);
    const InMemoryTrace &trace = builder.trace();

    for (const ModelConfig &model :
         {ModelConfig::strict(), ModelConfig::epoch(),
          ModelConfig::strand(), ModelConfig::px86()}) {
        const TimingConfig config = presetConfig(model);
        expectSameResult(engineResult(trace, config),
                         replayTrace(trace, config), model.name());
    }
    const auto shared = trace.program();
    ASSERT_NE(shared, nullptr);
    EXPECT_EQ(shared->track_slots, 3u); // paddr 0, 1 and 16.
    EXPECT_EQ(shared->lines, 3u);       // Lines 8, 0 and 2.

    // px86 at 8-byte lines has no line column: its flushes take
    // tracking slots, one more than the shared program has.
    TimingConfig narrow = presetConfig(ModelConfig::px86());
    narrow.model.atomic_granularity = 8;
    const CompiledTrace own = compileTrace(trace.events().data(),
                                           trace.size(), narrow);
    EXPECT_EQ(own.track_slots, shared->track_slots + 1);
    EXPECT_TRUE(own.line.empty());
    expectSameResult(engineResult(trace, narrow), replayTrace(trace, narrow),
                     "px86-a8");
    // The SC models still reuse whichever 8-byte program is kept.
    const TimingConfig strand = presetConfig(ModelConfig::strand());
    const auto kept = trace.program();
    expectSameResult(engineResult(trace, strand), replayTrace(trace, strand),
                     "strand after px86-a8");
    EXPECT_EQ(trace.program(), kept);
}

// The thread column is 16-bit: ids up to 65,535 compile and match the
// engine; 65,536 and beyond are refused, naming the column. The ids
// are hand-built into events; no thread is started.
TEST(TraceProgram, ThreadIdPastTheColumnIsRefused)
{
    const TimingConfig epoch = presetConfig(ModelConfig::epoch());
    {
        test::TraceBuilder builder;
        builder.store(0, test::paddr(0), 1);
        builder.store(65535, test::paddr(0), 2);
        builder.barrier(65535);
        builder.store(65535, test::paddr(1), 3);
        const InMemoryTrace &trace = builder.trace();
        expectSameResult(engineResult(trace, epoch),
                         replayTrace(trace, epoch), "tid 65535");
        EXPECT_EQ(trace.program()->thread_count, 65536u);
    }
    for (const ThreadId tid : {ThreadId{65536}, ThreadId{0xffffffffu}}) {
        test::TraceBuilder builder;
        builder.store(0, test::paddr(0), 1);
        builder.store(tid, test::paddr(1), 2);
        const InMemoryTrace &trace = builder.trace();
        const std::string what = errorOf([&] {
            (void)compileTrace(trace.events().data(), trace.size(), epoch);
        });
        EXPECT_NE(what.find("thread id " + std::to_string(tid)),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("16-bit thread column"), std::string::npos)
            << what;
        EXPECT_THROW((void)replayTrace(trace, epoch), FatalError);
        EXPECT_EQ(trace.program(), nullptr);
    }
}

} // namespace
} // namespace persim::test
