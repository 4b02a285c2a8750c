/**
 * @file
 * Compiled-trace replay tests.
 *
 *  - bit-identity: compiledReplay must produce the same TimingResult
 *    (and, where recorded, the same persist-log hash) as interpreted
 *    replay for every golden fixture under the full frozen golden
 *    configuration matrix, and for the 1M synthetic bench trace
 *    under strict/epoch/strand/px86 plus a recorded-log stochastic
 *    epoch config at jobs in {1, 4};
 *  - the spec guard: a trace compiled under one compile spec must
 *    not replay under another.
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
#include "tests/persistency/golden_support.hh"

namespace persim::test {
namespace {

// The compiled sentinel must match the segment compiler's.
static_assert(compiled_no_slot == 0xffffffffu,
              "compiled_no_slot must match the engine's no-slot-hint");

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
    return readTraceFile(goldenDir() + "/" + name + ".trc").events();
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

} // namespace
} // namespace persim::test
