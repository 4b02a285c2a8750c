/**
 * @file
 * Shared helpers for the experiment-reproduction benches.
 *
 * Every binary in bench/ regenerates one table or figure of the
 * paper's evaluation (Section 8) and prints (a) what the paper
 * reports, (b) what this run measured, in a shape that EXPERIMENTS.md
 * can quote directly.
 */

#ifndef PERSIM_BENCH_BENCH_COMMON_HH
#define PERSIM_BENCH_BENCH_COMMON_HH

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "bench_util/bench_report.hh"
#include "bench_util/queue_workload.hh"
#include "common/task_pool.hh"
#include "persistency/compiled_replay.hh"
#include "persistency/timing_engine.hh"

namespace persim::bench {

/** The paper's headline persist latency (500 ns, Section 8.1). */
constexpr double paper_latency_ns = 500.0;

/** Flags common to the sweep/analysis benches. */
struct BenchOptions
{
    /** Analysis parallelism: 1 = serial baseline, 0 = hardware. */
    std::uint32_t jobs = 1;

    /** Write machine-readable replay samples here (empty = don't). */
    std::string json_path;

    /**
     * Extra persistency models (--model=NAME, repeatable) to analyze
     * on top of the bench's built-in set; see modelByName() for the
     * accepted names. Duplicates of built-in rows are skipped by the
     * benches.
     */
    std::vector<std::string> models;
};

/**
 * Parse @p text as the value of the numeric flag @p flag: plain
 * digits (and, for a floating-point T, a fraction or exponent), no
 * sign, no trailing characters, in range for T and finite. Anything
 * else exits 2 with a message naming the flag — a bad value must not
 * abort with an uncaught exception or wrap to a huge count.
 */
template <typename T>
T
parseFlagNumber(const char *flag, const std::string &text)
{
    T value{};
    const char *first = text.data();
    const char *last = first + text.size();
    const bool has_sign =
        !text.empty() && (text[0] == '-' || text[0] == '+');
    const auto [end, ec] = std::from_chars(first, last, value);
    bool ok = !text.empty() && !has_sign && ec == std::errc() &&
        end == last;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(value);
    if (!ok) {
        std::cerr << "bad value for " << flag << ": '" << text
                  << "' (expected a non-negative number in range)\n";
        std::exit(2);
    }
    return value;
}

/**
 * Parse the shared bench flags (--jobs=N, --json=PATH, --model=NAME);
 * exits 2 with usage on anything unrecognized and with a message on a
 * bad numeric value.
 */
inline BenchOptions
parseBenchOptions(int argc, char **argv)
{
    BenchOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&arg](const char *name) -> std::string {
            const std::string prefix = std::string(name) + "=";
            return arg.rfind(prefix, 0) == 0 ? arg.substr(prefix.size())
                                             : std::string();
        };
        if (!value("--jobs").empty()) {
            options.jobs =
                parseFlagNumber<std::uint32_t>("--jobs", value("--jobs"));
        } else if (!value("--json").empty()) {
            options.json_path = value("--json");
        } else if (!value("--model").empty()) {
            options.models.push_back(value("--model"));
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--jobs=N] [--json=PATH]"
                         " [--model=NAME]...\n"
                      << "  --jobs=N    analysis worker threads "
                         "(1 = serial baseline, 0 = hardware)\n"
                      << "  --json=PATH write BENCH_replay.json-style "
                         "replay samples\n"
                      << "  --model=NAME add a persistency model "
                         "(strict|epoch|strand|bpfs|px86) to the "
                         "analysis set; repeatable\n";
            std::exit(2);
        }
    }
    return options;
}

/** Look up a ModelConfig preset by its CLI name; exits on unknown. */
inline ModelConfig
modelByName(const std::string &name)
{
    if (name == "strict")
        return ModelConfig::strict();
    if (name == "epoch")
        return ModelConfig::epoch();
    if (name == "strand")
        return ModelConfig::strand();
    if (name == "bpfs")
        return ModelConfig::bpfs();
    if (name == "px86")
        return ModelConfig::px86();
    std::cerr << "unknown --model: " << name
              << " (expected strict|epoch|strand|bpfs|px86)\n";
    std::exit(2);
}

/**
 * The ModelConfigs the --model flags name, minus any whose name() is
 * already in the bench's built-in set @p have.
 */
inline std::vector<ModelConfig>
extraModels(const BenchOptions &options,
            const std::vector<std::string> &have = {})
{
    std::vector<ModelConfig> extra;
    for (const std::string &name : options.models) {
        const ModelConfig model = modelByName(name);
        bool known = false;
        for (const std::string &existing : have)
            known = known || existing == model.name();
        for (const ModelConfig &picked : extra)
            known = known || picked.name() == model.name();
        if (!known)
            extra.push_back(model);
    }
    return extra;
}

/** Effective worker count a jobs flag resolves to. */
inline std::uint32_t
effectiveJobs(std::uint32_t jobs)
{
    return jobs == 0 ? TaskPool::defaultWorkers() : jobs;
}

/**
 * replayTrace(@p trace, @p config); @p options and @p pool are not
 * used. Benches call replayTrace directly; this wrapper stays only
 * because perfbench/driver.cc calls it, and retiring it there is a
 * change to the benchmark.
 */
inline TimingResult
replayForOptions(const InMemoryTrace &trace, const TimingConfig &config,
                 const BenchOptions & /*options*/, TaskPool & /*pool*/)
{
    return replayTrace(trace, config);
}

/** Wall-clock stopwatch for per-analysis timing. */
class Stopwatch
{
  public:
    Stopwatch() : start_(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** "12.3 M" style count formatting for events/sec reporting. */
inline std::string
formatEventsPerSec(std::uint64_t events, double seconds)
{
    if (seconds <= 0.0)
        return "-";
    const double rate = static_cast<double>(events) / seconds;
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.2f M/s", rate / 1e6);
    return buffer;
}

/**
 * One-line analysis summary quoted by EXPERIMENTS.md: total configs,
 * events consumed across all analyses, wall time, aggregate events/s,
 * and the parallelism it ran at.
 */
inline void
reportAnalysisWall(std::size_t configs, std::uint64_t events_analyzed,
                   double wall_seconds, std::uint32_t jobs)
{
    std::cout << "analysis: " << configs << " configs, "
              << events_analyzed << " events analyzed in "
              << wall_seconds << " s wall ("
              << formatEventsPerSec(events_analyzed, wall_seconds)
              << ", --jobs=" << effectiveJobs(jobs) << ")\n";
}

/**
 * Write the bench's replay samples if --json=PATH was given; a bench
 * that measured nothing writes nothing.
 */
inline void
writeBenchReport(const BenchReport &report, const BenchOptions &options)
{
    if (options.json_path.empty() || report.empty())
        return;
    report.writeJson(options.json_path);
    std::cout << "bench report: " << report.size() << " samples -> "
              << options.json_path << "\n";
}

/** Print a banner naming the experiment. */
inline void
banner(const std::string &title, const std::string &paper_claim)
{
    std::cout << "==========================================================="
              << "=====\n" << title << "\n"
              << "Paper: " << paper_claim << "\n"
              << "==========================================================="
              << "=====\n";
}

/** Run one queue workload into a set of timing engines (fanout). */
inline QueueWorkloadResult
runInto(const QueueWorkloadConfig &config,
        std::vector<PersistTimingEngine *> engines)
{
    std::vector<TraceSink *> sinks;
    for (auto *engine : engines)
        sinks.push_back(engine);
    return runQueueWorkload(config, sinks);
}

/** Level-clock engine for a model. */
inline TimingConfig
levels(const ModelConfig &model)
{
    TimingConfig config;
    config.model = model;
    return config;
}

} // namespace persim::bench

#endif // PERSIM_BENCH_BENCH_COMMON_HH
