/**
 * @file
 * Figure 3: achievable insert rate (million inserts/s) vs. persist
 * latency, Copy While Locked with one thread, under strict / epoch /
 * strand persistency.
 *
 * Paper shape: all models execute at instruction rate for small
 * latencies (flat line at the top); each becomes persist-bound as
 * latency grows — strict at ~17 ns, epoch at ~119 ns, strand only in
 * the microsecond range — after which throughput decays as 1/latency.
 */

#include "bench/bench_common.hh"
#include "bench_util/table.hh"
#include "bench_util/throughput.hh"
#include "persistency/sweep.hh"
#include "queue/native_queue.hh"

using namespace persim;
using namespace persim::bench;

int
main(int argc, char **argv)
{
    const BenchOptions options = parseBenchOptions(argc, argv);
    banner("Figure 3: achievable rate vs. persist latency "
           "(Copy While Locked, 1 thread)",
           "break-even ~17 ns strict, ~119 ns epoch, >6 us strand; "
           "persist-bound decay is 1/latency");

    // Native-rate measurement is wall-clock sensitive: keep it serial
    // and alone on the machine, before any analysis threads start.
    const double native_rate = measureNativeInsertRate(
        QueueKind::CopyWhileLocked, 1, 400000, 100);

    struct Series
    {
        std::string name;
        AnnotationVariant variant;
        ModelConfig model;
        std::uint32_t window = 0;
        double critical_path = 0.0;
        std::uint64_t ops = 0;
        std::uint64_t events = 0;
        double wall_seconds = 0.0;
    };
    std::vector<Series> series{
        {"strict", AnnotationVariant::Conservative, ModelConfig::strict()},
        {"epoch", AnnotationVariant::Conservative, ModelConfig::epoch()},
        {"strand", AnnotationVariant::Strand, ModelConfig::strand()},
        // "strand/w64": strand persistency with a finite coalescing
        // window (a pending persist drains after 64 issued persists),
        // modeling bounded persist buffering instead of the
        // unbounded best case.
        {"strand/w64", AnnotationVariant::Strand, ModelConfig::strand(),
         64},
    };
    // --model rows analyze the conservative (epoch-annotated) trace;
    // px86 replays it through the canonical barrier->flush-all+sfence
    // compilation.
    for (const ModelConfig &model :
         extraModels(options, {"strict", "epoch", "strand"}))
        series.push_back(
            {model.name(), AnnotationVariant::Conservative, model});

    // Each series traces its own annotation variant, so the whole
    // simulate-and-analyze pipeline fans out per series. Tracing is
    // untimed; entry.wall_seconds measures the replay alone, so the
    // events/s column (and BENCH_replay.json) reports pure engine
    // throughput rather than simulate+analyze.
    Stopwatch analysis_watch;
    TaskPool pool(options.jobs);
    pool.parallelFor(series.size(), [&series](std::size_t i) {
        auto &entry = series[i];
        QueueWorkloadConfig config;
        config.kind = QueueKind::CopyWhileLocked;
        config.variant = entry.variant;
        config.threads = 1;
        config.inserts_per_thread = 20000;
        InMemoryTrace trace;
        const auto workload = runQueueWorkload(config, {&trace});
        TimingConfig timing = levels(entry.model);
        if (entry.window != 0)
            timing.coalesce_window = entry.window;
        Stopwatch watch;
        const TimingResult result = replayTrace(trace, timing);
        entry.wall_seconds = watch.seconds();
        entry.critical_path = result.critical_path;
        entry.ops = workload.inserts;
        entry.events = result.events;
    });
    const double analysis_wall = analysis_watch.seconds();

    std::cout << "\nnative instruction rate: " << formatRate(native_rate)
              << "\n\n";
    TextTable table;
    std::vector<std::string> header{"latency(ns)"};
    for (const auto &entry : series)
        header.push_back(entry.name + "(M/s)");
    table.header(header);
    // Log sweep, 10 ns .. 100 us, four points per decade.
    for (const double latency_ns : logLatencyGrid(10.0, 1e5, 4)) {
        std::vector<std::string> row{formatDouble(latency_ns, 1)};
        for (const auto &entry : series) {
            const auto throughput = makeThroughput(
                native_rate, entry.ops, entry.critical_path, latency_ns);
            row.push_back(
                formatDouble(throughput.achievable() / 1e6, 4));
        }
        table.row(row);
    }
    std::cout << table.render();

    std::cout << "\nbreak-even persist latency (instruction rate == "
              << "persist-bound rate):\n";
    for (const auto &entry : series) {
        const double breakeven_ns = breakEvenLatencyNs(
            entry.ops, entry.critical_path, native_rate);
        std::cout << "  " << entry.name << ": "
                  << formatDouble(breakeven_ns, 1) << " ns"
                  << "  (critical path/insert = "
                  << formatDouble(entry.critical_path /
                                  static_cast<double>(entry.ops), 4)
                  << ")\n";
    }

    TextTable timing;
    timing.header({"series", "events", "wall(s)", "events/s"});
    std::uint64_t events_analyzed = 0;
    BenchReport report;
    for (const auto &entry : series) {
        events_analyzed += entry.events;
        timing.row({entry.name, std::to_string(entry.events),
                    formatDouble(entry.wall_seconds, 4),
                    formatEventsPerSec(entry.events,
                                       entry.wall_seconds)});
        report.add(std::string("fig3/") + entry.name + "/replay",
                   entry.events, entry.wall_seconds);
    }
    std::cout << "\nPer-analysis wall time (replay only; tracing "
                 "untimed):\n"
              << timing.render() << "\n";
    reportAnalysisWall(series.size(), events_analyzed, analysis_wall,
                       options.jobs);
    writeBenchReport(report, options);
    return 0;
}
