/**
 * @file
 * Figure 5: persist ordering critical path per insert vs. dependence
 * tracking granularity (8..256 bytes), Copy While Locked, one thread.
 *
 * Paper shape: with fine tracking, epoch persistency's path is far
 * below strict's; as tracking coarsens, persistent false sharing
 * reintroduces the constraints epoch persistency removed and the two
 * converge by 256 bytes. Strict persistency is insensitive (its
 * persists are already serialized).
 *
 * The 12 analyses run through granularitySweep, one replayTrace call
 * per config (compiled where the config allows it, the engine
 * otherwise): in turn by default, one config per task with --jobs=N.
 */

#include "bench/bench_common.hh"
#include "bench_util/table.hh"
#include "persistency/sweep.hh"

using namespace persim;
using namespace persim::bench;

int
main(int argc, char **argv)
{
    const BenchOptions options = parseBenchOptions(argc, argv);
    banner("Figure 5: critical path per insert vs. dependence tracking "
           "granularity (Copy While Locked, 1 thread)",
           "epoch rises with coarser tracking (persistent false "
           "sharing) toward strict; strict stays flat");

    QueueWorkloadConfig config;
    config.kind = QueueKind::CopyWhileLocked;
    config.variant = AnnotationVariant::Conservative;
    config.threads = 1;
    config.inserts_per_thread = 20000;

    const std::vector<std::uint64_t> grans{8, 16, 32, 64, 128, 256};
    std::vector<ModelConfig> models{ModelConfig::strict(),
                                    ModelConfig::epoch()};
    // --model rows ride the same sweep; their points land in the
    // timing table and the fig5/<model>/tN report keys.
    for (const ModelConfig &model :
         extraModels(options, {"strict", "epoch"}))
        models.push_back(model);
    SweepOptions sweep;
    sweep.jobs = options.jobs;

    InMemoryTrace trace;
    runQueueWorkload(config, {&trace});
    Stopwatch watch;
    const std::vector<SweepSeries> series = granularitySweep(
        trace, models, grans, GranularityKnob::Tracking, sweep);
    const double analysis_wall = watch.seconds();
    const SweepSeries &strict = series[0];
    const SweepSeries &epoch = series[1];

    TextTable table;
    table.header({"tracking (B)", "strict cp/insert", "epoch cp/insert",
                  "epoch/strict"});
    for (std::size_t i = 0; i < grans.size(); ++i) {
        const TimingResult &s = strict.points[i].result;
        const TimingResult &e = epoch.points[i].result;
        table.row({
            std::to_string(grans[i]),
            formatDouble(s.criticalPathPerOp(), 3),
            formatDouble(e.criticalPathPerOp(), 3),
            formatDouble(e.critical_path / s.critical_path, 3),
        });
    }
    std::cout << "\n" << table.render();

    TextTable timing;
    timing.header({"model", "tracking(B)", "wall(s)", "events/s"});
    std::uint64_t events_analyzed = 0;
    BenchReport report;
    for (const SweepSeries &entry : series) {
        for (const SweepPoint &point : entry.points) {
            events_analyzed += point.result.events;
            timing.row({entry.model.name(),
                        std::to_string(point.value),
                        formatDouble(point.wall_seconds, 4),
                        formatEventsPerSec(point.result.events,
                                           point.wall_seconds)});
            report.add("fig5/" + entry.model.name() + "/t" +
                           std::to_string(point.value),
                       point.result.events, point.wall_seconds);
        }
    }
    std::cout << "\nPer-analysis wall time:\n" << timing.render() << "\n";
    reportAnalysisWall(grans.size() * models.size(), events_analyzed,
                       analysis_wall, options.jobs);
    writeBenchReport(report, options);
    return 0;
}
