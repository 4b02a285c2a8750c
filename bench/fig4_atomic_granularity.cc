/**
 * @file
 * Figure 4: persist ordering critical path per insert vs. atomic
 * persist granularity (8..256 bytes), Copy While Locked, one thread.
 *
 * Paper shape: at 8-byte persists, strict persistency's path is far
 * above epoch persistency's; as atomic persists grow, adjacent data
 * persists coalesce and strict steadily falls until it matches epoch
 * at 256 bytes. Epoch persistency is flat (its data persists are
 * already concurrent).
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
    banner("Figure 4: critical path per insert vs. atomic persist "
           "granularity (Copy While Locked, 1 thread)",
           "strict falls with larger atomic persists and meets epoch "
           "at 256 B; epoch is unchanged");

    QueueWorkloadConfig config;
    config.kind = QueueKind::CopyWhileLocked;
    config.variant = AnnotationVariant::Conservative;
    config.threads = 1;
    config.inserts_per_thread = 20000;

    const std::vector<std::uint64_t> grans{8, 16, 32, 64, 128, 256};
    std::vector<ModelConfig> models{ModelConfig::strict(),
                                    ModelConfig::epoch()};
    // --model rows ride the same sweep; their points land in the
    // timing table and the fig4/<model>/aN report keys. The paper
    // table above stays the strict-vs-epoch comparison.
    for (const ModelConfig &model :
         extraModels(options, {"strict", "epoch"}))
        models.push_back(model);
    SweepOptions sweep;
    sweep.jobs = options.jobs;

    // One trace, 12 analyses (2 models x 6 granularities).
    InMemoryTrace trace;
    runQueueWorkload(config, {&trace});
    Stopwatch watch;
    const std::vector<SweepSeries> series = granularitySweep(
        trace, models, grans, GranularityKnob::AtomicPersist, sweep);
    const double analysis_wall = watch.seconds();
    const SweepSeries &strict = series[0];
    const SweepSeries &epoch = series[1];

    TextTable table;
    table.header({"atomic persist (B)", "strict cp/insert",
                  "epoch cp/insert", "strict coalesced%",
                  "epoch coalesced%"});
    for (std::size_t i = 0; i < grans.size(); ++i) {
        const TimingResult &s = strict.points[i].result;
        const TimingResult &e = epoch.points[i].result;
        table.row({
            std::to_string(grans[i]),
            formatDouble(s.criticalPathPerOp(), 3),
            formatDouble(e.criticalPathPerOp(), 3),
            formatDouble(100.0 * static_cast<double>(s.coalesced) /
                         static_cast<double>(s.persists), 1),
            formatDouble(100.0 * static_cast<double>(e.coalesced) /
                         static_cast<double>(e.persists), 1),
        });
    }
    std::cout << "\n" << table.render();

    TextTable timing;
    timing.header({"model", "gran(B)", "wall(s)", "events/s"});
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
            report.add("fig4/" + entry.model.name() + "/a" +
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
