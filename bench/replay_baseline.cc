/**
 * @file
 * Replay-throughput baseline: the canonical producer of
 * BENCH_replay.json (the committed copy lives at the repo root).
 *
 * Replays two traces through the timing engine and records pure
 * replay throughput per model:
 *
 *  - "synthetic": a seeded random 1M-event mixed trace built directly
 *    (no execution engine), the same trace the ctest `perf` smoke
 *    test replays against the committed baseline;
 *  - "cwl1": the Copy While Locked single-thread queue workload the
 *    fig3/fig4/fig5 sweeps analyze.
 *
 * Besides the interpreted engine rows ("replay/<trace>/<model>"),
 * each model the compiled fast path runs (all four presets) is
 * also executed through it ("replay/<trace>/<model>/compiled": the
 * trace is compiled outside the timer, the row measures pure column
 * execution), so the committed baseline records the compiled speedup
 * on the baseline machine alongside the engine numbers.
 *
 * Each sample is the best of five replays (the minimum wall time is
 * the least noise-polluted estimate of achievable throughput). Run
 * with --json=BENCH_replay.json to refresh the committed baseline;
 * EXPERIMENTS.md documents the procedure.
 */

#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "bench_util/synthetic_trace.hh"
#include "bench_util/table.hh"

using namespace persim;
using namespace persim::bench;

namespace {

constexpr int replay_reps = 5;

/** Best-of-N serial replay of @p events; returns seconds. */
double
timedReplay(const TraceEvent *events, std::size_t count,
            const TimingConfig &timing)
{
    double best = 0.0;
    for (int rep = 0; rep < replay_reps; ++rep) {
        PersistTimingEngine engine(timing);
        Stopwatch watch;
        engine.onBatch(events, count);
        engine.onFinish();
        const double wall = watch.seconds();
        if (rep == 0 || wall < best)
            best = wall;
    }
    return best;
}

/** Best-of-N compiled-path execution (compiled outside the timer). */
double
timedCompiledReplay(const CompiledTraceView &view,
                    const TimingConfig &timing)
{
    double best = 0.0;
    for (int rep = 0; rep < replay_reps; ++rep) {
        Stopwatch watch;
        (void)compiledReplay(view, timing);
        const double wall = watch.seconds();
        if (rep == 0 || wall < best)
            best = wall;
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions options = parseBenchOptions(argc, argv);
    if (options.json_path.empty())
        options.json_path = "BENCH_replay.json";
    banner("Replay baseline: pure timing-engine throughput "
           "(best of 5 replays per model and replay path)",
           "establishes the BENCH_replay.json perf trajectory the "
           "ctest perf smoke test regresses against");

    struct Model
    {
        const char *name;
        ModelConfig model;
    };
    const std::vector<Model> model_list{
        {"strict", ModelConfig::strict()},
        {"epoch", ModelConfig::epoch()},
        {"strand", ModelConfig::strand()},
        // Px86 replays the same barrier-annotated traces through the
        // operational flush/fence model (canonical epoch->x86
        // compilation), so the committed baseline tracks the
        // dirty-line bank's overhead against the SC models.
        {"px86", ModelConfig::px86()},
    };

    struct TraceEntry
    {
        std::string name;
        InMemoryTrace trace;
    };
    std::vector<TraceEntry> traces;
    {
        SyntheticTraceConfig synth;
        traces.push_back({"synthetic", buildSyntheticTrace(synth)});
        QueueWorkloadConfig queue;
        queue.kind = QueueKind::CopyWhileLocked;
        queue.variant = AnnotationVariant::Conservative;
        queue.threads = 1;
        queue.inserts_per_thread = 20000;
        InMemoryTrace trace;
        runQueueWorkload(queue, {&trace});
        traces.push_back({"cwl1", std::move(trace)});
    }

    BenchReport report;
    TextTable table;
    table.header({"trace", "model", "path", "events", "wall(s)",
                  "events/s"});
    for (const TraceEntry &entry : traces) {
        const TraceEvent *events = entry.trace.events().data();
        const std::size_t count = entry.trace.size();
        for (const Model &model : model_list) {
            const TimingConfig timing = levels(model.model);
            const double wall = timedReplay(events, count, timing);
            table.row({entry.name, model.name, "serial",
                       std::to_string(count), formatDouble(wall, 4),
                       formatEventsPerSec(count, wall)});
            report.add("replay/" + entry.name + "/" + model.name,
                       count, wall);
            if (!compiledFastEligible(timing))
                continue;
            // Compiled path: the trace is compiled once outside the
            // timer, so the row measures pure execution of the columns
            // (compile cost is reported by perfbench's
            // persistency.ref.compile_wall_s).
            const CompiledTrace compiled =
                compileTrace(events, count, timing);
            const double cwall =
                timedCompiledReplay(compiled.view(), timing);
            table.row({entry.name, model.name, "compiled",
                       std::to_string(count), formatDouble(cwall, 4),
                       formatEventsPerSec(count, cwall)});
            report.add("replay/" + entry.name + "/" + model.name +
                           "/compiled",
                       count, cwall);
        }
    }
    std::cout << "\n" << table.render() << "\n";
    writeBenchReport(report, options);
    return 0;
}
