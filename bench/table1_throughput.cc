/**
 * @file
 * Table 1: persist-bound insert rate normalized to instruction
 * execution rate, for Copy While Locked and Two-Lock Concurrent
 * under Strict / Epoch / Racing Epochs / Strand persistency, with 1
 * and 8 threads, assuming 500 ns persists.
 *
 * Paper shape: strict persistency is persist-bound everywhere (CWL
 * one thread ~ 1/30 of instruction rate); epoch persistency recovers
 * much of it; racing epochs and strand persistency reach or exceed
 * instruction rate (values above 1 mean persists keep up).
 *
 * Instruction rates are measured natively on this host (paper used a
 * Xeon E5645); persist-bound rates come from the trace-driven persist
 * ordering-constraint critical path, exactly as in Section 7.
 */

#include <map>
#include <utility>

#include "bench/bench_common.hh"
#include "bench_util/table.hh"
#include "bench_util/throughput.hh"
#include "common/error.hh"
#include "queue/native_queue.hh"

using namespace persim;
using namespace persim::bench;

namespace {

struct Cell
{
    QueueKind kind = QueueKind::CopyWhileLocked;
    std::uint32_t threads = 1;
    std::size_t variant = 0;
    double native_rate = 0.0;

    double normalized = 0.0;
    double critical_path_per_op = 0.0;
    std::uint64_t events = 0;
    double wall_seconds = 0.0;
};

void
analyzeCell(Cell &cell, const AnalysisVariant &variant)
{
    QueueWorkloadConfig config;
    config.kind = cell.kind;
    config.variant = variant.trace_variant;
    config.threads = cell.threads;
    config.inserts_per_thread = cell.threads == 1 ? 20000 : 2500;
    config.seed = 42;

    // Trace untimed, then time the replay alone (see fig3).
    InMemoryTrace trace;
    const auto workload = runQueueWorkload(config, {&trace});
    Stopwatch watch;
    const TimingResult result =
        replayTrace(trace, levels(variant.model));
    cell.wall_seconds = watch.seconds();

    const auto throughput = makeThroughput(
        cell.native_rate, workload.inserts, result.critical_path,
        paper_latency_ns);
    cell.normalized = throughput.normalized();
    cell.critical_path_per_op = result.criticalPathPerOp();
    cell.events = result.events;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions options = parseBenchOptions(argc, argv);
    banner("Table 1: relaxed persistency performance "
           "(normalized persist-bound insert rate, 500 ns persists)",
           "CWL 1T: strict ~0.03 (30x slowdown), epoch ~0.17, strand "
           "compute-bound (>1); 8T racing epochs and strand exceed 1; "
           "2LC 8T reaches instruction rate under epoch persistency");

    auto variants = table1Variants();
    // --model columns replay the conservative (epoch-annotated)
    // trace; px86 exercises the canonical barrier compilation.
    for (const ModelConfig &model :
         extraModels(options, {"strict", "epoch", "strand"}))
        variants.push_back(
            {model.name(), AnnotationVariant::Conservative, model});
    const QueueKind kinds[] = {QueueKind::CopyWhileLocked,
                               QueueKind::TwoLockConcurrent};

    // Native rates first, serially: they time real execution and must
    // not share the machine with analysis threads.
    std::map<std::pair<int, std::uint32_t>, double> native;
    for (const auto kind : kinds)
        for (const std::uint32_t threads : {1u, 8u})
            native[{static_cast<int>(kind), threads}] =
                measureNativeInsertRate(kind, threads, 400000 / threads,
                                        100);

    // One trace + analysis per (queue, threads, variant) cell; each
    // cell is independent, so the 16 of them fan out on the pool.
    std::vector<Cell> cells;
    for (const auto kind : kinds)
        for (const std::uint32_t threads : {1u, 8u})
            for (std::size_t v = 0; v < variants.size(); ++v) {
                Cell cell;
                cell.kind = kind;
                cell.threads = threads;
                cell.variant = v;
                cell.native_rate =
                    native[{static_cast<int>(kind), threads}];
                cells.push_back(cell);
            }

    Stopwatch analysis_watch;
    TaskPool pool(options.jobs);
    pool.parallelFor(cells.size(), [&cells, &variants](std::size_t i) {
        analyzeCell(cells[i], variants[cells[i].variant]);
    });
    const double analysis_wall = analysis_watch.seconds();

    auto cellFor = [&](QueueKind kind, std::uint32_t threads,
                       std::size_t variant) -> const Cell & {
        for (const Cell &cell : cells)
            if (cell.kind == kind && cell.threads == threads &&
                cell.variant == variant)
                return cell;
        PERSIM_PANIC("missing table1 cell");
    };

    std::vector<std::string> variant_names;
    for (const auto &variant : variants)
        variant_names.push_back(variant.name);

    for (const auto kind : kinds) {
        TextTable table;
        std::vector<std::string> header{"threads", "native(ins/s)"};
        header.insert(header.end(), variant_names.begin(),
                      variant_names.end());
        table.header(header);
        for (const std::uint32_t threads : {1u, 8u}) {
            std::vector<std::string> row{
                std::to_string(threads),
                formatRate(native[{static_cast<int>(kind), threads}])};
            for (std::size_t v = 0; v < variants.size(); ++v) {
                const Cell &cell = cellFor(kind, threads, v);
                std::string text = formatDouble(cell.normalized, 3);
                if (cell.normalized >= 1.0)
                    text += " *"; // Compute-bound (paper: bold).
                row.push_back(text);
            }
            table.row(row);
        }
        std::cout << "\n" << queueKindName(kind)
                  << "  (values >= 1, marked *, reach instruction rate)\n"
                  << table.render();
    }

    // Companion detail: the critical path per insert driving each
    // cell, plus the per-analysis wall time and events/sec.
    std::cout << "\nPersist critical path per insert (levels):\n";
    TextTable detail;
    std::vector<std::string> detail_header{"queue", "threads"};
    detail_header.insert(detail_header.end(), variant_names.begin(),
                         variant_names.end());
    detail.header(detail_header);
    for (const auto kind : kinds) {
        for (const std::uint32_t threads : {1u, 8u}) {
            std::vector<std::string> row{queueKindName(kind),
                                         std::to_string(threads)};
            for (std::size_t v = 0; v < variants.size(); ++v)
                row.push_back(formatDouble(
                    cellFor(kind, threads, v).critical_path_per_op, 3));
            detail.row(row);
        }
    }
    std::cout << detail.render();

    std::cout << "\nPer-analysis wall time (replay only; tracing "
                 "untimed):\n";
    TextTable timing;
    timing.header({"queue", "threads", "variant", "events", "wall(s)",
                   "events/s"});
    std::uint64_t events_analyzed = 0;
    BenchReport report;
    for (const Cell &cell : cells) {
        events_analyzed += cell.events;
        timing.row({queueKindName(cell.kind),
                    std::to_string(cell.threads),
                    variants[cell.variant].name,
                    std::to_string(cell.events),
                    formatDouble(cell.wall_seconds, 4),
                    formatEventsPerSec(cell.events, cell.wall_seconds)});
        const std::string queue =
            cell.kind == QueueKind::CopyWhileLocked ? "cwl" : "2lc";
        report.add("table1/" + queue + "/" +
                       std::to_string(cell.threads) + "t/" +
                       variants[cell.variant].name,
                   cell.events, cell.wall_seconds);
    }
    std::cout << timing.render() << "\n";
    reportAnalysisWall(cells.size(), events_analyzed, analysis_wall,
                       options.jobs);
    writeBenchReport(report, options);
    return 0;
}
