/**
 * @file
 * PersistRace runner: replay any trace file through the timing
 * engine with race detection on (TimingConfig::detect_races,
 * DESIGN.md §14.2) and report what it found.
 *
 * Usage:
 *
 *   persist_race --trace=FILE [--model=NAME]...
 *
 * The trace is replayed once per requested persistency model (default
 * set: epoch and px86 — the SC-shadow rule and the dirty-read rule
 * respectively). For each replay the runner prints a summary row plus
 * the engine's sample races.
 *
 * Exit status: 0 when every replay is race-free, 1 when any race was
 * reported (so the binary doubles as a CI gate over recorded traces),
 * 2 on usage or I/O errors.
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "bench_util/table.hh"
#include "common/error.hh"
#include "memtrace/trace_io.hh"
#include "persistency/timing_engine.hh"

using namespace persim;
using namespace persim::bench;

namespace {

struct Options
{
    std::string trace_path;
    std::vector<std::string> models;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0
        << " --trace=FILE [--model=NAME]...\n"
        << "  --trace=FILE  .trc trace to scan (memtrace/trace_io.hh)\n"
        << "  --model=NAME  persistency model "
           "(strict|epoch|strand|bpfs|px86); repeatable,\n"
        << "                default: epoch and px86\n";
    std::exit(2);
}

/** Counts and sample races of one replay. */
std::string
formatRaces(const PersistTimingEngine &engine)
{
    const TimingResult &result = engine.result();
    std::ostringstream out;
    out << "persist races: " << result.races + result.dirty_reads
        << " (unordered_persist=" << result.races
        << ", dirty_read=" << result.dirty_reads << ")\n";
    for (const PersistTimingEngine::RaceSample &race :
         engine.raceSamples()) {
        const bool dirty =
            race.kind == PersistTimingEngine::RaceKind::DirtyRead;
        out << "  [" << (dirty ? "dirty_read" : "unordered_persist")
            << "] seq=" << race.seq << " thread=" << race.thread;
        if (dirty)
            out << " line=0x" << std::hex << race.addr << std::dec
                << " owner=" << race.owner;
        else
            out << " addr=0x" << std::hex << race.addr << std::dec
                << " persist=" << race.persist
                << " foreign=" << race.foreign;
        out << "\n";
    }
    return out.str();
}

Options
parse(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&arg](const char *name) -> std::string {
            const std::string prefix = std::string(name) + "=";
            return arg.rfind(prefix, 0) == 0 ? arg.substr(prefix.size())
                                             : std::string();
        };
        if (!value("--trace").empty())
            options.trace_path = value("--trace");
        else if (!value("--model").empty())
            options.models.push_back(value("--model"));
        else
            usage(argv[0]);
    }
    if (options.trace_path.empty())
        usage(argv[0]);
    if (options.models.empty())
        options.models = {"epoch", "px86"};
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parse(argc, argv);
    try {
        const InMemoryTrace trace = readTraceFile(options.trace_path);
        std::cout << "trace: " << options.trace_path << " ("
                  << trace.size() << " events)\n\n";

        TextTable table;
        table.header({"model", "persists", "races", "unordered",
                      "dirty-reads"});
        std::uint64_t total_races = 0;
        std::vector<std::string> reports;
        for (const std::string &name : options.models) {
            TimingConfig config;
            config.model = modelByName(name);
            config.detect_races = true;

            PersistTimingEngine engine(config);
            trace.replay(engine);
            const TimingResult &result = engine.result();
            const std::uint64_t races = result.races + result.dirty_reads;

            table.row({name, std::to_string(result.persists),
                       std::to_string(races),
                       std::to_string(result.races),
                       std::to_string(result.dirty_reads)});
            total_races += races;
            if (races > 0)
                reports.push_back("[" + name + "]\n" +
                                  formatRaces(engine));
        }
        std::cout << table.render();
        for (const std::string &report : reports)
            std::cout << "\n" << report;
        if (total_races > 0) {
            std::cout << "\n" << total_races
                      << " persistency race(s) reported\n";
            return 1;
        }
        std::cout << "\nno persistency races\n";
        return 0;
    } catch (const Error &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 2;
    }
}
