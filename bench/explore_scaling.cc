/**
 * @file
 * Explore-scaling bench: how much larger a program constraint-guided
 * crash-state pruning (DESIGN.md §14) lets the explorer finish, under
 * one fixed cut budget. Pruning is a property of the program: the
 * explorer projects onto the cells a program declares observed. The
 * "pruned" rows run the program as written; the "exhaustive" rows run
 * the same factory through withoutObserved (explore/programs.hh),
 * which drops the declaration, so every cut is enumerated.
 *
 * The program family is a single-thread worst case for blind cut
 * enumeration: K independent scratch persists (one epoch, mutually
 * unordered — an antichain) followed by a barrier-separated chain of
 * C observed cells. Exhaustive enumeration must walk every order
 * ideal, 2^K + C cuts, so it exhausts any fixed budget once K
 * crosses log2(budget); the pruned enumeration projects onto the C
 * observed cells and checks C+1 cuts NO MATTER how large K grows.
 *
 * The bench sweeps K upward through both modes, records every run in
 * BENCH_explore.json (key explore/<mode>/K<k>, events = cuts checked
 * — the committed copy at the repo root is refreshed with
 * --json=BENCH_explore.json like BENCH_replay.json), and reports the
 * largest completed (exhaustive-verdict) program per mode. With
 * --check it exits nonzero unless pruning completes a program at
 * least 5x larger than blind enumeration — the acceptance gate
 * scripts/check.sh runs.
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "bench_util/table.hh"
#include "common/error.hh"
#include "explore/explore.hh"
#include "explore/programs.hh"

using namespace persim;
using namespace persim::bench;

namespace {

/** Observed chain length (fixed; the sweep varies K). */
constexpr std::uint32_t chain_cells = 4;

/** One shared cut budget for both modes: the "wall-clock" proxy. */
constexpr std::uint64_t cut_budget = 1ULL << 15;

/** Scratch-cell counts the sweep tries, in order. */
constexpr std::uint32_t sweep[] = {4,  8,  12, 14, 16,  20,
                                   32, 64, 96, 128, 160};

/**
 * K unobserved scratch persists (antichain) + a C-cell observed
 * chain with barriers between links. Invariant: the chain recovers
 * as a prefix (cell i durable => cell i-1 durable), which the
 * barriers guarantee — every run is clean; the bench measures
 * enumeration, not bug-finding.
 */
ProgramFactory
scalingProgram(std::uint32_t scratch_cells)
{
    return [scratch_cells]() {
        struct State
        {
            Addr chain = invalid_addr;
            Addr scratch = invalid_addr;
        };
        auto state = std::make_shared<State>();

        ExploreProgram program;
        program.observed = std::make_shared<std::vector<ObservedCell>>();
        auto observed = program.observed;
        program.setup = [state, observed, scratch_cells](ThreadCtx &ctx) {
            state->chain = ctx.pmalloc(chain_cells * 8ULL);
            state->scratch = ctx.pmalloc(scratch_cells * 8ULL);
            observed->clear();
            for (std::uint32_t i = 0; i < chain_cells; ++i)
                observed->push_back(ObservedCell{
                    "c" + std::to_string(i), state->chain + i * 8ULL, 8});
        };
        program.workers.push_back([state, scratch_cells](ThreadCtx &ctx) {
            for (std::uint32_t i = 0; i < scratch_cells; ++i)
                ctx.store(state->scratch + i * 8ULL, i + 1);
            for (std::uint32_t i = 0; i < chain_cells; ++i) {
                ctx.persistBarrier();
                ctx.store(state->chain + i * 8ULL, i + 1);
            }
        });
        program.invariant = [state]() -> RecoveryInvariant {
            return [state](const MemoryImage &image) -> std::string {
                for (std::uint32_t i = 1; i < chain_cells; ++i) {
                    if (image.load(state->chain + i * 8ULL, 8) != 0 &&
                        image.load(state->chain + (i - 1) * 8ULL, 8) == 0)
                        return "chain cell " + std::to_string(i) +
                               " durable before its predecessor";
                }
                return "";
            };
        };
        return program;
    };
}

struct ModeOutcome
{
    std::uint32_t max_cells = 0; //!< Largest completed program (K).
    std::uint64_t max_cuts = 0;  //!< Cuts checked at that size.
};

} // namespace

int
main(int argc, char **argv)
{
    bool check = false;
    std::string json_path = "BENCH_explore.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--check") {
            check = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--check] [--json=PATH]\n"
                      << "  --check     exit nonzero unless pruning "
                         "completes a >=5x larger program\n"
                      << "  --json=PATH bench report path (default "
                         "BENCH_explore.json)\n";
            return 2;
        }
    }

    banner("Explore scaling: constraint-guided crash-state pruning "
           "vs blind cut enumeration",
           "pruned exploration must complete a program >=5x larger "
           "than exhaustive enumeration under one cut budget "
           "(ISSUE 7 acceptance gate)");
    std::cout << "observed chain: " << chain_cells
              << " cells; cut budget: " << cut_budget
              << " cuts per analysis\n\n";

    try {
        BenchReport report;
        TextTable table;
        table.header({"mode", "scratch-cells", "cuts", "wall(s)",
                      "completed"});
        ModeOutcome outcome[2];
        for (const bool prune : {false, true}) {
            const char *mode = prune ? "pruned" : "exhaustive";
            for (const std::uint32_t cells : sweep) {
                ExploreConfig config;
                config.model = ModelConfig::epoch();
                config.max_cuts = cut_budget;
                Explorer explorer(prune ? scalingProgram(cells)
                                        : withoutObserved(
                                              scalingProgram(cells)),
                                  config);
                Stopwatch watch;
                const ExploreResult result = explorer.run();
                const double wall = watch.seconds();
                const bool completed =
                    result.exhaustive() && result.violations == 0;
                table.row({mode, std::to_string(cells),
                           std::to_string(result.cuts_checked),
                           formatDouble(wall, 4),
                           completed ? "yes" : "no (budget)"});
                report.add("explore/" + std::string(mode) + "/K" +
                               std::to_string(cells),
                           result.cuts_checked, wall);
                if (result.violations > 0) {
                    std::cerr << "INTERNAL: barrier-ordered chain "
                                 "reported a violation\n"
                              << result.summary() << "\n";
                    return 2;
                }
                if (!completed)
                    break; // Larger programs only enumerate more.
                outcome[prune].max_cells = cells;
                outcome[prune].max_cuts = result.cuts_checked;
            }
        }
        std::cout << table.render() << "\n";

        const ModeOutcome &blind = outcome[0];
        const ModeOutcome &pruned = outcome[1];
        std::cout << "exhaustive completes up to K=" << blind.max_cells
                  << " (" << blind.max_cuts << " cuts); pruned up to K="
                  << pruned.max_cells << " (" << pruned.max_cuts
                  << " cuts)\n";
        const double ratio = blind.max_cells == 0
            ? 0.0
            : static_cast<double>(pruned.max_cells) /
                static_cast<double>(blind.max_cells);
        std::cout << "program-size ratio: " << formatDouble(ratio, 1)
                  << "x\n";
        report.add("explore/exhaustive/max_scratch_cells",
                   blind.max_cells, 0.0);
        report.add("explore/pruned/max_scratch_cells",
                   pruned.max_cells, 0.0);
        if (!json_path.empty()) {
            report.writeJson(json_path);
            std::cout << "bench report: " << report.size()
                      << " samples -> " << json_path << "\n";
        }
        if (check && (blind.max_cells == 0 || ratio < 5.0)) {
            std::cerr << "CHECK FAILED: pruning must complete a >=5x "
                         "larger program (got "
                      << formatDouble(ratio, 1) << "x)\n";
            return 1;
        }
        return 0;
    } catch (const Error &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 2;
    }
}
