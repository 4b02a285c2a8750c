/**
 * @file
 * Px86 conformance runner: executes the litmus suite, cross-checks
 * reachable post-crash states across persistency models, and prints
 * (or writes) the divergence report.
 *
 * The report is deterministic — byte-identical for every --jobs
 * value — and its committed copy lives at
 * tests/conformance/golden/conformance_report.txt (golden-checked by
 * tests/conformance/conformance_test.cc). Regenerate it after an
 * intentional semantic change with:
 *
 *   conformance_report --out=tests/conformance/golden/conformance_report.txt
 *
 * Examples:
 *
 *   conformance_report                  # full suite to stdout
 *   conformance_report --jobs=8         # same bytes, faster
 *   conformance_report --handwritten    # skip the generated tests
 */

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "bench/bench_common.hh"
#include "common/error.hh"
#include "conformance/litmus.hh"

using namespace persim;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0 << " [options]\n"
              << "  --jobs=N         worker threads (default 1)\n"
              << "  --generated=N    generated random tests "
                 "(default 20)\n"
              << "  --handwritten    hand-written suite only\n"
              << "  --out=PATH       write the report to PATH\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint32_t jobs = 1;
    std::size_t generated = 20;
    bool handwritten_only = false;
    std::string out_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--jobs=", 0) == 0)
            jobs = bench::parseFlagNumber<std::uint32_t>("--jobs",
                                                         arg.substr(7));
        else if (arg.rfind("--generated=", 0) == 0)
            generated = bench::parseFlagNumber<std::size_t>(
                "--generated", arg.substr(12));
        else if (arg == "--handwritten")
            handwritten_only = true;
        else if (arg.rfind("--out=", 0) == 0)
            out_path = arg.substr(6);
        else
            usage(argv[0]);
    }

    std::vector<LitmusTest> tests = handwrittenLitmusTests();
    if (!handwritten_only) {
        std::vector<LitmusTest> random = generatedLitmusTests(generated);
        for (LitmusTest &test : random)
            tests.push_back(std::move(test));
    }

    const std::vector<LitmusResult> results =
        runConformanceSuite(tests, jobs);
    const std::string report = formatDivergenceReport(results);

    if (out_path.empty()) {
        std::cout << report;
    } else {
        std::ofstream out(out_path, std::ios::binary);
        PERSIM_REQUIRE(out.good(), "cannot open --out path");
        out << report;
        PERSIM_REQUIRE(out.good(), "short write to --out path");
        std::cout << "wrote " << report.size() << " bytes to "
                  << out_path << "\n";
    }
    return 0;
}
