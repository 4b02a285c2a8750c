/**
 * @file
 * Bounded exhaustive schedule & crash-state exploration driver.
 *
 * Runs the explorer (src/explore/) over the Figure 1 publish litmus
 * or a bounded queue workload and reports coverage plus any
 * counterexample. Examples:
 *
 *   explore_litmus --model=epoch --threads=2
 *   explore_litmus --program=litmus --no-consumer-barrier
 *   explore_litmus --program=queue --no-publish-barrier --shards=4
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench/bench_common.hh"
#include "common/error.hh"
#include "explore/explore.hh"
#include "explore/programs.hh"

using namespace persim;
using bench::parseFlagNumber;

namespace {

struct Options
{
    std::string program = "litmus";
    std::string model = "epoch";
    std::uint32_t threads = 2;
    std::uint32_t inserts = 1;
    std::string kind = "2lc";
    bool consumer_barrier = true;
    bool publish_barrier = true;
    std::uint64_t max_depth = 64;
    std::uint64_t max_executions = 4096;
    std::uint64_t max_cuts = 1ULL << 16;
    std::uint64_t samples = 256;
    std::uint32_t shards = 1;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0 << " [--program=litmus|queue]\n"
        << "  --model=strict|epoch|strand   persistency model (litmus)\n"
        << "  --threads=N                   queue inserter threads\n"
        << "  --inserts=N                   inserts per thread\n"
        << "  --kind=cwl|2lc                queue design\n"
        << "  --no-consumer-barrier         drop the litmus consumer "
           "barrier\n"
        << "  --no-publish-barrier          drop the 2LC publish "
           "barrier\n"
        << "  --max-depth=N --max-executions=N --max-cuts=N\n"
        << "  --samples=N --shards=N\n";
    std::exit(2);
}

bool
eatFlag(const std::string &arg, const char *name, std::string &value)
{
    const std::string prefix = std::string(name) + "=";
    if (arg.rfind(prefix, 0) != 0)
        return false;
    value = arg.substr(prefix.size());
    return true;
}

Options
parse(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--no-consumer-barrier")
            options.consumer_barrier = false;
        else if (arg == "--no-publish-barrier")
            options.publish_barrier = false;
        else if (eatFlag(arg, "--program", value))
            options.program = value;
        else if (eatFlag(arg, "--model", value))
            options.model = value;
        else if (eatFlag(arg, "--kind", value))
            options.kind = value;
        else if (eatFlag(arg, "--threads", value))
            options.threads = parseFlagNumber<std::uint32_t>(
                "--threads", value);
        else if (eatFlag(arg, "--inserts", value))
            options.inserts = parseFlagNumber<std::uint32_t>(
                "--inserts", value);
        else if (eatFlag(arg, "--max-depth", value))
            options.max_depth = parseFlagNumber<std::uint64_t>(
                "--max-depth", value);
        else if (eatFlag(arg, "--max-executions", value))
            options.max_executions = parseFlagNumber<std::uint64_t>(
                "--max-executions", value);
        else if (eatFlag(arg, "--max-cuts", value))
            options.max_cuts = parseFlagNumber<std::uint64_t>(
                "--max-cuts", value);
        else if (eatFlag(arg, "--samples", value))
            options.samples = parseFlagNumber<std::uint64_t>(
                "--samples", value);
        else if (eatFlag(arg, "--shards", value))
            options.shards = parseFlagNumber<std::uint32_t>(
                "--shards", value);
        else
            usage(argv[0]);
    }
    return options;
}

ModelConfig
modelFor(const std::string &name)
{
    if (name == "strict")
        return ModelConfig::strict();
    if (name == "epoch")
        return ModelConfig::epoch();
    if (name == "strand")
        return ModelConfig::strand();
    std::cerr << "unknown model: " << name << "\n";
    std::exit(2);
}

} // namespace

int
runExploration(const Options &options, const char *argv0)
{
    ExploreConfig config;
    config.max_depth = options.max_depth;
    config.max_executions = options.max_executions;
    config.max_cuts = options.max_cuts;
    config.samples = options.samples;
    config.shards = options.shards;

    ProgramFactory factory;
    if (options.program == "litmus") {
        config.model = modelFor(options.model);
        factory = publishLitmusProgram(options.consumer_barrier);
        std::cout << "program: Figure 1 publish litmus (consumer barrier "
                  << (options.consumer_barrier ? "on" : "OFF")
                  << ", model " << config.model.name() << ")\n";
    } else if (options.program == "queue") {
        config.model = queueExploreModel();
        QueueExploreOptions queue;
        queue.kind = options.kind == "cwl" ? QueueKind::CopyWhileLocked
                                           : QueueKind::TwoLockConcurrent;
        queue.threads = options.threads;
        queue.inserts_per_thread = options.inserts;
        queue.queue.barrier_before_publish = options.publish_barrier;
        factory = queueProgram(queue);
        std::cout << "program: " << queueKindName(queue.kind) << " queue, "
                  << options.threads << " threads x " << options.inserts
                  << " inserts (publish barrier "
                  << (options.publish_barrier ? "on" : "OFF") << ")\n";
    } else {
        usage(argv0);
    }

    Explorer explorer(factory, config);
    const ExploreResult result = explorer.run();
    std::cout << result.summary() << "\n";
    if (result.counterexample) {
        std::cout << "\n" << result.counterexample->format() << "\n";
        return 1;
    }
    std::cout << (result.exhaustive()
                      ? "invariant holds on every schedule and crash state "
                        "within bounds\n"
                      : "no violation found within budget\n");
    return 0;
}

int
main(int argc, char **argv)
{
    const Options options = parse(argc, argv);
    try {
        return runExploration(options, argv[0]);
    } catch (const Error &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 2;
    }
}
