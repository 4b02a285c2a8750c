/**
 * @file
 * Quickstart: write a tiny recoverable structure against the traced
 * memory API, annotate it with persist barriers, and compare what the
 * three persistency models say about it.
 *
 * The structure is the classic "update then publish" pattern: write a
 * record into persistent memory, persist-barrier, then set a valid
 * flag. We (1) measure the persist ordering critical path under
 * strict / epoch / strand persistency, and (2) fire the recovery
 * observer to confirm the flag is never durable before the record.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <iostream>

#include "persistency/timing_engine.hh"
#include "recovery/fault_campaign.hh"
#include "recovery/recovery.hh"
#include "sim/engine.hh"

using namespace persim;

namespace {

/** Number of records the workload publishes. */
constexpr std::uint64_t record_count = 1000;
constexpr std::uint64_t record_bytes = 48;

struct Workload
{
    Addr records = 0; //!< record_count records of record_bytes.
    Addr flags = 0;   //!< one 8-byte valid flag per record.
};

/** Run the publish workload, streaming events into @p sinks. */
Workload
runPublishWorkload(std::vector<TraceSink *> sinks)
{
    FanoutSink fanout;
    for (auto *sink : sinks)
        fanout.addSink(sink);

    EngineConfig config;
    ExecutionEngine engine(config, &fanout);

    Workload workload;
    engine.runSetup([&workload](ThreadCtx &ctx) {
        workload.records = ctx.pmalloc(record_count * record_bytes, 64);
        workload.flags = ctx.pmalloc(record_count * 8, 64);
    });
    engine.run({[&workload](ThreadCtx &ctx) {
        std::uint8_t payload[record_bytes];
        for (std::uint64_t i = 0; i < record_count; ++i) {
            ctx.marker(MarkerCode::OpBegin, i + 1);
            for (std::uint64_t b = 0; b < record_bytes; ++b)
                payload[b] = static_cast<std::uint8_t>(i + b);

            // A new record is logically independent of the previous
            // ones: tell strand persistency so.
            ctx.newStrand();

            // 1. Write the record (six 8-byte persists).
            ctx.marker(MarkerCode::RoleData);
            ctx.copyIn(workload.records + i * record_bytes, payload,
                       record_bytes);
            // 2. Order the record before the flag.
            ctx.persistBarrier();
            // 3. Publish.
            ctx.marker(MarkerCode::RoleHead);
            ctx.store(workload.flags + i * 8, 1);
            ctx.marker(MarkerCode::OpEnd, i + 1);
        }
    }});
    return workload;
}

} // namespace

int
main()
{
    std::cout << "persim quickstart: the update-then-publish pattern\n\n";

    // --- Part 1: how concurrent are the persists under each model? --
    PersistTimingEngine strict({.model = ModelConfig::strict()});
    PersistTimingEngine epoch({.model = ModelConfig::epoch()});
    PersistTimingEngine strand({.model = ModelConfig::strand()});
    InMemoryTrace trace;
    const Workload workload =
        runPublishWorkload({&strict, &epoch, &strand, &trace});

    std::cout << "persist critical path for " << record_count
              << " published records (7 persists each):\n";
    for (const auto *engine : {&strict, &epoch, &strand}) {
        std::cout << "  " << engine->config().model.name() << ": "
                  << engine->result().critical_path << " levels ("
                  << engine->result().criticalPathPerOp()
                  << " per record, "
                  << engine->result().coalesced << " coalesced)\n";
    }
    std::cout <<
        "\nStrict persistency serializes all 7 persists of every record\n"
        "(and the records with each other); epoch persistency costs\n"
        "about one level per record (one record's flag overlaps the\n"
        "next record's data); strand persistency overlaps the records\n"
        "entirely, so the whole run costs two levels.\n\n";

    // --- Part 2: the recovery observer ---------------------------
    InjectionConfig injection;
    injection.model = ModelConfig::strand();
    injection.realizations = 8;
    injection.crashes_per_realization = 64;
    const auto result = runFaultCampaign(
        trace, {.injection = injection},
        [&workload](const MemoryImage &image) {
            for (std::uint64_t i = 0; i < record_count; ++i) {
                if (image.load(workload.flags + i * 8, 8) != 1)
                    continue; // Not published: contents irrelevant.
                for (std::uint64_t b = 0; b < record_bytes; ++b) {
                    const auto byte = image.load(
                        workload.records + i * record_bytes + b, 1);
                    if (byte != ((i + b) & 0xff))
                        return std::string("published record ") +
                            std::to_string(i) + " is incomplete";
                }
            }
            return std::string();
        });
    std::cout << "recovery observer: " << result.samples
              << " crash states under strand persistency, "
              << result.violations << " violations\n";
    std::cout << (result.ok()
                  ? "every published record was fully durable. The one\n"
                    "barrier between data and flag is all the ordering\n"
                    "this structure needs — everything else overlaps.\n"
                  : "BUG: " + result.first_violation + "\n");
    return result.ok() ? 0 : 1;
}
