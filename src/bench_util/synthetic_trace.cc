#include "bench_util/synthetic_trace.hh"

#include "common/error.hh"
#include "common/rng.hh"

namespace persim {

namespace {

/** Persistent working set, in bytes from persistent_base. */
constexpr std::uint64_t persistent_span = 1ULL << 16;

/** Volatile working set, in bytes from volatile_base. */
constexpr std::uint64_t volatile_span = 1ULL << 14;

} // namespace

InMemoryTrace
buildSyntheticTrace(const SyntheticTraceConfig &config)
{
    PERSIM_REQUIRE(config.threads >= 1 && config.events >= 1,
                   "synthetic trace needs threads and events");
    Rng rng(config.seed);
    InMemoryTrace trace;
    SeqNum seq = 0;
    std::uint64_t next_op = 1;
    auto push = [&trace, &seq](ThreadId tid, EventKind kind, Addr addr,
                               unsigned size, std::uint64_t value,
                               std::uint16_t marker = 0) {
        TraceEvent event;
        event.seq = seq++;
        event.thread = tid;
        event.kind = kind;
        event.addr = addr;
        event.size = static_cast<std::uint8_t>(size);
        event.value = value;
        event.marker = marker;
        trace.onEvent(event);
    };

    // Weights mirror a store-heavy workload (the regime the paper's
    // queues live in): 40% persistent stores, 5% persistent RMWs, 17%
    // persistent loads, 12% volatile stores, 8% volatile loads, the
    // rest ordering and marker events.
    for (std::uint64_t i = 0; i < config.events; ++i) {
        const auto tid =
            static_cast<ThreadId>(rng.nextBounded(config.threads));
        const std::uint64_t pick = rng.nextBounded(100);
        const Addr paddr = persistent_base + rng.nextBounded(persistent_span);
        const Addr vaddr = volatile_base + rng.nextBounded(volatile_span);
        const auto size =
            static_cast<unsigned>(1 + rng.nextBounded(max_access_size));
        if (pick < 40) {
            push(tid, EventKind::Store, paddr, size, rng.next());
        } else if (pick < 45) {
            push(tid, EventKind::Rmw, paddr, 8, rng.next());
        } else if (pick < 62) {
            push(tid, EventKind::Load, paddr, size, 0);
        } else if (pick < 74) {
            push(tid, EventKind::Store, vaddr, size, rng.next());
        } else if (pick < 82) {
            push(tid, EventKind::Load, vaddr, size, 0);
        } else if (pick < 92) {
            push(tid, EventKind::PersistBarrier, 0, 0, 0);
        } else if (pick < 95) {
            push(tid, EventKind::NewStrand, 0, 0, 0);
        } else if (pick < 97) {
            push(tid, EventKind::Marker, 0, 0, next_op++,
                 static_cast<std::uint16_t>(MarkerCode::OpBegin));
        } else {
            push(tid, EventKind::Marker, 0, 0, 0,
                 static_cast<std::uint16_t>(MarkerCode::OpEnd));
        }
    }
    return trace;
}

} // namespace persim
