/**
 * @file
 * Deterministic synthetic trace generator for replay benchmarking.
 *
 * The perf baseline (bench/replay_baseline.cc) and the perf smoke
 * test need a mid-size trace that (a) is produced without running the
 * execution engine — so trace construction cost never pollutes the
 * replay measurement — and (b) exercises the timing-engine hot paths
 * representatively: persistent and volatile accesses over a bounded
 * working set, unaligned multi-piece accesses, RMWs, persist
 * barriers, strands, and op markers. Generation is a pure function of
 * the config (seeded xoshiro stream), so every run replays the exact
 * same event sequence.
 */

#ifndef PERSIM_BENCH_UTIL_SYNTHETIC_TRACE_HH
#define PERSIM_BENCH_UTIL_SYNTHETIC_TRACE_HH

#include <cstdint>

#include "memtrace/sink.hh"

namespace persim {

/** Shape of a synthetic replay-bench trace. */
struct SyntheticTraceConfig
{
    std::uint64_t events = 1'000'000;
    std::uint32_t threads = 4;
    std::uint64_t seed = 2026;
};

/** Build the trace; deterministic given @p config. */
InMemoryTrace buildSyntheticTrace(const SyntheticTraceConfig &config);

} // namespace persim

#endif // PERSIM_BENCH_UTIL_SYNTHETIC_TRACE_HH
