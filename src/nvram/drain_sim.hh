/**
 * @file
 * Buffered strict persistency drain model (paper Section 4.1).
 *
 * Buffered strict persistency lets instruction execution run ahead of
 * persistent state: persists queue in a totally ordered buffer and
 * drain serially to NVRAM. Execution stalls only when the buffer
 * fills (or at a persist sync). This discrete-event model computes
 * the resulting throughput for a stream of persists produced at the
 * volatile execution rate, as a function of buffer depth: with a deep
 * buffer, throughput approaches min(execution rate, drain rate); with
 * depth 0 it degenerates to unbuffered strict persistency (stall at
 * every persist).
 */

#ifndef PERSIM_NVRAM_DRAIN_SIM_HH
#define PERSIM_NVRAM_DRAIN_SIM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace persim {

/** Inputs to the drain simulation. */
struct DrainConfig
{
    /** Persist buffer entries (0 = unbuffered strict persistency). */
    std::uint64_t buffer_depth = 16;

    /** Serial drain time per persist, nanoseconds. */
    double persist_latency_ns = 500.0;

    /** Nanoseconds of useful execution between persists. */
    double ns_between_persists = 50.0;

    /** Persists issued between persist sync operations (0 = never). */
    std::uint64_t persists_per_sync = 0;
};

/** Outputs of the drain simulation. */
struct DrainResult
{
    /** Total simulated nanoseconds. */
    double total_ns = 0.0;

    /** Nanoseconds execution spent stalled on a full buffer or sync. */
    double stall_ns = 0.0;

    /** Persists drained. */
    std::uint64_t persists = 0;

    /** Achieved persists per second. */
    double persistsPerSecond() const;

    /** Fraction of time execution was stalled. */
    double stallFraction() const;
};

/** Simulate draining @p persists persists through the buffer. */
DrainResult simulateDrain(const DrainConfig &config,
                          std::uint64_t persists);

/**
 * Serial-drain finish times: write i (in drain order, @p issue_times
 * non-decreasing) leaves the buffer at max(finish_{i-1}, issue_i) +
 * @p drain_latency. At a crash at T the writes still buffered — the
 * ones a power failure can destroy — are the index range
 * [upper_bound(finish, T), upper_bound(issue_times, T)).
 */
std::vector<double> drainFinishTimes(
    const std::vector<double> &issue_times, double drain_latency);

} // namespace persim

#endif // PERSIM_NVRAM_DRAIN_SIM_HH
