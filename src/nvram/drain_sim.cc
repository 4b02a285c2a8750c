#include "nvram/drain_sim.hh"

#include <algorithm>
#include <vector>

#include "common/error.hh"

namespace persim {

double
DrainResult::persistsPerSecond() const
{
    return total_ns > 0.0
        ? static_cast<double>(persists) * 1e9 / total_ns : 0.0;
}

double
DrainResult::stallFraction() const
{
    return total_ns > 0.0 ? stall_ns / total_ns : 0.0;
}

DrainResult
simulateDrain(const DrainConfig &config, std::uint64_t persists)
{
    PERSIM_REQUIRE(config.persist_latency_ns > 0.0,
                   "persist latency must be positive");
    PERSIM_REQUIRE(config.ns_between_persists >= 0.0,
                   "execution time cannot be negative");

    DrainResult result;
    result.persists = persists;

    // The buffer drains one persist every latency ns, FIFO. Execution
    // issues a persist every ns_between_persists, stalling when the
    // buffer holds buffer_depth entries (an unbuffered system, depth
    // 0, stalls until the persist itself completes).
    double exec_clock = 0.0;    // When execution can issue next.
    double drain_clock = 0.0;   // When the device frees up.
    double stall = 0.0;
    std::uint64_t since_sync = 0;

    // Completion time of each buffered persist, as a ring of the
    // last `depth` finish times; with depth D, issuing persist i must
    // wait for persist i-D to finish.
    const std::uint64_t depth = config.buffer_depth;
    std::vector<double> finish;
    finish.reserve(persists);

    for (std::uint64_t i = 0; i < persists; ++i) {
        exec_clock += config.ns_between_persists;

        // Wait for buffer space: persist i needs persist i-depth done.
        if (depth > 0 && i >= depth && finish[i - depth] > exec_clock) {
            stall += finish[i - depth] - exec_clock;
            exec_clock = finish[i - depth];
        }

        const double start = std::max(exec_clock, drain_clock);
        const double done = start + config.persist_latency_ns;
        finish.push_back(done);
        drain_clock = done;

        if (depth == 0) {
            // Unbuffered: execution waits for the persist itself.
            stall += done - exec_clock;
            exec_clock = done;
        }

        ++since_sync;
        if (config.persists_per_sync > 0 &&
            since_sync == config.persists_per_sync) {
            since_sync = 0;
            if (done > exec_clock) {
                stall += done - exec_clock;
                exec_clock = done;
            }
        }
    }

    result.total_ns = std::max(exec_clock, drain_clock);
    result.stall_ns = stall;
    return result;
}

std::vector<double>
drainFinishTimes(const std::vector<double> &issue_times,
                 double drain_latency)
{
    PERSIM_REQUIRE(drain_latency > 0.0,
                   "drain latency must be positive");
    std::vector<double> finish(issue_times.size());
    double drain_clock = 0.0; // When the device frees up.
    for (std::size_t i = 0; i < issue_times.size(); ++i) {
        PERSIM_REQUIRE(i == 0 || issue_times[i] >= issue_times[i - 1],
                       "issue times must be non-decreasing");
        drain_clock = std::max(drain_clock, issue_times[i]) +
                      drain_latency;
        finish[i] = drain_clock;
    }
    return finish;
}

} // namespace persim
