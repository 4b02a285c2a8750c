#include "persistency/sweep.hh"

#include <chrono>
#include <cmath>
#include <limits>

#include "common/error.hh"
#include "common/task_pool.hh"
#include "persistency/compiled_replay.hh"

namespace persim {

namespace {

using SteadyClock = std::chrono::steady_clock;

double
secondsSince(SteadyClock::time_point start)
{
    return std::chrono::duration<double>(SteadyClock::now() - start)
        .count();
}

/** The config bank of one sweep: one per (model, knob) pair. */
std::vector<TimingConfig>
buildConfigs(const std::vector<ModelConfig> &models,
             const std::vector<std::uint64_t> &granularities,
             GranularityKnob knob)
{
    std::vector<TimingConfig> configs;
    configs.reserve(models.size() * granularities.size());
    for (const auto &base : models) {
        for (const auto gran : granularities) {
            ModelConfig model = base;
            if (knob == GranularityKnob::AtomicPersist) {
                model.atomic_granularity = gran;
            } else {
                model.tracking_granularity = gran;
            }
            TimingConfig config;
            config.model = model;
            configs.push_back(config);
        }
    }
    return configs;
}

/** Gather per-config results back into per-model series. */
std::vector<SweepSeries>
collectSeries(const std::vector<TimingResult> &results,
              const std::vector<ModelConfig> &models,
              const std::vector<std::uint64_t> &granularities,
              const std::vector<double> &wall_seconds)
{
    std::vector<SweepSeries> series;
    series.reserve(models.size());
    std::size_t index = 0;
    for (const auto &base : models) {
        SweepSeries entry;
        entry.model = base;
        entry.points.reserve(granularities.size());
        for (const auto gran : granularities) {
            SweepPoint point;
            point.value = gran;
            point.result = results[index];
            point.wall_seconds = wall_seconds[index];
            entry.points.push_back(point);
            ++index;
        }
        series.push_back(std::move(entry));
    }
    return series;
}

} // namespace

std::vector<SweepSeries>
granularitySweep(const InMemoryTrace &trace,
                 const std::vector<ModelConfig> &models,
                 const std::vector<std::uint64_t> &granularities,
                 GranularityKnob knob, const SweepOptions &options)
{
    PERSIM_REQUIRE(!models.empty() && !granularities.empty(),
                   "sweep needs at least one model and one value");

    const auto configs = buildConfigs(models, granularities, knob);
    std::vector<TimingResult> results(configs.size());
    std::vector<double> wall_seconds(configs.size(), 0.0);
    const auto run = [&](std::size_t i) {
        const auto start = SteadyClock::now();
        results[i] = replayTrace(trace, configs[i]);
        wall_seconds[i] = secondsSince(start);
    };
    if (options.jobs == 1) {
        for (std::size_t i = 0; i < configs.size(); ++i)
            run(i);
    } else {
        TaskPool pool(options.jobs);
        pool.parallelFor(configs.size(), run);
    }
    return collectSeries(results, models, granularities, wall_seconds);
}

std::vector<double>
logLatencyGrid(double lo_ns, double hi_ns, unsigned points_per_decade)
{
    PERSIM_REQUIRE(lo_ns > 0.0 && hi_ns > lo_ns,
                   "grid needs 0 < lo < hi");
    PERSIM_REQUIRE(points_per_decade >= 1, "need at least one point");
    const double lo_exp = std::log10(lo_ns);
    const double hi_exp = std::log10(hi_ns);
    // Index the grid by integer step count: accumulating `e += step`
    // in floating point can fall just past hi_exp and drop the final
    // point for some points_per_decade.
    const auto steps = static_cast<std::uint64_t>(
        std::floor((hi_exp - lo_exp) * points_per_decade + 1e-6));
    std::vector<double> grid;
    grid.reserve(steps + 1);
    for (std::uint64_t i = 0; i <= steps; ++i)
        grid.push_back(std::pow(
            10.0, lo_exp + static_cast<double>(i) / points_per_decade));
    return grid;
}

double
breakEvenLatencyNs(std::uint64_t ops, double critical_path,
                   double instruction_rate)
{
    PERSIM_REQUIRE(instruction_rate > 0.0,
                   "instruction rate must be positive");
    if (critical_path <= 0.0)
        return std::numeric_limits<double>::infinity();
    return static_cast<double>(ops) * 1e9 /
        (critical_path * instruction_rate);
}

} // namespace persim
