#include "recovery/recovery.hh"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "common/error.hh"
#include "common/rng.hh"
#include "nvram/faults.hh"

namespace persim {

MemoryImage
reconstructImage(const PersistLog &log, double crash_time)
{
    // A perfect device: the fault model with every class disabled.
    return FaultModel(FaultConfig{}).crashImage(log, crash_time, 0);
}

std::string
verifyLogConsistency(const PersistLog &log)
{
    std::unordered_map<std::uint64_t, double> last_time_by_word;
    for (std::size_t i = 0; i < log.size(); ++i) {
        const auto &record = log[i];
        if (record.id != i) {
            std::ostringstream oss;
            oss << "record " << i << " has id " << record.id;
            return oss.str();
        }
        if (record.start > record.time) {
            std::ostringstream oss;
            oss << "record " << i << " has an inverted in-flight "
                << "window [" << record.start << ", " << record.time
                << ")";
            return oss.str();
        }
        if (record.binding != invalid_persist) {
            if (record.binding >= i) {
                std::ostringstream oss;
                oss << "record " << i << " binds forward to "
                    << record.binding;
                return oss.str();
            }
            const double pred = log[record.binding].time;
            const bool coalesced =
                record.binding_source == DepSource::Coalesced;
            if (coalesced ? record.time != pred : record.time <= pred) {
                std::ostringstream oss;
                oss << "record " << i << " (t=" << record.time
                    << ") does not follow its binding "
                    << record.binding << " (t=" << pred << ", "
                    << depSourceName(record.binding_source) << ")";
                return oss.str();
            }
            // The device write begins when the binding completes: at
            // the group's start for a coalesced piece, at the binding
            // persist's completion time otherwise.
            const double expected_start =
                coalesced ? log[record.binding].start : pred;
            if (record.start != expected_start) {
                std::ostringstream oss;
                oss << "record " << i << " starts at " << record.start
                    << " but its binding " << record.binding
                    << " anchors it at " << expected_start;
                return oss.str();
            }
        } else if (record.start != 0.0) {
            std::ostringstream oss;
            oss << "record " << i
                << " is unconstrained yet starts at " << record.start;
            return oss.str();
        }
        // Strong persist atomicity: same-word persists never go back
        // in time.
        const std::uint64_t word = record.addr / 8;
        auto it = last_time_by_word.find(word);
        if (it != last_time_by_word.end() && record.time < it->second) {
            std::ostringstream oss;
            oss << "record " << i << " violates strong persist "
                << "atomicity at word 0x" << std::hex << record.addr;
            return oss.str();
        }
        last_time_by_word[word] =
            it == last_time_by_word.end()
            ? record.time : std::max(it->second, record.time);
    }
    return "";
}

PersistLog
stochasticLog(const InMemoryTrace &trace, const ModelConfig &model,
              std::uint64_t seed, double mean_latency)
{
    TimingConfig config;
    config.model = model;
    config.clock = ClockMode::Stochastic;
    config.seed = seed;
    config.mean_latency = mean_latency;
    config.record_log = true;
    PersistTimingEngine engine(config);
    trace.replay(engine);
    return engine.takeLog();
}

} // namespace persim
