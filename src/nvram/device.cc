#include "nvram/device.hh"

#include <algorithm>
#include <vector>

#include "common/bitops.hh"
#include "common/error.hh"

namespace persim {

NvramConfig
NvramConfig::pcmSlc()
{
    NvramConfig config;
    config.persist_latency_ns = 500.0;
    return config;
}

DeviceReplayResult
replayThroughDevice(const PersistLog &log, const NvramConfig &config)
{
    PERSIM_REQUIRE(config.persist_latency_ns > 0.0,
                   "persist latency must be positive");
    PERSIM_REQUIRE(config.banks == 0 ||
                   isPowerOfTwo(config.bank_interleave),
                   "bank interleave must be a power of two");

    DeviceReplayResult result;
    const double latency = config.persist_latency_ns;

    double max_finish = 0.0;
    double max_level = 0.0;
    std::vector<double> bank_free(std::max<std::uint32_t>(config.banks, 1),
                                  0.0);

    for (const auto &record : log) {
        max_level = std::max(max_level, record.time);
        if (record.binding_source == DepSource::Coalesced)
            continue; // Merged into an earlier device write.
        ++result.device_writes;

        // Ordering readiness: everything at a lower level is done.
        const double ready = (record.time - 1.0) * latency;
        double start = ready;
        if (config.banks > 0) {
            const std::uint64_t bank =
                blockIndex(record.addr, config.bank_interleave) %
                config.banks;
            if (bank_free[bank] > start) {
                start = bank_free[bank];
                ++result.bank_stalls;
            }
            bank_free[bank] = start + latency;
        }
        max_finish = std::max(max_finish, start + latency);
    }

    result.total_ns = max_finish;
    result.ordering_bound_ns = max_level * latency;
    return result;
}

} // namespace persim
