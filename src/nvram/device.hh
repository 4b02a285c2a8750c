/**
 * @file
 * NVRAM device timing model.
 *
 * The paper's headline evaluation assumes an idealized device:
 * infinite bandwidth and banks, so persist throughput is limited only
 * by the ordering-constraint critical path. This module supplies the
 * device parameters (persist latency, per Section 2.1 up to ~1us for
 * PCM-class cells) and a finite-bank scheduler ablation that replays
 * a persist log through B banks to show where device contention, not
 * ordering, becomes the bottleneck.
 */

#ifndef PERSIM_NVRAM_DEVICE_HH
#define PERSIM_NVRAM_DEVICE_HH

#include <cstdint>
#include <string>

#include "persistency/persist_log.hh"

namespace persim {

/** Device parameters. */
struct NvramConfig
{
    /** Persist latency in nanoseconds. */
    double persist_latency_ns = 500.0;

    /** Number of independent banks (0 = infinite, the paper's model). */
    std::uint32_t banks = 0;

    /** Bytes per bank interleave granule. */
    std::uint64_t bank_interleave = 256;

    /** Single-level-cell phase change memory (Section 2.1). */
    static NvramConfig pcmSlc();
};

/** Result of replaying a persist log through the device model. */
struct DeviceReplayResult
{
    /** Wall-clock nanoseconds until the last persist completes. */
    double total_ns = 0.0;

    /** Lower bound from ordering alone (critical path * latency). */
    double ordering_bound_ns = 0.0;

    /** Persists executed (coalesced pieces merge into one persist). */
    std::uint64_t device_writes = 0;

    /** Persists that waited on a busy bank. */
    std::uint64_t bank_stalls = 0;
};

/**
 * Replay a level-clock persist log through a finite-bank device.
 *
 * Each persist may start once its ordering level allows (level L
 * starts no earlier than (L-1) completion, approximated as
 * (L-1) * latency, which is exact for the infinite-bank model) and
 * once its bank is free. Coalesced pieces do not occupy a bank slot.
 * With banks == 0 this reduces to critical_path * latency.
 */
DeviceReplayResult replayThroughDevice(const PersistLog &log,
                                       const NvramConfig &config);

} // namespace persim

#endif // PERSIM_NVRAM_DEVICE_HH
