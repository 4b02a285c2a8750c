/**
 * @file
 * Device-fault model for the recovery observer.
 *
 * The paper's recovery observer (Section 4) assumes a perfect device:
 * every atomic persist piece lands all-or-nothing, exactly the
 * persists with completion time <= T are durable at a crash at T, and
 * bits never rot. Real NVRAM breaks all three assumptions, and
 * recovery code that survives only clean crashes has not been tested
 * at all ("Lost in Interpretation", Klimis et al.). FaultModel
 * perturbs a crash image with three seeded, independently
 * configurable fault classes:
 *
 *  - torn persists: a persist whose in-flight window [start, time)
 *    contains the crash instant lands partially — each aligned
 *    `atomic_write_unit` chunk of the piece lands independently.
 *    Pieces no larger than the device write unit remain
 *    all-or-nothing (they may land early, but never torn);
 *  - media errors: wear-induced corruption ("Loose-Ordering
 *    Consistency", Lu et al.): each wear block suffers a bit fault
 *    with probability 1 - (1-p)^writes, where the per-block write
 *    counts come from an EnduranceTracker run over the trace;
 *  - dropped drains: persists that completed in the timing model but
 *    were still queued in the drain buffer (drain_sim's serial-drain
 *    law) vanish at failure with probability drop_drain_p each,
 *    modeling a write queue lost out of order at power failure.
 *
 * Every perturbation is a pure function of (log, crash time, fault
 * seed), so any observed violation replays exactly from its recorded
 * seeds. Images are built by nvram/crash_image.hh; with all fault
 * classes disabled, crashImage() is recovery's reconstructImage().
 */

#ifndef PERSIM_NVRAM_FAULTS_HH
#define PERSIM_NVRAM_FAULTS_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "memtrace/sink.hh"
#include "persistency/persist_log.hh"
#include "sim/memory_image.hh"

namespace persim {

class CrashImageBuilder;

/** How a media fault corrupts the afflicted bit. */
enum class MediaFaultKind : std::uint8_t {
    BitFlip,     //!< The bit inverts.
    StuckAtZero, //!< The bit reads 0 regardless of what was written.
    StuckAtOne,  //!< The bit reads 1 regardless of what was written.
};

/** Human-readable media fault kind. */
const char *mediaFaultKindName(MediaFaultKind kind);

/** Device-fault model configuration. All faults default off. */
struct FaultConfig
{
    /**
     * Device atomic write unit in bytes (power of two, 1..8). Persist
     * pieces larger than this can tear; at 8 (the modeled persists'
     * maximum piece size) tearing only makes in-flight pieces land
     * early, never partially.
     */
    std::uint32_t atomic_write_unit = 8;

    /** Enable torn persists for crash times inside a persist's
        in-flight window. */
    bool tear_persists = false;

    /** Probability each atomic unit of an in-flight persist landed. */
    double tear_land_p = 0.5;

    /**
     * Per-write probability that a write injures its wear block; a
     * block with w writes fails with probability 1 - (1-p)^w, so
     * hot blocks (EnduranceTracker's wear counts) fail first.
     * 0 disables media errors.
     */
    double media_error_per_write = 0.0;

    /** What a media fault does to the corrupted bit. */
    MediaFaultKind media_kind = MediaFaultKind::BitFlip;

    /** Wear-tracking block size (must match the EnduranceTracker). */
    std::uint64_t wear_block_bytes = 64;

    /**
     * Probability that each persist still queued in the drain buffer
     * at the crash instant vanishes. 0 disables dropped drains.
     */
    double drop_drain_p = 0.0;

    /**
     * Serial drain service time per device write, in the same units
     * as the persist log's clock (the drain_sim law determines which
     * writes are still pending at the crash).
     */
    double drain_latency = 0.25;

    /** True when any fault class is active. */
    bool enabled() const
    {
        return tear_persists || media_error_per_write > 0.0 ||
               drop_drain_p > 0.0;
    }

    /** Validate parameters; fatals when invalid. */
    void validate() const;
};

/** One applied perturbation, for replayable violation reports. */
struct FaultInjection
{
    enum class Kind : std::uint8_t {
        TornPersist,
        MediaError,
        DroppedDrain,
    };

    Kind kind = Kind::TornPersist;
    PersistId persist = invalid_persist; //!< Torn/dropped persist id.
    Addr addr = 0;          //!< Piece address / corrupted byte.
    std::uint8_t bit = 0;   //!< Media: afflicted bit index.
    std::uint8_t landed_units = 0; //!< Torn: units that landed...
    std::uint8_t total_units = 0;  //!< ...out of this many.

    /** One-line description. */
    std::string describe() const;
};

/** Everything a crashImage() call perturbed. */
struct FaultOutcome
{
    /** Cap on the `injected` detail list (counters are exact). */
    static constexpr std::size_t max_recorded = 64;

    std::uint64_t torn_persists = 0;  //!< In-flight persists (partially)
                                      //!< landed.
    std::uint64_t media_errors = 0;   //!< Bytes corrupted by wear.
    std::uint64_t dropped_drains = 0; //!< Completed persists lost from
                                      //!< the drain buffer.

    /** Detail of the first `max_recorded` injections. */
    std::vector<FaultInjection> injected;

    std::uint64_t total() const
    {
        return torn_persists + media_errors + dropped_drains;
    }

    /** Append an injection, bumping its counter. */
    void record(const FaultInjection &injection);

    /** "3 faults (1 torn, 2 media, 0 dropped): ..." */
    std::string summary() const;
};

/** Deterministic seed derivation (splitmix64 over both halves). */
std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b);

/** A configured device-fault model over one trace's wear profile. */
class FaultModel
{
  public:
    /** Model with an explicit wear profile (block index -> writes). */
    FaultModel(const FaultConfig &config,
               std::unordered_map<std::uint64_t, std::uint64_t> wear =
                   {});

    /**
     * Model whose wear profile is measured from @p trace with an
     * EnduranceTracker at config.wear_block_bytes granularity (only
     * when media errors are enabled; otherwise the replay is skipped).
     */
    FaultModel(const FaultConfig &config, const InMemoryTrace &trace);

    const FaultConfig &config() const { return config_; }

    /**
     * Build the crash image at @p crash_time under the fault model.
     * Pure function of (log, crash_time, fault_seed): replaying the
     * same triple reproduces the image bit-for-bit. With every fault
     * class disabled this equals recovery's reconstructImage().
     */
    MemoryImage crashImage(const PersistLog &log, double crash_time,
                           std::uint64_t fault_seed,
                           FaultOutcome *outcome = nullptr) const;

    /**
     * Put one sample's faults on @p builder's base image, undo-logged
     * and in this order: pending device writes not dropped, torn
     * pieces in log order, media errors. The builder's plan must use
     * this model's config.
     */
    void perturb(CrashImageBuilder &builder, double crash_time,
                 std::uint64_t fault_seed,
                 FaultOutcome *outcome = nullptr) const;

  private:
    FaultConfig config_;
    /** (wear block, failure probability 1 - (1-p)^writes), sorted by
        block index (deterministic iteration). */
    std::vector<std::pair<std::uint64_t, double>> wear_;
};

} // namespace persim

#endif // PERSIM_NVRAM_FAULTS_HH
