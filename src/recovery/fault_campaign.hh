/**
 * @file
 * Device-fault injection campaigns.
 *
 * runFaultCampaign is the recovery observer's failure injection
 * (recovery.hh), extended with the device-fault model of
 * src/nvram/faults.hh: each sampled crash state is perturbed by torn
 * persists, wear-scaled media errors, and dropped drain-buffer writes
 * before the recovery invariant runs. With the default FaultConfig
 * (every fault class disabled) it is plain failure injection over a
 * perfect device: one code path serves both, so the fault machinery
 * can never drift away from the baseline observer semantics.
 *
 * The campaign fans realizations out over the shared TaskPool
 * (InjectionConfig::jobs) and aggregates deterministically: serial
 * and parallel runs produce identical InjectionResults, because the
 * full sampling schedule (realization seeds, crash-time fractions) is
 * drawn up front in the legacy order and per-sample fault seeds are
 * derived by mixing, never by drawing. Within a realization the
 * samples share one CrashPlan and are built in ascending crash time
 * by the crash-image builder (nvram/crash_image.hh).
 *
 * Every violation carries enough state to replay exactly: the timing
 * realization seed, the crash time (serialized as a hex float, so the
 * double round-trips), and the fault seed. formatFaultRepro /
 * parseFaultRepro / replayFaultRepro close the loop.
 */

#ifndef PERSIM_RECOVERY_FAULT_CAMPAIGN_HH
#define PERSIM_RECOVERY_FAULT_CAMPAIGN_HH

#include <cstdint>
#include <string>

#include "memtrace/sink.hh"
#include "nvram/faults.hh"
#include "recovery/recovery.hh"

namespace persim {

/** Failure injection plus a device-fault model. */
struct FaultCampaignConfig
{
    /** Timing realizations, crash sampling, seed, parallelism. */
    InjectionConfig injection;

    /** Device faults applied to each crash image (default: none). */
    FaultConfig faults = {};
};

/**
 * Run a device-fault injection campaign: for each stochastic
 * realization of persist completion times under the model, sample
 * crash times (uniformly over the realization's time span, plus the
 * boundary cases "nothing persisted" and "everything persisted"),
 * perturb each image through the fault model, and check the
 * invariant. The invariant must be thread-safe when
 * injection.jobs != 1 (the stock makeRecoveryInvariant /
 * makeDetectAndDiscardInvariant / makeLogRecoveryInvariant closures
 * are: they only read captured state).
 */
InjectionResult runFaultCampaign(const InMemoryTrace &trace,
                                 const FaultCampaignConfig &config,
                                 const RecoveryInvariant &invariant);

/** The replayable coordinates of one sampled crash state. */
struct FaultRepro
{
    std::uint64_t realization_seed = 0; //!< Stochastic-clock seed.
    double crash_time = -1.0;           //!< Exact sampled crash time.
    std::uint64_t fault_seed = 0;       //!< Per-sample fault stream.
};

/** "seed=0x... crash=<hexfloat> fault_seed=0x..." — parseable. */
std::string formatFaultRepro(const FaultRepro &repro);

/** Repro line for a recorded violation. */
std::string violationRepro(const ViolationRecord &violation);

/** Parse a formatFaultRepro line (leading text is ignored).
    @return False when no repro triple is present. */
bool parseFaultRepro(const std::string &line, FaultRepro &out);

/**
 * Re-evaluate a single sampled crash state: rebuild the timing
 * realization from the repro's seed, perturb it with the campaign's
 * fault model under the repro's fault seed, and run the invariant.
 * @return The invariant verdict (empty when recovery succeeds).
 */
std::string replayFaultRepro(const InMemoryTrace &trace,
                             const FaultCampaignConfig &config,
                             const FaultRepro &repro,
                             const RecoveryInvariant &invariant,
                             FaultOutcome *outcome = nullptr);

} // namespace persim

#endif // PERSIM_RECOVERY_FAULT_CAMPAIGN_HH
