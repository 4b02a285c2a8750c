/**
 * @file
 * The recovery observer (paper Section 4).
 *
 * The paper reasons about failure via a recovery observer that
 * atomically reads all of persistent memory at the moment of failure;
 * the states it may observe are exactly the downward-closed cuts of
 * the persist partial order. This module realizes the observer:
 *
 *  - run the trace through a stochastic-clock timing engine, giving
 *    each persist a completion time that respects every constraint of
 *    the chosen persistency model (a random realization of NVRAM
 *    completion);
 *  - crash at time T: the persistent image contains precisely the
 *    persists with completion time <= T (a legal cut by
 *    construction);
 *  - reconstruct the image and run a workload-specific recovery
 *    invariant against it.
 *
 * Failure injection (runFaultCampaign in fault_campaign.hh; its
 * default FaultConfig is fault-free) sweeps many crash times over many
 * stochastic realizations; a single surviving violation proves the
 * annotation scheme insufficient for the model (this is how the tests
 * demonstrate that Algorithm 1's barriers are required).
 */

#ifndef PERSIM_RECOVERY_RECOVERY_HH
#define PERSIM_RECOVERY_RECOVERY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "memtrace/sink.hh"
#include "persistency/model.hh"
#include "persistency/persist_log.hh"
#include "persistency/timing_engine.hh"
#include "sim/memory_image.hh"

namespace persim {

/**
 * Reconstruct the persistent memory image at crash time @p crash_time
 * from a persist log: the image of applying, in trace order, every
 * record whose completion time is <= crash_time. (Same-address
 * persists have non-decreasing times — strong persist atomicity — so
 * trace order resolves ties, including coalesced groups.) Built by
 * nvram/crash_image.hh, which fails loudly on a log whose per-word
 * trace order disagrees with completion order.
 */
MemoryImage reconstructImage(const PersistLog &log, double crash_time);

/**
 * Validate internal consistency of a persist log:
 *  - each record's time is >= its binding dependence's time, strictly
 *    greater unless coalesced;
 *  - persists to the same (8-byte) address have non-decreasing times;
 *  - each record's in-flight window [start, time) is well-formed and
 *    anchored to its binding: a non-coalesced persist starts when its
 *    binding dependence completes, a coalesced piece shares its
 *    group's start, and an unconstrained persist starts at 0.
 * @return Empty string if consistent, else a description.
 */
std::string verifyLogConsistency(const PersistLog &log);

/**
 * A workload-specific recovery invariant: inspects a crashed image
 * and returns an empty string when recovery would succeed, else a
 * description of the corruption.
 */
using RecoveryInvariant = std::function<std::string(const MemoryImage &)>;

/**
 * One invariant failure, with everything needed to replay the exact
 * crash state that produced it (see fault_campaign.hh's
 * formatFaultRepro / replayFaultRepro).
 */
struct ViolationRecord
{
    std::uint64_t realization = 0;      //!< Realization index.
    std::uint64_t realization_seed = 0; //!< Stochastic-clock seed.
    double crash_time = -1.0;           //!< Sampled crash time.
    std::uint64_t fault_seed = 0;       //!< Per-sample fault stream.
    std::string verdict;                //!< Invariant output.
    std::string fault_summary;          //!< Injected faults (empty on
                                        //!< a fault-free campaign).
};

/** Outcome of a failure-injection campaign. */
struct InjectionResult
{
    std::uint64_t samples = 0;    //!< Crash states examined.
    std::uint64_t violations = 0; //!< States failing the invariant.
    std::string first_violation;  //!< Description of the first failure.
    double first_violation_time = -1.0;

    /** First InjectionConfig::max_recorded_violations failures, in
        deterministic (realization, crash index) order. */
    std::vector<ViolationRecord> violation_list;

    bool ok() const { return violations == 0; }
};

/** Failure-injection campaign parameters. */
struct InjectionConfig
{
    ModelConfig model;

    /** Independent stochastic timing realizations. */
    std::uint64_t realizations = 4;

    /** Crash times sampled per realization. */
    std::uint64_t crashes_per_realization = 64;

    /** Seed for timing realizations and crash-time sampling. */
    std::uint64_t seed = 1;

    /** Mean persist latency for the stochastic clock. */
    double mean_latency = 1.0;

    /** Worker threads for the realization fan-out on the shared
        TaskPool: 1 = run inline, 0 = hardware concurrency. Results
        are bit-identical at any setting. */
    unsigned jobs = 1;

    /** Cap on InjectionResult::violation_list. */
    std::uint64_t max_recorded_violations = 16;
};

/**
 * Convenience: analyze @p trace with a stochastic clock under
 * @p model and return the persist log.
 */
PersistLog stochasticLog(const InMemoryTrace &trace,
                         const ModelConfig &model, std::uint64_t seed,
                         double mean_latency = 1.0);

} // namespace persim

#endif // PERSIM_RECOVERY_RECOVERY_HH
