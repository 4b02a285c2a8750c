#include "recovery/fault_campaign.hh"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "common/error.hh"
#include "common/rng.hh"
#include "common/task_pool.hh"
#include "nvram/crash_image.hh"

namespace persim {
namespace {

/** Per-realization partial result; merged in realization order. */
struct RealizationResult
{
    std::uint64_t samples = 0;
    std::uint64_t violations = 0;
    std::vector<ViolationRecord> recorded;
    /** The log held at most one persist: nothing was sampled, or the
        campaign's closed-form crash times were. */
    bool degenerate = false;
};

/**
 * Evaluate crash_times[c] of @p log for every c. Index c's fault
 * stream is mixSeed(realization_seed, c), so outcomes do not depend
 * on how the schedule was partitioned across workers. Samples are
 * built in ascending crash time on one CrashPlan (ties in index
 * order), and the first @p record_cap violations are reported in
 * index order.
 */
RealizationResult
runSamples(const FaultModel &model, const RecoveryInvariant &invariant,
           const PersistLog &log, const std::vector<double> &crash_times,
           std::uint64_t realization, std::uint64_t realization_seed,
           std::uint64_t record_cap)
{
    std::vector<std::uint32_t> order(crash_times.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return crash_times[a] != crash_times[b]
                      ? crash_times[a] < crash_times[b] : a < b;
              });

    const CrashPlan plan(log, model.config());
    CrashImageBuilder builder(log, plan);
    RealizationResult out;
    std::vector<ViolationRecord> found(crash_times.size());
    for (const std::uint32_t c : order) {
        const double t = crash_times[c];
        const std::uint64_t fault_seed = mixSeed(realization_seed, c);
        ++out.samples;
        builder.advanceTo(t);
        const std::size_t mark = builder.mark();
        FaultOutcome outcome;
        model.perturb(builder, t, fault_seed, &outcome);
        std::string verdict = invariant(builder.image());
        builder.rollback(mark);
        if (verdict.empty())
            continue;
        ++out.violations;
        ViolationRecord &violation = found[c];
        violation.realization = realization;
        violation.realization_seed = realization_seed;
        violation.crash_time = t;
        violation.fault_seed = fault_seed;
        violation.verdict = std::move(verdict);
        if (outcome.total() > 0)
            violation.fault_summary = outcome.summary();
    }
    for (ViolationRecord &violation : found) {
        if (out.recorded.size() >= record_cap)
            break;
        if (!violation.verdict.empty())
            out.recorded.push_back(std::move(violation));
    }
    return out;
}

/**
 * Evaluate one realization: its boundary samples ("nothing persisted",
 * "everything persisted") and then its crash-time fractions. A log of
 * at most one persist is left to the campaign's closed-form
 * evaluation: the result is only marked degenerate.
 */
RealizationResult
runRealization(const InMemoryTrace &trace,
               const FaultCampaignConfig &config,
               const FaultModel &model, const RecoveryInvariant &invariant,
               std::uint64_t realization, std::uint64_t realization_seed,
               const std::vector<double> &crash_fractions,
               std::uint64_t record_cap)
{
    const PersistLog log =
        stochasticLog(trace, config.injection.model, realization_seed);
    if (log.size() <= 1) {
        RealizationResult out;
        out.degenerate = true;
        return out;
    }
    double span = 0.0;
    for (const auto &record : log)
        span = std::max(span, record.time);

    std::vector<double> crash_times;
    crash_times.reserve(crash_fractions.size() + 2);
    crash_times.push_back(-1.0);       // Nothing persisted.
    crash_times.push_back(span + 1.0); // Everything persisted.
    for (const double fraction : crash_fractions)
        crash_times.push_back(fraction * span);
    return runSamples(model, invariant, log, crash_times, realization,
                      realization_seed, record_cap);
}

/** Fold one realization's partials into the campaign result. */
void
mergeRealization(InjectionResult &result, const RealizationResult &part,
                 std::uint64_t record_cap)
{
    result.samples += part.samples;
    result.violations += part.violations;
    for (const ViolationRecord &violation : part.recorded) {
        if (result.first_violation.empty()) {
            std::ostringstream oss;
            if (part.degenerate)
                oss << "degenerate log, crash t=";
            else
                oss << "realization " << violation.realization
                    << ", crash t=";
            oss << violation.crash_time << ": " << violation.verdict;
            if (!violation.fault_summary.empty())
                oss << " [" << violation.fault_summary << "]";
            result.first_violation = oss.str();
            result.first_violation_time = violation.crash_time;
        }
        if (result.violation_list.size() < record_cap)
            result.violation_list.push_back(violation);
    }
}

} // namespace

InjectionResult
runFaultCampaign(const InMemoryTrace &trace,
                 const FaultCampaignConfig &config,
                 const RecoveryInvariant &invariant)
{
    config.faults.validate();
    InjectionResult result;
    Rng rng(config.injection.seed);
    const FaultModel model(config.faults, trace);
    const std::uint64_t record_cap =
        config.injection.max_recorded_violations;

    // Draw the whole sampling schedule up front, in exactly the order
    // the serial loop always drew it (per realization: the timing
    // seed, then the crash-time fractions). The schedule is then
    // embarrassingly parallel and the merge below is deterministic,
    // so serial and parallel runs are bit-identical.
    const std::uint64_t realizations = config.injection.realizations;
    std::vector<std::uint64_t> seeds(realizations);
    std::vector<std::vector<double>> fractions(realizations);
    for (std::uint64_t r = 0; r < realizations; ++r) {
        seeds[r] = rng.next();
        fractions[r].resize(config.injection.crashes_per_realization);
        for (double &fraction : fractions[r])
            fraction = rng.nextDouble();
    }

    std::vector<RealizationResult> parts(realizations);
    const unsigned jobs = config.injection.jobs == 0
        ? TaskPool::defaultWorkers() : config.injection.jobs;
    auto body = [&](std::size_t r) {
        parts[r] = runRealization(trace, config, model, invariant, r,
                                  seeds[r], fractions[r], record_cap);
    };
    if (jobs <= 1 || realizations <= 1) {
        for (std::uint64_t r = 0; r < realizations; ++r)
            body(r);
    } else {
        TaskPool pool(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(jobs, realizations)));
        pool.parallelFor(realizations, body);
    }

    // Persist-log length does not depend on the stochastic seed
    // (fault_campaign_test pins it for every model), so the first
    // realization's log decides degeneracy and no separate probe
    // replay runs ahead of the fan-out.
    if (realizations == 0 || parts[0].degenerate) {
        const PersistLog log =
            stochasticLog(trace, config.injection.model,
                          config.injection.seed);
        if (log.size() <= 1) {
            // Degenerate traces have a closed-form crash-state set:
            // zero persists (including the empty trace) expose only
            // the empty image; one persist exposes exactly {empty,
            // that persist}. The log is the one the campaign seed
            // itself realizes.
            std::vector<double> crash_times{-1.0};
            if (log.size() == 1)
                crash_times.push_back(log[0].time + 1.0);
            RealizationResult part =
                runSamples(model, invariant, log, crash_times, 0,
                           config.injection.seed, record_cap);
            part.degenerate = true;
            mergeRealization(result, part, record_cap);
            return result;
        }
        PERSIM_ASSERT(realizations == 0,
                      "persist-log length changed with the "
                      "stochastic seed");
        return result;
    }
    for (std::uint64_t r = 0; r < realizations; ++r) {
        PERSIM_ASSERT(!parts[r].degenerate,
                      "persist-log length changed with the "
                      "stochastic seed");
        mergeRealization(result, parts[r], record_cap);
    }
    return result;
}

std::string
formatFaultRepro(const FaultRepro &repro)
{
    // %a round-trips the crash time exactly; seeds are hex words.
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "seed=0x%llx crash=%a fault_seed=0x%llx",
                  static_cast<unsigned long long>(
                      repro.realization_seed),
                  repro.crash_time,
                  static_cast<unsigned long long>(repro.fault_seed));
    return buf;
}

std::string
violationRepro(const ViolationRecord &violation)
{
    FaultRepro repro;
    repro.realization_seed = violation.realization_seed;
    repro.crash_time = violation.crash_time;
    repro.fault_seed = violation.fault_seed;
    std::ostringstream oss;
    oss << "repro " << formatFaultRepro(repro) << " # "
        << violation.verdict;
    if (!violation.fault_summary.empty())
        oss << " [" << violation.fault_summary << "]";
    return oss.str();
}

bool
parseFaultRepro(const std::string &line, FaultRepro &out)
{
    const std::size_t at = line.find("seed=");
    if (at == std::string::npos)
        return false;
    unsigned long long seed = 0;
    double crash = 0.0;
    unsigned long long fault_seed = 0;
    if (std::sscanf(line.c_str() + at,
                    "seed=%llx crash=%la fault_seed=%llx", &seed,
                    &crash, &fault_seed) != 3)
        return false;
    out.realization_seed = seed;
    out.crash_time = crash;
    out.fault_seed = fault_seed;
    return true;
}

std::string
replayFaultRepro(const InMemoryTrace &trace,
                 const FaultCampaignConfig &config,
                 const FaultRepro &repro,
                 const RecoveryInvariant &invariant,
                 FaultOutcome *outcome)
{
    config.faults.validate();
    const FaultModel model(config.faults, trace);
    const PersistLog log =
        stochasticLog(trace, config.injection.model,
                      repro.realization_seed);
    return invariant(model.crashImage(log, repro.crash_time,
                                      repro.fault_seed, outcome));
}

} // namespace persim
