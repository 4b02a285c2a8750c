#include "nvram/faults.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/bitops.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "nvram/crash_image.hh"
#include "nvram/endurance.hh"

namespace persim {
namespace {

// Domain-separation salts so the three fault classes draw from
// unrelated streams even under the same fault seed.
constexpr std::uint64_t tear_salt = 0x7465617270727374ULL;
constexpr std::uint64_t media_salt = 0x6d656469616572ULL;
constexpr std::uint64_t drain_salt = 0x647261696e647270ULL;

/** Writes per wear block of @p trace; only media errors read them. */
std::unordered_map<std::uint64_t, std::uint64_t>
measuredWear(const FaultConfig &config, const InMemoryTrace &trace)
{
    if (config.media_error_per_write <= 0.0)
        return {};
    config.validate(); // Before the tracker sees the block size.
    EnduranceTracker tracker(config.wear_block_bytes);
    trace.replay(tracker);
    return tracker.counts();
}

} // namespace

const char *
mediaFaultKindName(MediaFaultKind kind)
{
    switch (kind) {
    case MediaFaultKind::BitFlip:
        return "bit-flip";
    case MediaFaultKind::StuckAtZero:
        return "stuck-at-0";
    case MediaFaultKind::StuckAtOne:
        return "stuck-at-1";
    }
    return "?";
}

void
FaultConfig::validate() const
{
    PERSIM_REQUIRE(isPowerOfTwo(atomic_write_unit) &&
                       atomic_write_unit <= max_access_size,
                   "atomic write unit must be a power of two in 1..8");
    PERSIM_REQUIRE(tear_land_p >= 0.0 && tear_land_p <= 1.0,
                   "tear land probability must be in [0, 1]");
    PERSIM_REQUIRE(media_error_per_write >= 0.0 &&
                       media_error_per_write <= 1.0,
                   "media error probability must be in [0, 1]");
    PERSIM_REQUIRE(isPowerOfTwo(wear_block_bytes),
                   "wear block size must be a power of two");
    PERSIM_REQUIRE(drop_drain_p >= 0.0 && drop_drain_p <= 1.0,
                   "drain drop probability must be in [0, 1]");
    PERSIM_REQUIRE(drop_drain_p == 0.0 || drain_latency > 0.0,
                   "drain latency must be positive");
}

std::string
FaultInjection::describe() const
{
    char buf[128];
    switch (kind) {
    case Kind::TornPersist:
        std::snprintf(buf, sizeof(buf),
                      "torn persist %llu @0x%llx (%u/%u units landed)",
                      static_cast<unsigned long long>(persist),
                      static_cast<unsigned long long>(addr),
                      static_cast<unsigned>(landed_units),
                      static_cast<unsigned>(total_units));
        break;
    case Kind::MediaError:
        std::snprintf(buf, sizeof(buf), "media error @0x%llx bit %u",
                      static_cast<unsigned long long>(addr),
                      static_cast<unsigned>(bit));
        break;
    case Kind::DroppedDrain:
        std::snprintf(buf, sizeof(buf),
                      "dropped drain of persist %llu @0x%llx",
                      static_cast<unsigned long long>(persist),
                      static_cast<unsigned long long>(addr));
        break;
    }
    return buf;
}

void
FaultOutcome::record(const FaultInjection &injection)
{
    switch (injection.kind) {
    case FaultInjection::Kind::TornPersist:
        ++torn_persists;
        break;
    case FaultInjection::Kind::MediaError:
        ++media_errors;
        break;
    case FaultInjection::Kind::DroppedDrain:
        ++dropped_drains;
        break;
    }
    if (injected.size() < max_recorded)
        injected.push_back(injection);
}

std::string
FaultOutcome::summary() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "%llu faults (%llu torn, %llu media, %llu dropped)",
                  static_cast<unsigned long long>(total()),
                  static_cast<unsigned long long>(torn_persists),
                  static_cast<unsigned long long>(media_errors),
                  static_cast<unsigned long long>(dropped_drains));
    std::string out = buf;
    const char *sep = ": ";
    for (const FaultInjection &injection : injected) {
        out += sep;
        out += injection.describe();
        sep = "; ";
    }
    return out;
}

std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    // splitmix64 finalizer over a combination of both halves; the
    // golden-ratio offsets keep (0, 0) and friends well away from 0.
    std::uint64_t z = a + 0x9e3779b97f4a7c15ULL +
                      (b ^ 0xbf58476d1ce4e5b9ULL) * 0x94d049bb133111ebULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

FaultModel::FaultModel(
    const FaultConfig &config,
    std::unordered_map<std::uint64_t, std::uint64_t> wear)
    : config_(config)
{
    config_.validate();
    for (const auto &[block, writes] : wear)
        wear_.emplace_back(
            block, 1.0 - std::pow(1.0 - config_.media_error_per_write,
                                  static_cast<double>(writes)));
    std::sort(wear_.begin(), wear_.end());
}

FaultModel::FaultModel(const FaultConfig &config,
                       const InMemoryTrace &trace)
    : FaultModel(config, measuredWear(config, trace))
{
}

void
FaultModel::perturb(CrashImageBuilder &builder, double crash_time,
                    std::uint64_t fault_seed, FaultOutcome *outcome) const
{
    const CrashPlan &plan = builder.plan();
    const PersistLog &log = builder.log();
    auto record = [outcome](const FaultInjection &injection) {
        if (outcome)
            outcome->record(injection);
    };

    // Dropped drains. The buffer holds device writes, i.e. coalescing
    // groups, in completion order: a group drains or vanishes whole.
    if (config_.drop_drain_p > 0.0) {
        Rng rng(mixSeed(fault_seed, drain_salt));
        const auto issued = static_cast<std::size_t>(
            std::upper_bound(plan.issue.begin(), plan.issue.end(),
                             crash_time) - plan.issue.begin());
        for (std::size_t k = builder.drainedGroups(); k < issued; ++k) {
            if (!rng.nextBool(config_.drop_drain_p)) {
                builder.applyGroup(k);
                continue;
            }
            FaultInjection injection;
            injection.kind = FaultInjection::Kind::DroppedDrain;
            injection.persist = log[plan.founder(k)].id;
            injection.addr = log[plan.founder(k)].addr;
            record(injection);
        }
    }

    // Torn persists: the crash fell inside [start, time). Each aligned
    // atomic unit lands independently, from a per-record stream, so
    // the outcome does not depend on which other records exist.
    for (const std::uint32_t i : builder.inFlight()) {
        const PersistRecord &piece = log[i];
        Rng rng(mixSeed(mixSeed(fault_seed, tear_salt), piece.id));
        const std::uint64_t unit = config_.atomic_write_unit;
        const Addr end = piece.addr + piece.size;
        FaultInjection injection;
        injection.kind = FaultInjection::Kind::TornPersist;
        injection.persist = piece.id;
        injection.addr = piece.addr;
        for (Addr pos = piece.addr; pos < end;) {
            const Addr chunk_end =
                std::min<Addr>(end, blockBase(pos, unit) + unit);
            ++injection.total_units;
            if (rng.nextBool(config_.tear_land_p)) {
                ++injection.landed_units;
                builder.put(pos, static_cast<unsigned>(chunk_end - pos),
                            piece.value >> (8 * (pos - piece.addr)));
            }
            pos = chunk_end;
        }
        if (injection.landed_units > 0)
            record(injection);
    }

    // Media errors: wear-scaled corruption over the whole image.
    if (config_.media_error_per_write <= 0.0)
        return;
    const std::uint64_t media_seed = mixSeed(fault_seed, media_salt);
    for (const auto &[block, fail_p] : wear_) {
        Rng rng(mixSeed(media_seed, block));
        if (!rng.nextBool(fail_p))
            continue;
        const Addr addr = block * config_.wear_block_bytes +
                          rng.nextBounded(config_.wear_block_bytes);
        const auto bit = static_cast<std::uint8_t>(rng.nextBounded(8));
        const auto mask = static_cast<std::uint8_t>(1u << bit);
        const auto before =
            static_cast<std::uint8_t>(builder.image().load(addr, 1));
        std::uint8_t after = before ^ mask;
        if (config_.media_kind == MediaFaultKind::StuckAtZero)
            after = before & ~mask;
        else if (config_.media_kind == MediaFaultKind::StuckAtOne)
            after = before | mask;
        if (after == before)
            continue; // Stuck-at matching the stored bit is invisible.
        builder.put(addr, 1, after);
        FaultInjection injection;
        injection.kind = FaultInjection::Kind::MediaError;
        injection.addr = addr;
        injection.bit = bit;
        record(injection);
    }
}

MemoryImage
FaultModel::crashImage(const PersistLog &log, double crash_time,
                       std::uint64_t fault_seed,
                       FaultOutcome *outcome) const
{
    const CrashPlan plan(log, config_);
    CrashImageBuilder builder(log, plan);
    builder.advanceTo(crash_time);
    perturb(builder, crash_time, fault_seed, outcome);
    return builder.take();
}

} // namespace persim
