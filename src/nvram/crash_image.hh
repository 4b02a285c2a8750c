/**
 * @file
 * The crash-image builder (DESIGN.md Section 10): a running
 * MemoryImage plus an undo log, and the CrashPlan it walks. The plan
 * is the one group table of a persist log: its coalescing groups in
 * (completion time, founder) order, which the cut checker's persist
 * DAG and the fault campaigns share. The cut checker backtracks on
 * the builder; crash-time sampling walks a plan's crash times in
 * ascending order, growing a base image by the device writes drained
 * in between and putting each sample's faults on top, undo-logged.
 * CrashPlan fails loudly on a log whose per-word log order disagrees
 * with its (completion time, founder) order, the one order in which
 * both agree with the observer's log-order definition.
 */

#ifndef PERSIM_NVRAM_CRASH_IMAGE_HH
#define PERSIM_NVRAM_CRASH_IMAGE_HH

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hh"
#include "nvram/faults.hh"
#include "persistency/persist_log.hh"
#include "sim/memory_image.hh"

namespace persim {

/**
 * What crash images of one log share, whatever the crash time. Groups
 * are the coalescing groups (persists merged into one atomic device
 * write: a Coalesced record joins its binding's group, any other
 * record founds one), numbered in plan order: completion time, then
 * founding record. Requires dense ids and backward coalescing
 * bindings. The plan keeps no reference to the log, so it may outlive
 * or move apart from it; a builder is given both.
 */
struct CrashPlan
{
    /** A plan of no groups. */
    CrashPlan() = default;

    CrashPlan(const PersistLog &log, const FaultConfig &faults);

    std::size_t groupCount() const { return issue.size(); }

    /** Log index of the founding record of group @p k. */
    std::uint32_t founder(std::size_t k) const { return members[begin[k]]; }

    /** Log indexes of the records of group @p k, in log order. */
    std::span<const std::uint32_t>
    membersOf(std::size_t k) const
    {
        return {members.data() + begin[k], members.data() + begin[k + 1]};
    }

    /** Records of group k are members[begin[k], begin[k + 1]). */
    std::vector<std::uint32_t> members;
    std::vector<std::uint32_t> begin{0};

    /** Group of each log record. */
    std::vector<std::uint32_t> group;

    /** Completion time of each group: when it enters the drain buffer. */
    std::vector<double> issue;

    /**
     * When each group leaves the drain buffer: its serial-drain finish
     * time with dropped drains on, else its issue time. Both columns
     * are non-decreasing, so at a crash at T the drained groups are a
     * prefix and [upper_bound(drained, T), upper_bound(issue, T)) are
     * still pending.
     */
    std::vector<double> drained;

    /** Records by (start, index), the tear candidates; empty unless
        torn persists are on. */
    std::vector<std::uint32_t> by_start;
};

/** A running crash image with an undo log. */
class CrashImageBuilder
{
  public:
    /** A builder for free-form writes. */
    CrashImageBuilder() = default;

    /** A builder that applies @p plan's groups of @p log, the log the
        plan was built from, and walks its crash times in ascending
        order. Both must outlive the builder. */
    CrashImageBuilder(const PersistLog &log, const CrashPlan &plan)
        : log_(&log), plan_(&plan)
    {
    }

    const MemoryImage &image() const { return image_; }

    const CrashPlan &
    plan() const
    {
        PERSIM_REQUIRE(plan_ != nullptr, "crash image builder has no plan");
        return *plan_;
    }

    /** The log of the plan's records. */
    const PersistLog &
    log() const
    {
        PERSIM_REQUIRE(log_ != nullptr, "crash image builder has no plan");
        return *log_;
    }

    /** The image as it stands; the undo log is discarded. */
    MemoryImage
    take()
    {
        undo_.clear();
        return std::move(image_);
    }

    /** Undo-logged writes. */
    void put(Addr addr, unsigned size, std::uint64_t value);
    void apply(const PersistRecord &r) { put(r.addr, r.size, r.value); }
    void applyGroup(std::size_t k); //!< Every record of plan group k.

    /** Undo every write made since @p mark, a value of mark(). */
    std::size_t mark() const { return undo_.size(); }
    void rollback(std::size_t mark);

    /**
     * Grow the base image, for good, by every group drained by
     * @p crash_time. Crash times may not decrease from call to call,
     * and no undo-logged write may be outstanding.
     */
    void advanceTo(double crash_time);

    /** Groups in the base image: a plan-order prefix. */
    std::size_t drainedGroups() const { return drained_; }

    /** Records in flight (start <= T < time) at the last advanceTo,
        in log order; tracked only when tears are on. */
    const std::vector<std::uint32_t> &inFlight() const { return in_flight_; }

  private:
    struct UndoEntry
    {
        Addr addr;
        std::uint8_t size;
        std::uint64_t old_value;
    };

    const PersistLog *log_ = nullptr;
    const CrashPlan *plan_ = nullptr;
    MemoryImage image_;
    std::vector<UndoEntry> undo_;
    double time_ = -std::numeric_limits<double>::infinity();
    std::size_t drained_ = 0;
    std::size_t started_ = 0; //!< by_start entries already in flight.
    std::vector<std::uint32_t> in_flight_;
};

} // namespace persim

#endif // PERSIM_NVRAM_CRASH_IMAGE_HH
