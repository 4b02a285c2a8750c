#include "nvram/crash_image.hh"

#include <algorithm>
#include <numeric>

#include "common/flat_map.hh"
#include "nvram/drain_sim.hh"

namespace persim {

CrashPlan::CrashPlan(const PersistLog &log, const FaultConfig &faults)
{
    // Coalescing groups in founding order: a Coalesced record joins
    // the group of the member it merged behind, any other founds one.
    group.resize(log.size());
    std::vector<std::uint32_t> founders;
    for (std::size_t i = 0; i < log.size(); ++i) {
        const PersistRecord &record = log[i];
        PERSIM_REQUIRE(record.id == i, "persist log ids must be dense");
        if (record.binding_source == DepSource::Coalesced) {
            PERSIM_REQUIRE(record.binding < i,
                           "coalesced record binds forward");
            group[i] = group[record.binding];
        } else {
            group[i] = static_cast<std::uint32_t>(founders.size());
            founders.push_back(static_cast<std::uint32_t>(i));
        }
    }

    // Plan order: completion time, then founding record (= founding
    // order). Constraint edges strictly increase completion time, so
    // this order is also topological for the persist DAG.
    const std::size_t n = founders.size();
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    auto done = [&](std::uint32_t g) { return log[founders[g]].time; };
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return done(a) != done(b) ? done(a) < done(b) : a < b;
              });
    std::vector<std::uint32_t> pos(n);
    issue.resize(n);
    begin.assign(n + 1, 0);
    for (std::uint32_t k = 0; k < n; ++k) {
        pos[order[k]] = k;
        issue[k] = done(order[k]);
    }
    for (std::uint32_t &g : group) {
        g = pos[g];
        ++begin[g + 1];
    }
    std::partial_sum(begin.begin(), begin.end(), begin.begin());
    members.resize(log.size());
    std::vector<std::uint32_t> fill(begin.begin(), begin.end() - 1);

    // Place each record, checking that it follows, in plan order, the
    // last earlier record that wrote any of its words.
    PagedIndexMap words;
    std::vector<std::uint32_t> last_writer;
    for (std::uint32_t i = 0; i < log.size(); ++i) {
        const PersistRecord &record = log[i];
        const std::uint32_t at = group[i];
        members[fill[at]++] = i;
        for (Addr word = record.addr / 8;
             word <= (record.addr + record.size - 1) / 8; ++word) {
            bool inserted = false;
            const std::uint32_t slot = words.findOrInsert(word, inserted);
            if (inserted)
                last_writer.push_back(i);
            const std::uint32_t prev = last_writer[slot];
            PERSIM_REQUIRE(group[prev] <= at,
                           "persist log order disagrees with completion "
                           "order at word 0x"
                               << std::hex << word * 8 << std::dec
                               << ": record " << prev << " (t="
                               << log[prev].time << ") precedes record "
                               << i << " (t=" << record.time
                               << ") in the log but completes after it");
            last_writer[slot] = i;
        }
    }

    drained = faults.drop_drain_p > 0.0
        ? drainFinishTimes(issue, faults.drain_latency) : issue;
    if (faults.tear_persists) {
        by_start.resize(log.size());
        std::iota(by_start.begin(), by_start.end(), 0);
        std::sort(by_start.begin(), by_start.end(),
                  [&log](std::uint32_t a, std::uint32_t b) {
                      return log[a].start != log[b].start
                          ? log[a].start < log[b].start : a < b;
                  });
    }
}

void
CrashImageBuilder::put(Addr addr, unsigned size, std::uint64_t value)
{
    const std::uint64_t old = image_.exchange(addr, size, value);
    undo_.push_back(UndoEntry{addr, static_cast<std::uint8_t>(size), old});
}

void
CrashImageBuilder::rollback(std::size_t mark)
{
    for (; undo_.size() > mark; undo_.pop_back())
        image_.store(undo_.back().addr, undo_.back().size,
                     undo_.back().old_value);
}

void
CrashImageBuilder::applyGroup(std::size_t k)
{
    const PersistLog &records = log();
    for (const std::uint32_t i : plan().membersOf(k))
        apply(records[i]);
}

void
CrashImageBuilder::advanceTo(double crash_time)
{
    const CrashPlan &p = plan();
    const PersistLog &records = log();
    PERSIM_REQUIRE(undo_.empty() && crash_time >= time_,
                   "crash image advanced backwards or with writes "
                   "outstanding");
    time_ = crash_time;
    const auto end = static_cast<std::size_t>(
        std::upper_bound(p.drained.begin(), p.drained.end(), crash_time) -
        p.drained.begin());
    for (; drained_ < end; ++drained_) {
        for (const std::uint32_t i : p.membersOf(drained_)) {
            const PersistRecord &record = records[i];
            image_.store(record.addr, record.size, record.value);
        }
    }

    // In flight: started, not complete (and never again, as T grows).
    const std::size_t started = started_;
    while (started_ < p.by_start.size() &&
           records[p.by_start[started_]].start <= crash_time)
        in_flight_.push_back(p.by_start[started_++]);
    std::erase_if(in_flight_, [&](std::uint32_t i) {
        return records[i].time <= crash_time;
    });
    if (started_ != started)
        std::sort(in_flight_.begin(), in_flight_.end());
}

} // namespace persim
