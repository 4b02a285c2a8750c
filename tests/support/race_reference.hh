/**
 * @file
 * Test support: an offline reference for the timing engine's race
 * detection (TimingConfig::detect_races, DESIGN.md §14.2).
 *
 * referenceRaces() re-derives both rules from a trace plus the
 * persist log the engine recorded for it, without any engine state:
 *
 *  - UnorderedPersist: an SC shadow per tracking block. Each block
 *    remembers the latest persist ordered before its last access and
 *    the thread that made it; a thread accessing a block a foreign
 *    thread tagged inherits the tag as its shadow when it is later
 *    than the one it carries. A persist races when the thread's
 *    shadow completes after its race bound: its completion time when
 *    it coalesced, its start otherwise (every persist in its
 *    constraint cone completes by then).
 *  - DirtyRead (px86): a per-line owner, the last thread to write the
 *    line. A flush of the line clears it, and so does a barrier of any
 *    thread that wrote the line since its own last barrier (the
 *    barrier flushes it). An access by another thread while an owner
 *    is set is reported once per (owner's episode, accessing thread).
 *
 * The log supplies only each persist's id, times and binding source,
 * matched to the trace by sequence number; a log that does not line
 * up with the trace is a fatal error.
 */

#ifndef PERSIM_TESTS_SUPPORT_RACE_REFERENCE_HH
#define PERSIM_TESTS_SUPPORT_RACE_REFERENCE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/error.hh"
#include "memtrace/event.hh"
#include "memtrace/sink.hh"
#include "persistency/model.hh"
#include "persistency/persist_log.hh"

namespace persim::test {

/** Race counts of both rules. */
struct ReferenceRaces
{
    std::uint64_t unordered = 0;   //!< TimingResult::races
    std::uint64_t dirty_reads = 0; //!< TimingResult::dirty_reads
};

/**
 * Both race rules over @p trace, whose persists under @p model are
 * @p log (recorded with TimingConfig::record_log).
 */
inline ReferenceRaces
referenceRaces(const InMemoryTrace &trace, const PersistLog &log,
               const ModelConfig &model)
{
    struct ScTag
    {
        double t = 0.0;
        PersistId src = invalid_persist;
    };
    struct Block
    {
        ScTag tag;
        ThreadId tagger = invalid_thread;
    };
    struct Thread
    {
        ScTag shadow;
        ScTag own;
        std::vector<std::uint64_t> written_lines; //!< since last barrier
    };
    struct Line
    {
        ThreadId owner = invalid_thread;
        std::uint64_t reported = 0; //!< bit = tid & 63
    };

    const unsigned track_shift =
        std::countr_zero(model.tracking_granularity);
    const unsigned line_shift = std::countr_zero(model.atomic_granularity);
    const bool px86 = model.kind == ModelKind::Px86;

    std::unordered_map<std::uint64_t, Block> blocks;
    std::unordered_map<std::uint64_t, Line> lines;
    std::vector<Thread> threads;
    std::size_t next = 0;
    ReferenceRaces out;

    const auto threadOf = [&threads](ThreadId tid) -> Thread & {
        if (tid >= threads.size())
            threads.resize(tid + 1);
        return threads[tid];
    };
    // Every persist the event caused: race check, then own update.
    const auto persists = [&](const TraceEvent &event, std::size_t max) {
        Thread &thread = threadOf(event.thread);
        for (std::size_t n = 0; n < max && next < log.size() &&
             log[next].seq == event.seq; ++n) {
            const PersistRecord &record = log[next++];
            PERSIM_REQUIRE(record.thread == event.thread,
                           "persist " << record.id << " names thread "
                           << record.thread << ", its event "
                           << event.thread);
            const double bound =
                record.binding_source == DepSource::Coalesced
                ? record.time : record.start;
            if (thread.shadow.src != invalid_persist &&
                thread.shadow.t > bound)
                ++out.unordered;
            if (record.time > thread.own.t)
                thread.own = ScTag{record.time, record.id};
        }
    };
    const auto clearOwner = [&lines](std::uint64_t line) {
        const auto it = lines.find(line);
        if (it != lines.end())
            it->second.owner = invalid_thread;
    };

    for (const TraceEvent &event : trace.events()) {
        switch (event.kind) {
          case EventKind::Load:
          case EventKind::Store:
          case EventKind::Rmw:
            // The engine's 8-byte-aligned piece split.
            for (Addr addr = event.addr, end = event.addr + event.size;
                 addr < end;
                 addr = std::min<Addr>(end, (addr | 7) + 1)) {
                const bool persistent = isPersistentAddr(addr);
                const bool write = event.isWrite();
                Thread &thread = threadOf(event.thread);
                if (px86 && persistent) {
                    Line &line = lines[addr >> line_shift];
                    const std::uint64_t bit = 1ULL << (event.thread & 63);
                    if (line.owner != invalid_thread &&
                        line.owner != event.thread &&
                        (line.reported & bit) == 0) {
                        line.reported |= bit;
                        ++out.dirty_reads;
                    }
                    if (write) {
                        if (line.owner != event.thread)
                            line.reported = 0;
                        line.owner = event.thread;
                        thread.written_lines.push_back(addr >> line_shift);
                    }
                }
                Block &block = blocks[addr >> track_shift];
                if (block.tagger != invalid_thread &&
                    block.tagger != event.thread &&
                    block.tag.t > thread.shadow.t)
                    thread.shadow = block.tag;
                if (!px86 && persistent && write) {
                    PERSIM_REQUIRE(next < log.size() &&
                                   log[next].seq == event.seq,
                                   "no persist for the store at seq "
                                   << event.seq);
                    persists(event, 1);
                }
                const ScTag &best = thread.own.t > thread.shadow.t
                    ? thread.own : thread.shadow;
                if (best.src != invalid_persist && best.t > block.tag.t) {
                    block.tag = best;
                    block.tagger = event.thread;
                }
            }
            break;
          case EventKind::CacheFlush:
          case EventKind::CacheFlushOpt:
          case EventKind::CacheWriteBack:
            if (px86) {
                clearOwner(event.addr >> line_shift);
                persists(event, log.size());
            }
            break;
          case EventKind::PersistBarrier:
          case EventKind::PersistSync:
            if (px86) {
                Thread &thread = threadOf(event.thread);
                for (const std::uint64_t line : thread.written_lines)
                    clearOwner(line);
                thread.written_lines.clear();
                persists(event, log.size());
            }
            break;
          default:
            break;
        }
        PERSIM_REQUIRE(next == log.size() || log[next].seq > event.seq,
                       "persist " << log[next].id << " at seq "
                       << log[next].seq << " is left over after its "
                       "event");
    }
    PERSIM_REQUIRE(next == log.size(),
                   log.size() - next << " persists follow the trace");
    return out;
}

} // namespace persim::test

#endif // PERSIM_TESTS_SUPPORT_RACE_REFERENCE_HH
