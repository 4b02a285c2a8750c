/**
 * @file
 * Summary statistics over a trace, computed as a streaming sink.
 */

#ifndef PERSIM_MEMTRACE_TRACE_STATS_HH
#define PERSIM_MEMTRACE_TRACE_STATS_HH

#include <string>
#include <vector>

#include "memtrace/sink.hh"

namespace persim {

/** Counts events by kind, address space, and thread. A thread id of
    compiled_max_threads or more is refused (FatalError naming it). */
class TraceStats : public TraceSink
{
  public:
    void onEvent(const TraceEvent &event) override;

    std::uint64_t totalEvents() const { return total_events_; }
    std::uint64_t loads() const { return loads_; }
    std::uint64_t stores() const { return stores_; }
    std::uint64_t rmws() const { return rmws_; }
    std::uint64_t persists() const { return persists_; }
    std::uint64_t persistedBytes() const { return persisted_bytes_; }
    std::uint64_t persistBarriers() const { return persist_barriers_; }
    std::uint64_t newStrands() const { return new_strands_; }
    std::uint64_t persistSyncs() const { return persist_syncs_; }
    std::uint64_t pmallocs() const { return pmallocs_; }
    std::uint64_t pfrees() const { return pfrees_; }
    std::uint64_t markers() const { return markers_; }
    std::uint64_t operations() const { return op_begins_; }

    /** Event count of thread @p tid (0 if never seen). */
    std::uint64_t threadEvents(ThreadId tid) const;

    /** Number of threads that produced at least one event. */
    ThreadId threadCount() const
    {
        return static_cast<ThreadId>(per_thread_.size());
    }

    /** Multi-line human-readable report. */
    std::string render() const;

  private:
    std::uint64_t total_events_ = 0;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t rmws_ = 0;
    std::uint64_t persists_ = 0;
    std::uint64_t persisted_bytes_ = 0;
    std::uint64_t persist_barriers_ = 0;
    std::uint64_t new_strands_ = 0;
    std::uint64_t persist_syncs_ = 0;
    std::uint64_t pmallocs_ = 0;
    std::uint64_t pfrees_ = 0;
    std::uint64_t markers_ = 0;
    std::uint64_t op_begins_ = 0;
    std::vector<std::uint64_t> per_thread_;
};

} // namespace persim

#endif // PERSIM_MEMTRACE_TRACE_STATS_HH
