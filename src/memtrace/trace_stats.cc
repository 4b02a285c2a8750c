#include "memtrace/trace_stats.hh"

#include <sstream>

#include "common/error.hh"
#include "memtrace/compiled_trace.hh"

namespace persim {

void
TraceStats::onEvent(const TraceEvent &event)
{
    if (event.thread >= per_thread_.size()) {
        PERSIM_REQUIRE(event.thread < compiled_max_threads,
                       "TraceStats: thread id "
                           << event.thread << " is out of range; every "
                              "replay accepts thread ids below "
                           << compiled_max_threads);
        per_thread_.resize(std::size_t{event.thread} + 1, 0);
    }
    ++total_events_;
    ++per_thread_[event.thread];

    switch (event.kind) {
      case EventKind::Load:
        ++loads_;
        break;
      case EventKind::Store:
        ++stores_;
        break;
      case EventKind::Rmw:
        ++rmws_;
        break;
      case EventKind::PersistBarrier:
        ++persist_barriers_;
        break;
      case EventKind::NewStrand:
        ++new_strands_;
        break;
      case EventKind::PersistSync:
        ++persist_syncs_;
        break;
      case EventKind::PMalloc:
        ++pmallocs_;
        break;
      case EventKind::PFree:
        ++pfrees_;
        break;
      case EventKind::Marker:
        ++markers_;
        if (event.markerCode() == MarkerCode::OpBegin)
            ++op_begins_;
        break;
      default:
        break;
    }
    if (event.isPersist()) {
        ++persists_;
        persisted_bytes_ += event.size;
    }
}

std::uint64_t
TraceStats::threadEvents(ThreadId tid) const
{
    return tid < per_thread_.size() ? per_thread_[tid] : 0;
}

std::string
TraceStats::render() const
{
    std::ostringstream oss;
    oss << "trace: " << total_events_ << " events, "
        << per_thread_.size() << " threads\n"
        << "  loads=" << loads_ << " stores=" << stores_
        << " rmws=" << rmws_ << "\n"
        << "  persists=" << persists_
        << " (" << persisted_bytes_ << " bytes)\n"
        << "  persist_barriers=" << persist_barriers_
        << " new_strands=" << new_strands_
        << " persist_syncs=" << persist_syncs_ << "\n"
        << "  pmallocs=" << pmallocs_ << " pfrees=" << pfrees_
        << " operations=" << op_begins_ << "\n";
    return oss.str();
}

} // namespace persim
