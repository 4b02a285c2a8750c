#include "memtrace/compiled_trace.hh"

namespace persim {

CompiledTraceView
CompiledTrace::view() const
{
    CompiledTraceView v;
    v.micro_ops = flags.size();
    v.events = events;
    v.track_slots = track_slots;
    v.lines = lines;
    v.runs = run_len.size();
    v.thread_count = static_cast<std::uint32_t>(thread_count);
    v.spec_fp = spec_fp;
    v.flags = flags.data();
    v.thread = thread.data();
    v.tslot = tslot.data();
    v.run_len = run_len.data();
    v.run_kind = run_kind.data();
    v.line = line.empty() ? nullptr : line.data();
    return v;
}

} // namespace persim
