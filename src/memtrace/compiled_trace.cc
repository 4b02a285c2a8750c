#include "memtrace/compiled_trace.hh"

namespace persim {

void
CompiledTrace::buildRuns()
{
    run_len.clear();
    run_kind.clear();
    std::size_t i = 0;
    while (i < kind.size()) {
        std::size_t j = i + 1;
        // Cap runs at u32 range; maximal runs beyond that just split.
        while (j < kind.size() && kind[j] == kind[i] &&
               j - i < 0xffffffffu)
            ++j;
        run_len.push_back(static_cast<std::uint32_t>(j - i));
        run_kind.push_back(kind[i]);
        i = j;
    }
}

CompiledTraceView
CompiledTrace::view() const
{
    CompiledTraceView v;
    v.micro_ops = kind.size();
    v.events = events;
    v.track_slots = track_keys.size();
    v.atomic_slots = atomic_keys.size();
    v.runs = run_len.size();
    v.thread_count = thread_count;
    v.spec_fp = spec_fp;
    v.kind = kind.data();
    v.size = size.data();
    v.flags = flags.data();
    v.thread = thread.data();
    v.tslot = tslot.data();
    v.aslot = aslot.data();
    v.addr = addr.data();
    v.value = value.data();
    v.seq = seq.data();
    v.run_len = run_len.data();
    v.run_kind = run_kind.data();
    v.track_keys = track_keys.data();
    v.atomic_keys = atomic_keys.data();
    return v;
}

} // namespace persim
