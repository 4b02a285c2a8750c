/**
 * @file
 * Test support: an independent reference for compileTrace
 * (DESIGN.md §17.1, §17.3).
 *
 * referenceCompile() builds the columns a compiled program must hold
 * the plainest way there is: each access splits into 8-byte-aligned
 * pieces, each piece's tracking block and each new block's line are
 * interned first-touch through std::unordered_map, flushes intern
 * their line (or, without a line column, their tracking block), and
 * every column grows by push_back. No pages, no caches, no
 * specialisation and no shared code with the library's compile, so a
 * fault in the paged index, the column writes or the run index shows
 * as a column that differs.
 *
 * expectSameProgram() compares every column and fact of a
 * CompiledTrace with the reference.
 */

#ifndef PERSIM_TESTS_SUPPORT_COMPILE_REFERENCE_HH
#define PERSIM_TESTS_SUPPORT_COMPILE_REFERENCE_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "memtrace/compiled_trace.hh"
#include "memtrace/event.hh"
#include "persistency/timing_engine.hh"

namespace persim::test {

/** The columns and facts a compiled program must hold. */
struct ReferenceProgram
{
    std::uint64_t events = 0;
    std::uint64_t track_slots = 0;
    std::uint64_t lines = 0;
    std::uint64_t thread_count = 0;
    std::uint64_t spec_fp = 0;
    std::vector<std::uint8_t> flags;
    std::vector<std::uint16_t> thread;
    std::vector<std::uint32_t> tslot;
    std::vector<std::uint32_t> run_len;
    std::vector<std::uint8_t> run_kind;
    std::vector<std::uint32_t> line;
};

/** compileTrace(@p events, @p count, @p config), the plain way. */
inline ReferenceProgram
referenceCompile(const TraceEvent *events, std::size_t count,
                 const TimingConfig &config)
{
    const ModelConfig &model = config.model;
    const auto track_shift = static_cast<unsigned>(
        std::countr_zero(std::uint64_t{model.tracking_granularity}));
    // px86's line is its atomic block; the SC models at 8-byte
    // tracking carry the 64-byte cache line for px86 to reuse.
    unsigned line_shift = track_shift;
    if (model.kind == ModelKind::Px86)
        line_shift = static_cast<unsigned>(
            std::countr_zero(std::uint64_t{model.atomic_granularity}));
    else if (model.tracking_granularity == 8)
        line_shift = 6;
    const bool lines = line_shift != track_shift;

    ReferenceProgram out;
    out.events = count;
    out.spec_fp = std::uint64_t{track_shift} |
        std::uint64_t{line_shift} << 8;
    std::unordered_map<std::uint64_t, std::uint32_t> track;
    std::unordered_map<std::uint64_t, std::uint32_t> line;
    const auto intern = [](std::unordered_map<std::uint64_t,
                                              std::uint32_t> &map,
                           std::uint64_t key, bool *fresh = nullptr) {
        const auto [it, inserted] = map.try_emplace(
            key, static_cast<std::uint32_t>(map.size()));
        if (fresh != nullptr)
            *fresh = inserted;
        return it->second;
    };
    const auto emit = [&](CompiledOp kind, unsigned op_flags,
                          std::uint32_t tid, std::uint32_t slot) {
        const auto k = static_cast<std::uint8_t>(kind);
        if (out.run_kind.empty() || out.run_kind.back() != k) {
            out.run_kind.push_back(k);
            out.run_len.push_back(0);
        }
        ++out.run_len.back();
        out.flags.push_back(static_cast<std::uint8_t>(op_flags));
        out.thread.push_back(static_cast<std::uint16_t>(tid));
        out.tslot.push_back(slot);
        out.thread_count =
            std::max(out.thread_count, std::uint64_t{tid} + 1);
    };

    for (std::size_t i = 0; i < count; ++i) {
        const TraceEvent &event = events[i];
        switch (event.kind) {
          case EventKind::Load:
          case EventKind::Store:
          case EventKind::Rmw: {
            const unsigned write =
                event.kind == EventKind::Load ? 0u : compiled_flag_write;
            std::uint64_t addr = event.addr;
            const std::uint64_t end = addr + event.size;
            while (addr < end) {
                const unsigned offset = addr % 8;
                const auto chunk = static_cast<unsigned>(
                    std::min<std::uint64_t>(end - addr, 8 - offset));
                bool fresh = false;
                const std::uint32_t slot =
                    intern(track, addr >> track_shift, &fresh);
                if (fresh && lines)
                    out.line.push_back(intern(line, addr >> line_shift));
                const unsigned persistent =
                    addr >= persistent_base ? compiled_flag_persistent
                                            : 0u;
                emit(CompiledOp::Piece,
                     write | persistent |
                         ((chunk - 1) << 3 | offset)
                             << compiled_shape_shift,
                     event.thread, slot);
                addr += chunk;
            }
            break;
          }
          case EventKind::PersistBarrier:
          case EventKind::PersistSync:
            emit(CompiledOp::Barrier, 0, event.thread, compiled_no_slot);
            break;
          case EventKind::CacheFlush:
          case EventKind::CacheFlushOpt:
          case EventKind::CacheWriteBack:
            emit(CompiledOp::Flush,
                 event.kind == EventKind::CacheFlush
                     ? compiled_flag_clflush
                     : 0u,
                 event.thread,
                 lines ? intern(line, event.addr >> line_shift)
                       : intern(track, event.addr >> track_shift));
            break;
          case EventKind::StoreFence:
          case EventKind::FullFence:
            emit(CompiledOp::Fence, 0, event.thread, compiled_no_slot);
            break;
          case EventKind::NewStrand:
            emit(CompiledOp::Strand, 0, event.thread, compiled_no_slot);
            break;
          case EventKind::Marker:
            if (event.markerCode() == MarkerCode::OpEnd)
                emit(CompiledOp::OpEnd, 0, event.thread,
                     compiled_no_slot);
            break;
          default:
            break;
        }
    }
    out.track_slots = track.size();
    out.lines = lines ? line.size() : track.size();
    return out;
}

/** Expect @p got to hold exactly the columns and facts of @p want. */
inline void
expectSameProgram(const CompiledTrace &got, const ReferenceProgram &want,
                  const std::string &what)
{
    const CompiledTraceView view = got.view();
    EXPECT_EQ(view.events, want.events) << what;
    EXPECT_EQ(view.track_slots, want.track_slots) << what;
    EXPECT_EQ(view.lines, want.lines) << what;
    EXPECT_EQ(got.thread_count, want.thread_count) << what;
    EXPECT_EQ(view.spec_fp, want.spec_fp) << what;
    const auto column = [&](const auto *data, std::uint64_t size,
                            const auto &expected, const char *name) {
        ASSERT_EQ(size, expected.size()) << what << ": " << name;
        for (std::uint64_t i = 0; i < size; ++i)
            ASSERT_EQ(data[i], expected[i])
                << what << ": " << name << "[" << i << "]";
    };
    column(view.flags, view.micro_ops, want.flags, "flags");
    column(view.thread, view.micro_ops, want.thread, "thread");
    column(view.tslot, view.micro_ops, want.tslot, "tslot");
    column(view.run_len, view.runs, want.run_len, "run_len");
    column(view.run_kind, view.runs, want.run_kind, "run_kind");
    column(view.line, view.line != nullptr ? view.track_slots : 0,
           want.line, "line");
}

} // namespace persim::test

#endif // PERSIM_TESTS_SUPPORT_COMPILE_REFERENCE_HH
