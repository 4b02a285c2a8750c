/**
 * @file
 * Timing engine unit tests: result bookkeeping, operation and role
 * attribution, persist-log record contents, access splitting, the
 * finite coalescing window, configuration validation, the ceiling
 * on per-block state bytes, and the one on thread ids.
 */

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "common/flat_map.hh"
#include "persistency/timing_engine.hh"
#include "tests/support/trace_builder.hh"

namespace persim {
namespace {

using test::paddr;
using test::TraceBuilder;
using test::vaddr;

TEST(TimingEngine, CountsEventsBarriersStrandsOps)
{
    TraceBuilder builder;
    builder.opBegin(0, 1)
           .store(0, paddr(0))
           .barrier(0)
           .strand(0)
           .sync(0)
           .opEnd(0, 1)
           .load(0, vaddr(0));
    const auto result = builder.analyze(ModelConfig::epoch());
    EXPECT_EQ(result.events, 7u);
    EXPECT_EQ(result.barriers, 2u); // Barrier + sync.
    EXPECT_EQ(result.strands, 1u);
    EXPECT_EQ(result.ops, 1u);
    EXPECT_EQ(result.persists, 1u);
}

TEST(TimingEngine, CriticalPathPerOpFallsBackWithoutOps)
{
    TraceBuilder builder;
    builder.store(0, paddr(0)).barrier(0).store(0, paddr(1));
    const auto result = builder.analyze(ModelConfig::epoch());
    EXPECT_EQ(result.ops, 0u);
    EXPECT_EQ(result.criticalPathPerOp(), result.critical_path);
}

TEST(TimingEngine, LogRecordsAddressSizeValueThread)
{
    TraceBuilder builder;
    builder.store(2, paddr(3), 0xabcdef, 8);
    const auto log = builder.analyzeLog(ModelConfig::epoch());
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0].addr, paddr(3));
    EXPECT_EQ(log[0].size, 8u);
    EXPECT_EQ(log[0].value, 0xabcdefu);
    EXPECT_EQ(log[0].thread, 2u);
    EXPECT_EQ(log[0].time, 1.0);
    EXPECT_EQ(log[0].id, 0u);
    EXPECT_EQ(log[0].binding, invalid_persist);
}

TEST(TimingEngine, LogAttributesOpAndRole)
{
    TraceBuilder builder;
    builder.opBegin(0, 42)
           .role(0, MarkerCode::RoleData)
           .store(0, paddr(0))
           .role(0, MarkerCode::RoleHead)
           .store(0, paddr(1))
           .opEnd(0, 42)
           .store(0, paddr(2));
    const auto log = builder.analyzeLog(ModelConfig::epoch());
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log[0].op, 42u);
    EXPECT_EQ(log[0].role, PersistRole::Data);
    EXPECT_EQ(log[1].op, 42u);
    EXPECT_EQ(log[1].role, PersistRole::Head);
    EXPECT_EQ(log[2].op, no_operation);
    EXPECT_EQ(log[2].role, PersistRole::None);
}

TEST(TimingEngine, UnalignedMultiPieceValuesSplitCorrectly)
{
    // A store of 0x8877665544332211 at offset 6 splits into a 2-byte
    // piece (0x2211) and a 6-byte piece (0x887766554433).
    TraceBuilder builder;
    builder.store(0, paddr(0) + 6, 0x8877665544332211ULL, 8);
    const auto log = builder.analyzeLog(ModelConfig::epoch());
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].addr, paddr(0) + 6);
    EXPECT_EQ(log[0].size, 2u);
    EXPECT_EQ(log[0].value, 0x2211u);
    EXPECT_EQ(log[1].addr, paddr(1));
    EXPECT_EQ(log[1].size, 6u);
    EXPECT_EQ(log[1].value, 0x887766554433ULL);
}

TEST(TimingEngine, BindingSourcesAreLabeled)
{
    TraceBuilder builder;
    builder.store(0, paddr(0))     // none
           .barrier(0)
           .store(0, paddr(1))     // thread_epoch
           .store(1, paddr(1))     // coalesced? dep 0 < 2 -> coalesce
           .store(1, paddr(0), 7); // spa or coalesce with p0.
    const auto log = builder.analyzeLog(ModelConfig::epoch());
    ASSERT_EQ(log.size(), 4u);
    EXPECT_EQ(log[0].binding_source, DepSource::None);
    EXPECT_EQ(log[1].binding_source, DepSource::ThreadEpoch);
    EXPECT_EQ(log[2].binding_source, DepSource::Coalesced);
    EXPECT_EQ(log[3].binding_source, DepSource::Coalesced);
}

TEST(TimingEngine, ConflictBindingLabels)
{
    TraceBuilder builder;
    builder.store(0, paddr(0))      // Level 1.
           .barrier(0)
           .store(0, vaddr(0), 1)   // Tagged with A.
           .store(1, vaddr(0), 2)   // T1 inherits via store conflict.
           .barrier(1)
           .store(1, paddr(1));     // Bound by the conflict.
    const auto log = builder.analyzeLog(ModelConfig::epoch());
    ASSERT_EQ(log.size(), 2u);
    // The binding arrived through T1's epoch_dep (folded at barrier).
    EXPECT_EQ(log[1].binding, 0u);
    EXPECT_EQ(log[1].binding_source, DepSource::ThreadEpoch);
    EXPECT_EQ(log[1].time, 2.0);
}

TEST(TimingEngine, CoalesceWindowLimitsAbsorption)
{
    // 100 persists to the same word, no constraints: unbounded
    // coalescing folds them into one level; a window of 10 forces a
    // new persist every 10 issues.
    auto build = [] {
        TraceBuilder builder;
        for (int i = 0; i < 100; ++i)
            builder.store(0, paddr(0), i);
        return builder;
    };
    {
        TimingConfig config;
        config.model = ModelConfig::epoch();
        PersistTimingEngine engine(config);
        auto builder = build();
        builder.trace().replay(engine);
        EXPECT_EQ(engine.result().critical_path, 1.0);
        EXPECT_EQ(engine.result().window_blocked, 0u);
    }
    {
        TimingConfig config;
        config.model = ModelConfig::epoch();
        config.coalesce_window = 10;
        PersistTimingEngine engine(config);
        auto builder = build();
        builder.trace().replay(engine);
        EXPECT_GT(engine.result().critical_path, 5.0);
        EXPECT_GT(engine.result().window_blocked, 5u);
    }
}

TEST(TimingEngine, StochasticTimesAreStrictlyOrderedOnChains)
{
    TraceBuilder builder;
    for (int i = 0; i < 10; ++i)
        builder.store(0, paddr(i)).barrier(0);
    TimingConfig config;
    config.model = ModelConfig::epoch();
    config.clock = ClockMode::Stochastic;
    config.seed = 3;
    config.record_log = true;
    PersistTimingEngine engine(config);
    builder.trace().replay(engine);
    const auto &log = engine.log();
    ASSERT_EQ(log.size(), 10u);
    for (std::size_t i = 1; i < log.size(); ++i)
        EXPECT_GT(log[i].time, log[i - 1].time);
}

TEST(TimingEngine, StochasticSeedChangesRealization)
{
    TraceBuilder builder;
    for (int i = 0; i < 5; ++i)
        builder.store(0, paddr(i)).barrier(0);
    auto run = [&builder](std::uint64_t seed) {
        TimingConfig config;
        config.model = ModelConfig::epoch();
        config.clock = ClockMode::Stochastic;
        config.seed = seed;
        PersistTimingEngine engine(config);
        builder.trace().replay(engine);
        return engine.result().critical_path;
    };
    EXPECT_EQ(run(1), run(1));
    EXPECT_NE(run(1), run(2));
}

TEST(TimingEngine, RejectsInvalidConfig)
{
    TimingConfig config;
    config.model.atomic_granularity = 3;
    EXPECT_THROW(PersistTimingEngine{config}, FatalError);
}

TEST(TimingEngine, TakeLogMovesOwnership)
{
    TraceBuilder builder;
    builder.store(0, paddr(0));
    TimingConfig config;
    config.model = ModelConfig::epoch();
    config.record_log = true;
    PersistTimingEngine engine(config);
    builder.trace().replay(engine);
    auto log = engine.takeLog();
    EXPECT_EQ(log.size(), 1u);
    EXPECT_TRUE(engine.log().empty());
}

TEST(TimingEngine, DepSourceNamesAreStable)
{
    EXPECT_STREQ(depSourceName(DepSource::None), "none");
    EXPECT_STREQ(depSourceName(DepSource::ThreadEpoch), "thread_epoch");
    EXPECT_STREQ(depSourceName(DepSource::ConflictStore),
                 "conflict_store");
    EXPECT_STREQ(depSourceName(DepSource::ConflictLoad), "conflict_load");
    EXPECT_STREQ(depSourceName(DepSource::SameBlockSPA),
                 "same_block_spa");
    EXPECT_STREQ(depSourceName(DepSource::Coalesced), "coalesced");
}

TEST(TimingEngine, DepSetHandleZeroIsAlwaysEmpty)
{
    // DepSetRef 0 doubles as "the empty dependence set" throughout
    // the engine (Tag{} default-initializes deps = 0, and unionOf
    // short-circuits on it). The pool's constructor reserves span 0
    // as a zero-length sentinel, so the FIRST real allocation must
    // come out as handle 1 — behavioral pin: the first dependent
    // persist of a fresh engine must carry a non-empty dependence
    // set, and independent persists must stay empty, on a brand-new
    // engine every time (steady-state reuse = new engine per replay).
    for (int round = 0; round < 3; ++round) {
        TraceBuilder builder;
        builder.store(0, paddr(0), 1)   // A: no deps (would be ref 0)
               .barrier(0)
               .store(0, paddr(1), 2)   // B: deps {A} — first real span
               .store(0, paddr(2), 3)   // C: deps {A} via epoch tag
               .barrier(0)
               .store(0, paddr(3), 4);  // D: union of B/C deps
        TimingConfig config;
        config.model = ModelConfig::epoch();
        config.record_deps = true;
        PersistTimingEngine engine(config);
        builder.trace().replay(engine);
        const PersistLog log = engine.takeLog();
        ASSERT_EQ(log.size(), 4u);
        EXPECT_TRUE(log[0].deps.empty());
        ASSERT_FALSE(log[1].deps.empty());
        EXPECT_EQ(log[1].deps.front(), log[0].id);
        ASSERT_FALSE(log[2].deps.empty());
        EXPECT_EQ(log[2].deps.front(), log[0].id);
        // D depends on the younger epoch's persists, never on the
        // empty sentinel: a handle-0 mixup would surface here as a
        // silently empty (or A-only) set. The epoch tag may also
        // carry older-epoch ids; what matters is that B and C are
        // both present and the set is sorted-unique.
        ASSERT_GE(log[3].deps.size(), 2u);
        EXPECT_NE(std::find(log[3].deps.begin(), log[3].deps.end(),
                            log[1].id),
                  log[3].deps.end());
        EXPECT_NE(std::find(log[3].deps.begin(), log[3].deps.end(),
                            log[2].id),
                  log[3].deps.end());
        for (std::size_t i = 1; i < log[3].deps.size(); ++i)
            EXPECT_LT(log[3].deps[i - 1], log[3].deps[i]);
    }
}

TEST(TimingEngine, DepSetUnionSubsetShortCircuitKeepsContents)
{
    // unionOf(a, b) returns `a` unchanged when b ⊆ a (and vice
    // versa). The dependence sets must be byte-identical to the
    // general path's: pin the exact sets on a fan-in where the
    // accumulator already contains the epoch dependence.
    TraceBuilder builder;
    builder.store(0, paddr(0), 1)
           .barrier(0)
           .store(0, paddr(1), 2)
           .store(0, paddr(1), 3)   // same-block: dep set {B} twice
           .barrier(0)
           .store(0, paddr(2), 4);
    TimingConfig config;
    config.model = ModelConfig::epoch();
    config.record_deps = true;
    PersistTimingEngine engine(config);
    builder.trace().replay(engine);
    const PersistLog log = engine.takeLog();
    ASSERT_GE(log.size(), 3u);
    const PersistRecord &last = log[log.size() - 1];
    ASSERT_FALSE(last.deps.empty());
    for (std::size_t i = 1; i < last.deps.size(); ++i)
        EXPECT_LT(last.deps[i - 1], last.deps[i]) << "sorted-unique";
}

/**
 * Bytes the engine's two address indexes hold after first touches of
 * @p blocks tracking blocks (8-byte keys) and, when @p line_bank,
 * their 64-byte lines in a separate atomic index; an unused index
 * still counts its empty directory.
 */
std::size_t
indexBytes(std::uint64_t blocks, bool line_bank)
{
    PagedIndexMap track;
    PagedIndexMap atomic;
    bool inserted = false;
    for (std::uint64_t i = 0; i < blocks; ++i) {
        track.findOrInsert(paddr(i) >> 3, inserted);
        if (line_bank)
            atomic.findOrInsert(paddr(i) >> 6, inserted);
    }
    return track.bytes() + atomic.bytes();
}

/**
 * Memory ceiling of the per-block state (DESIGN.md Section 11): bank
 * growth is amortized doubling, so stateBytes() stays within twice
 * the live rows times the row width, plus both indexes, plus a small
 * constant for the dep-set pool's sentinel and the px86 dirty-piece
 * pool (at most one barrier interval of pieces live). It also holds
 * at least the live rows, so a bank left out of the sum shows up.
 */
TEST(TimingEngine, StateBytesStayWithinTwiceTheLiveRows)
{
    // Row widths: a Tag is 40 bytes (t, oth, src, block, dep handle).
    constexpr std::size_t tag = 40;
    // Tracking row: store tag, plus the load tag when load-before-
    // store conflicts are tracked (strict, not px86).
    constexpr std::size_t track_row_strict = 2 * tag;
    constexpr std::size_t track_row_px86 = tag;
    // Atomic row: last tag, group start id, group begin time.
    constexpr std::size_t atomic_row = tag + 8 + 8;
    // Px86 line row adds the line context tag, the dirty-list head
    // and tail, and the enqueuing thread.
    constexpr std::size_t line_row = atomic_row + tag + 4 + 4 + 4;
    constexpr std::size_t slack = 4096;
    constexpr std::uint64_t blocks = 100003; // not a power of two
    constexpr std::uint64_t barrier_every = 16;

    TraceBuilder builder;
    for (std::uint64_t i = 0; i < blocks; ++i) {
        const ThreadId tid = static_cast<ThreadId>(i % 2);
        builder.store(tid, paddr(i), i).load(1 - tid, paddr(i));
        if (i % barrier_every == barrier_every - 1)
            builder.barrier(0).barrier(1);
    }

    struct Case
    {
        const char *name;
        ModelConfig model;
        std::size_t live;
        std::size_t index;
    };
    const std::uint64_t lines = (blocks * 8 + 63) / 64;
    const Case cases[] = {
        // Strict: unified granularity, one index, banks in step.
        {"strict", ModelConfig::strict(),
         blocks * (track_row_strict + atomic_row),
         indexBytes(blocks, false)},
        // Px86: 8-byte tracking blocks, separate 64-byte line banks.
        {"px86", ModelConfig::px86(),
         blocks * track_row_px86 + lines * line_row,
         indexBytes(blocks, true)},
    };
    for (const Case &c : cases) {
        TimingConfig config;
        config.model = c.model;
        PersistTimingEngine engine(config);
        builder.trace().replay(engine);
        ASSERT_GT(engine.result().persists, 0u) << c.name;
        const std::size_t bytes = engine.stateBytes();
        EXPECT_GE(bytes, c.live + c.index) << c.name;
        EXPECT_LE(bytes, 2 * c.live + c.index + slack) << c.name;
    }
}

TEST(TimingEngine, ThreadIdsPastTheCeilingAreRefused)
{
    // The thread table stops at compiled_max_threads, the ceiling the
    // compile enforces: a larger id (0xffffffff would wrap a 32-bit
    // size to 0) fails naming it instead of growing the table.
    for (const ThreadId tid : {ThreadId{65536}, ThreadId{0xffffffffu}}) {
        TraceBuilder builder;
        builder.store(5, paddr(0), 1).barrier(tid).store(tid, paddr(1), 2);
        TimingConfig config;
        config.model = ModelConfig::epoch();
        config.record_log = true;
        PersistTimingEngine engine(config);
        try {
            builder.trace().replay(engine);
            FAIL() << "the engine accepted thread id " << tid;
        } catch (const FatalError &error) {
            const std::string what = error.what();
            EXPECT_NE(what.find("thread id " + std::to_string(tid)),
                      std::string::npos)
                << what;
        }
        EXPECT_EQ(engine.log().size(), 1u);
    }
}

TEST(TimingEngine, ModelNamesEncodeConfiguration)
{
    EXPECT_EQ(ModelConfig::strict().name(), "strict");
    EXPECT_EQ(ModelConfig::epoch().name(), "epoch");
    EXPECT_EQ(ModelConfig::strand().name(), "strand");
    ModelConfig model = ModelConfig::epoch();
    model.atomic_granularity = 64;
    model.tracking_granularity = 128;
    EXPECT_EQ(model.name(), "epoch-a64-t128");
}

} // namespace
} // namespace persim
