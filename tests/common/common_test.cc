/**
 * @file
 * Unit tests for src/common: bit utilities, RNG, errors, index maps.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>

#include "common/bitops.hh"
#include "common/error.hh"
#include "common/flat_map.hh"
#include "common/rng.hh"
#include "memtrace/event.hh"

namespace persim {
namespace {

TEST(Bitops, PowerOfTwoDetection)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_TRUE(isPowerOfTwo(1ULL << 63));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(96));
}

TEST(Bitops, AlignmentHelpers)
{
    EXPECT_EQ(alignDown(100, 64), 64u);
    EXPECT_EQ(alignUp(100, 64), 128u);
    EXPECT_EQ(alignUp(128, 64), 128u);
    EXPECT_EQ(alignDown(128, 64), 128u);
    EXPECT_TRUE(isAligned(128, 64));
    EXPECT_FALSE(isAligned(100, 64));
}

TEST(Bitops, Log2Exact)
{
    EXPECT_EQ(log2Exact(1), 0u);
    EXPECT_EQ(log2Exact(8), 3u);
    EXPECT_EQ(log2Exact(256), 8u);
}

TEST(Bitops, BlockIndexing)
{
    EXPECT_EQ(blockIndex(0, 64), 0u);
    EXPECT_EQ(blockIndex(63, 64), 0u);
    EXPECT_EQ(blockIndex(64, 64), 1u);
    EXPECT_EQ(blockBase(100, 64), 64u);
}

TEST(Bitops, FitsInBlock)
{
    EXPECT_TRUE(fitsInBlock(0, 8, 8));
    EXPECT_TRUE(fitsInBlock(8, 8, 8));
    EXPECT_FALSE(fitsInBlock(4, 8, 8));
    EXPECT_TRUE(fitsInBlock(4, 4, 8));
    EXPECT_TRUE(fitsInBlock(100, 28, 64));
    EXPECT_FALSE(fitsInBlock(60, 8, 64));
    EXPECT_FALSE(fitsInBlock(0, 0, 8));
}

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, BoundedCoversRange)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 200; ++i) {
        const auto v = rng.nextRange(5, 7);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ExponentialMeanRoughlyCorrect)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextExponential(3.0);
    EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, ExponentialAlwaysPositive)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GT(rng.nextExponential(1.0), 0.0);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(5);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, RejectsZeroBound)
{
    Rng rng(1);
    EXPECT_THROW(rng.nextBounded(0), FatalError);
}

TEST(Error, FatalCarriesContext)
{
    try {
        PERSIM_FATAL("bad config " << 42);
        FAIL() << "should have thrown";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("bad config 42"), std::string::npos);
        EXPECT_NE(what.find("common_test.cc"), std::string::npos);
    }
}

TEST(Error, PanicIsDistinctFromFatal)
{
    EXPECT_THROW(PERSIM_PANIC("broken"), PanicError);
    bool caught_as_error = false;
    try {
        PERSIM_PANIC("broken");
    } catch (const Error &) {
        caught_as_error = true;
    }
    EXPECT_TRUE(caught_as_error);
}

TEST(Error, AssertAndRequireMacros)
{
    EXPECT_NO_THROW(PERSIM_ASSERT(1 + 1 == 2, "math"));
    EXPECT_THROW(PERSIM_ASSERT(1 + 1 == 3, "math"), PanicError);
    EXPECT_NO_THROW(PERSIM_REQUIRE(true, "ok"));
    EXPECT_THROW(PERSIM_REQUIRE(false, "no"), FatalError);
}

TEST(FlatIndexMap, AssignsDenseSlotsInInsertionOrder)
{
    FlatIndexMap map;
    bool inserted = false;
    EXPECT_EQ(map.findOrInsert(100, inserted), 0u);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(map.findOrInsert(7, inserted), 1u);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(map.findOrInsert(100, inserted), 0u);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(map.find(7), 1u);
    EXPECT_EQ(map.find(8), FlatIndexMap::no_slot);
    EXPECT_EQ(map.size(), 2u);
}

TEST(FlatIndexMap, SentinelKeyIsRejectedNotAliased)
{
    // ~0 is the empty-bucket sentinel: probing for it would match the
    // first empty bucket and hand back no_slot as a "real" slot
    // (silent corruption). It must be a hard error instead.
    FlatIndexMap map;
    bool inserted = false;
    EXPECT_THROW(map.findOrInsert(FlatIndexMap::empty_key, inserted),
                 FatalError);
    // find() on the sentinel is benign "absent".
    EXPECT_EQ(map.find(FlatIndexMap::empty_key),
              FlatIndexMap::no_slot);
}

TEST(FlatIndexMap, CapacityBoundIsAHardError)
{
    // Beyond max_slots the unchecked count_++ would eventually mint
    // no_slot itself as a live slot; the bound turns that into a
    // deterministic FatalError at the first over-insert.
    FlatIndexMap map(4);
    bool inserted = false;
    for (std::uint64_t key = 0; key < 4; ++key)
        map.findOrInsert(key, inserted);
    EXPECT_EQ(map.size(), 4u);
    // Existing keys still resolve below the bound.
    EXPECT_EQ(map.findOrInsert(3, inserted), 3u);
    EXPECT_FALSE(inserted);
    EXPECT_THROW(map.findOrInsert(99, inserted), FatalError);
    // clear() frees the budget again.
    map.clear();
    EXPECT_EQ(map.findOrInsert(99, inserted), 0u);
    EXPECT_TRUE(inserted);
}

TEST(FlatIndexMap, MovedFromMapIsEmptyAndUsable)
{
    bool inserted = false;
    FlatIndexMap source;
    for (std::uint64_t key = 0; key < 100; ++key)
        source.findOrInsert(key * 7, inserted);

    // Move construction: the source is left an empty, usable map.
    FlatIndexMap moved(std::move(source));
    EXPECT_EQ(moved.size(), 100u);
    EXPECT_EQ(moved.find(7 * 42), 42u);
    EXPECT_EQ(source.size(), 0u);
    EXPECT_EQ(source.find(7 * 42), FlatIndexMap::no_slot);
    EXPECT_EQ(source.findOrInsert(5, inserted), 0u);
    EXPECT_TRUE(inserted);

    // Move assignment over a live map, the same way.
    FlatIndexMap target;
    target.findOrInsert(1, inserted);
    target = std::move(moved);
    EXPECT_EQ(target.size(), 100u);
    EXPECT_EQ(target.find(7 * 99), 99u);
    EXPECT_EQ(target.find(1), FlatIndexMap::no_slot);
    EXPECT_EQ(moved.size(), 0u);
    EXPECT_EQ(moved.find(7 * 99), FlatIndexMap::no_slot);
    EXPECT_EQ(moved.findOrInsert(3, inserted), 0u);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(target.find(3), FlatIndexMap::no_slot);
}

// The ShardedIndexMap.* tests predate the paged index; they keep
// their names and now pin PagedIndexMap, which replaced the sharded
// hash table in the timing engine and compileTrace.

TEST(ShardedIndexMap, MatchesFlatIndexMapSlotNumbering)
{
    // The paged index must hand out the same dense insertion-order
    // slots as the hashed map — the timing engine's slot numbers are
    // part of the bit-identity surface (compiled traces bake them
    // in).
    FlatIndexMap flat;
    PagedIndexMap paged;
    Rng rng(7);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 5000; ++i)
        keys.push_back(rng.next() % 1024); // Dense keyspace: collisions.
    bool fi = false, si = false;
    for (const std::uint64_t key : keys) {
        EXPECT_EQ(flat.findOrInsert(key, fi),
                  paged.findOrInsert(key, si));
        EXPECT_EQ(fi, si);
    }
    EXPECT_EQ(flat.size(), paged.size());
    for (std::uint64_t key = 0; key < 1100; ++key)
        EXPECT_EQ(flat.find(key), paged.find(key));
}

TEST(ShardedIndexMap, SentinelAndCapacityMirrorFlatMap)
{
    PagedIndexMap map(4);
    bool inserted = false;
    EXPECT_THROW(map.findOrInsert(PagedIndexMap::empty_key, inserted),
                 FatalError);
    EXPECT_EQ(map.find(PagedIndexMap::empty_key),
              PagedIndexMap::no_slot);
    for (std::uint64_t key = 0; key < 4; ++key)
        map.findOrInsert(key, inserted);
    EXPECT_THROW(map.findOrInsert(99, inserted), FatalError);
    map.clear();
    EXPECT_EQ(map.findOrInsert(99, inserted), 0u);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(map.size(), 1u);
}

TEST(ShardedIndexMap, SurvivesPerShardRehash)
{
    // Far past the directory's initial bucket count: one key per
    // page, so the directory rehashes many times and every lookup
    // still resolves.
    PagedIndexMap map;
    bool inserted = false;
    constexpr std::uint64_t n = 100000;
    for (std::uint64_t key = 0; key < n; ++key)
        EXPECT_EQ(map.findOrInsert(key * 64 + 1, inserted),
                  static_cast<std::uint32_t>(key));
    EXPECT_EQ(map.size(), n);
    for (std::uint64_t key = 0; key < n; ++key)
        EXPECT_EQ(map.find(key * 64 + 1),
                  static_cast<std::uint32_t>(key));
    EXPECT_EQ(map.find(3), PagedIndexMap::no_slot);
}

TEST(PagedIndexMap, MatchesFlatIndexMapAcrossPagesAndRegions)
{
    // Block keys (8-byte blocks) near the volatile and persistent
    // bases, walked in short runs that cross page boundaries and
    // jump between the two regions, plus the extreme keys 0 and
    // ~0 - 1: slots and inserted flags must equal FlatIndexMap's.
    const std::uint64_t bases[] = {
        0, volatile_base >> 3, persistent_base >> 3,
        (persistent_base >> 3) + (std::uint64_t{1} << 30),
        PagedIndexMap::empty_key - (std::uint64_t{1} << 14)};
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        FlatIndexMap flat;
        PagedIndexMap paged;
        Rng rng(seed);
        std::vector<std::uint64_t> keys{0, PagedIndexMap::empty_key - 1};
        for (int run = 0; run < 400; ++run) {
            const std::uint64_t base = bases[rng.next() % 5];
            std::uint64_t key = base + rng.next() % 4096;
            const std::uint64_t len = 1 + rng.next() % 200;
            for (std::uint64_t i = 0; i < len; ++i) {
                keys.push_back(key);
                key += 1 + rng.next() % 3;
            }
        }
        keys.push_back(0);
        keys.push_back(PagedIndexMap::empty_key - 1);
        bool fi = false, pi = false;
        for (const std::uint64_t key : keys) {
            ASSERT_EQ(flat.findOrInsert(key, fi),
                      paged.findOrInsert(key, pi))
                << "seed " << seed << " key " << key;
            ASSERT_EQ(fi, pi);
        }
        EXPECT_EQ(flat.size(), paged.size());
        for (const std::uint64_t key : keys)
            EXPECT_EQ(flat.find(key), paged.find(key));
    }
}

TEST(PagedIndexMap, FindOfAbsentKeys)
{
    PagedIndexMap map;
    bool inserted = false;
    const std::uint64_t base = persistent_base >> 3;
    map.findOrInsert(base + 5, inserted);
    map.findOrInsert(7, inserted); // Moves the last-page cache away.
    // Absent keys on a page that exists, hit through the directory
    // and through the last-page cache.
    EXPECT_EQ(map.find(base + 6), PagedIndexMap::no_slot);
    EXPECT_EQ(map.find(base), PagedIndexMap::no_slot);
    EXPECT_EQ(map.find(6), PagedIndexMap::no_slot);
    // Absent keys on pages that do not exist.
    EXPECT_EQ(map.find(base + PagedIndexMap::page_keys),
              PagedIndexMap::no_slot);
    EXPECT_EQ(map.find(PagedIndexMap::empty_key - 1),
              PagedIndexMap::no_slot);
    // find() creates nothing.
    EXPECT_EQ(map.size(), 2u);
    EXPECT_EQ(map.find(base + 5), 0u);
    EXPECT_EQ(map.find(7), 1u);
}

TEST(PagedIndexMap, ClearThenReuse)
{
    PagedIndexMap map;
    bool inserted = false;
    for (std::uint64_t key = 0; key < 1000; ++key)
        map.findOrInsert(key * 3, inserted);
    const std::size_t bytes = map.bytes();
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    for (std::uint64_t key = 0; key < 1000; ++key)
        EXPECT_EQ(map.find(key * 3), PagedIndexMap::no_slot);
    // Fresh first-touch numbering, in a different order, on the kept
    // pages.
    for (std::uint64_t key = 1000; key-- > 0;) {
        EXPECT_EQ(map.findOrInsert(key * 3, inserted),
                  static_cast<std::uint32_t>(999 - key));
        EXPECT_TRUE(inserted);
    }
    EXPECT_EQ(map.size(), 1000u);
    EXPECT_EQ(map.bytes(), bytes);
}

TEST(PagedIndexMap, SparseAndDenseBytesPerKey)
{
    // The worst case, one key per page, costs one page plus its share
    // of the page table and directory: at most page_bytes + 64 bytes
    // per key (256 + 64 = 320 with 64-key pages). Dense keys cost
    // about one u32 slot each: at most 8 bytes per key.
    constexpr std::uint64_t n = 20000;
    bool inserted = false;
    PagedIndexMap sparse;
    for (std::uint64_t i = 0; i < n; ++i)
        sparse.findOrInsert(i * PagedIndexMap::page_keys * 97, inserted);
    EXPECT_EQ(sparse.size(), n);
    EXPECT_LE(sparse.bytes(), n * (PagedIndexMap::page_bytes + 64));
    PagedIndexMap dense;
    for (std::uint64_t i = 0; i < n * 64; ++i)
        dense.findOrInsert(persistent_base + i, inserted);
    EXPECT_LE(dense.bytes(), n * 64 * 8);
}

TEST(PagedIndexMap, EmptyMapHoldsNoDirectory)
{
    // The directory comes with the first page: a map that never
    // inserts (most of a small engine's indexes) holds no heap memory,
    // and lookups in it find nothing.
    PagedIndexMap map;
    EXPECT_EQ(map.bytes(), 0u);
    EXPECT_EQ(map.find(0), PagedIndexMap::no_slot);
    EXPECT_EQ(map.find(PagedIndexMap::empty_key - 1),
              PagedIndexMap::no_slot);
    map.clear();
    EXPECT_EQ(map.bytes(), 0u);
    bool inserted = false;
    EXPECT_EQ(map.findOrInsert(5, inserted), 0u);
    EXPECT_TRUE(inserted);
    EXPECT_GT(map.bytes(), 0u);
}

TEST(PagedIndexMap, PagesSurviveDirectoryGrowth)
{
    // The directory holds each page's address and doubles as pages are
    // added. Keys straddle page boundaries (the last key of one page,
    // the first of the next) over enough pages to grow the directory
    // many times, and after each new page an early page is revisited
    // through the directory, not the last-page cache: slots must stay
    // FlatIndexMap's across every growth.
    FlatIndexMap flat;
    PagedIndexMap paged;
    bool fi = false, pi = false;
    const std::uint64_t base = persistent_base >> 3;
    constexpr std::uint64_t pages = 3000;
    for (std::uint64_t page = 1; page <= pages; ++page) {
        const std::uint64_t edge = base + page * PagedIndexMap::page_keys;
        for (const std::uint64_t key :
             {edge - 1, edge, base + (page % 7) * PagedIndexMap::page_keys,
              edge + 1}) {
            ASSERT_EQ(flat.findOrInsert(key, fi),
                      paged.findOrInsert(key, pi))
                << "page " << page << " key " << key;
            ASSERT_EQ(fi, pi);
        }
    }
    EXPECT_EQ(flat.size(), paged.size());
    for (std::uint64_t page = 0; page <= pages + 1; ++page)
        for (std::uint64_t at = 0; at < PagedIndexMap::page_keys; at += 31) {
            const std::uint64_t key =
                base + page * PagedIndexMap::page_keys + at;
            EXPECT_EQ(flat.find(key), paged.find(key)) << key;
        }
}

TEST(PagedIndexMap, MovedFromMapIsEmptyAndUsable)
{
    // The source's last-page cache must not keep pointing into the
    // destination's page: an insert through it would corrupt the
    // destination.
    bool inserted = false;
    PagedIndexMap source;
    source.findOrInsert(70, inserted);
    PagedIndexMap moved(std::move(source));
    EXPECT_EQ(source.size(), 0u);
    EXPECT_EQ(source.find(70), PagedIndexMap::no_slot);
    EXPECT_EQ(source.findOrInsert(71, inserted), 0u);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(moved.size(), 1u);
    EXPECT_EQ(moved.find(70), 0u);
    EXPECT_EQ(moved.find(71), PagedIndexMap::no_slot);

    PagedIndexMap target;
    target.findOrInsert(72, inserted);
    target = std::move(moved);
    EXPECT_EQ(target.size(), 1u);
    EXPECT_EQ(target.find(70), 0u);
    EXPECT_EQ(target.find(72), PagedIndexMap::no_slot);
    EXPECT_EQ(moved.size(), 0u);
    EXPECT_EQ(moved.find(70), PagedIndexMap::no_slot);
    EXPECT_EQ(moved.findOrInsert(73, inserted), 0u);
    EXPECT_EQ(target.find(73), PagedIndexMap::no_slot);
    EXPECT_EQ(target.findOrInsert(74, inserted), 1u);
    EXPECT_EQ(moved.find(74), PagedIndexMap::no_slot);
}

} // namespace
} // namespace persim
