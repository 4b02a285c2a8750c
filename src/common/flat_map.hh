/**
 * @file
 * Indexes from u64 keys to dense slot numbers.
 *
 * The timing engine's per-block state is keyed by block index; the
 * generic std::unordered_map<u64, State> costs a node allocation per
 * block and a pointer chase per event. These indexes separate the two
 * concerns: they map keys to dense u32 slots, and the caller keeps
 * the actual state in parallel struct-of-arrays banks indexed by
 * slot. Slots are handed out in insertion order, so iteration order
 * of the banks is deterministic. FlatIndexMap hashes keys into a flat
 * open-addressing table and suits small or scattered key sets;
 * PagedIndexMap pages the key space and suits the dense block keys
 * of whole-trace replay.
 */

#ifndef PERSIM_COMMON_FLAT_MAP_HH
#define PERSIM_COMMON_FLAT_MAP_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hh"

namespace persim {

/** splitmix64 finalizer: full-avalanche mix of a key. */
inline std::uint64_t
mixKey(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Hash map u64 key -> dense u32 slot; keys must not be ~0ULL. */
class FlatIndexMap
{
  public:
    static constexpr std::uint64_t empty_key = ~0ULL;
    static constexpr std::uint32_t no_slot = ~0U;

    /**
     * @p max_slots bounds the number of distinct keys; inserting past
     * it is a hard FatalError. The default (= no_slot) is the largest
     * safe bound: it keeps every handed-out slot strictly below the
     * no_slot sentinel, so an unchecked `count_++` can never mint a
     * slot that find() would report as "absent" (the sentinel
     * collision this guard exists for — 2^32 keys would previously
     * have wrapped count_ silently).
     */
    explicit FlatIndexMap(std::uint32_t max_slots = no_slot)
        : max_slots_(max_slots)
    {
        rehash(initial_buckets);
    }

    FlatIndexMap(const FlatIndexMap &) = default;
    FlatIndexMap &operator=(const FlatIndexMap &) = default;

    /** Moves leave @p other empty and usable (a fresh table). */
    FlatIndexMap(FlatIndexMap &&other) : FlatIndexMap(other.max_slots_)
    {
        swap(other);
    }

    FlatIndexMap &
    operator=(FlatIndexMap &&other)
    {
        if (this != &other) {
            swap(other);
            other.clear();
        }
        return *this;
    }

    void
    swap(FlatIndexMap &other) noexcept
    {
        buckets_.swap(other.buckets_);
        std::swap(mask_, other.mask_);
        std::swap(count_, other.count_);
        std::swap(max_slots_, other.max_slots_);
    }

    /** Number of distinct keys inserted. */
    std::uint32_t size() const { return count_; }

    /** Heap bytes held by the bucket table. */
    std::size_t
    bytes() const
    {
        return buckets_.capacity() * sizeof(Bucket);
    }

    /**
     * Slot of @p key, inserting the next dense slot if absent; sets
     * @p inserted so the caller can extend its SoA banks in step.
     */
    std::uint32_t
    findOrInsert(std::uint64_t key, bool &inserted)
    {
        // The sentinel key would silently alias the first empty
        // bucket probed (and corrupt the table if inserted); one
        // never-taken compare is noise next to the hash + probe.
        PERSIM_REQUIRE(key != empty_key,
                       "FlatIndexMap: key ~0 is reserved as the "
                       "empty-bucket sentinel");
        std::size_t at = static_cast<std::size_t>(mixKey(key)) & mask_;
        while (true) {
            Bucket &bucket = buckets_[at];
            if (bucket.key == key) {
                inserted = false;
                return bucket.slot;
            }
            if (bucket.key == empty_key) {
                // Cold path (first sighting of the key): the capacity
                // bound sits here, off the per-event probe loop.
                if (count_ >= max_slots_)
                    PERSIM_FATAL("FlatIndexMap: slot capacity "
                                 "exhausted (max_slots reached)");
                inserted = true;
                const std::uint32_t slot = count_++;
                bucket.key = key;
                bucket.slot = slot;
                if (count_ * 10 >= (mask_ + 1) * 7)
                    rehash((mask_ + 1) * 2);
                return slot;
            }
            at = (at + 1) & mask_;
        }
    }

    /** Slot of @p key, or no_slot when absent. */
    std::uint32_t
    find(std::uint64_t key) const
    {
        std::size_t at = static_cast<std::size_t>(mixKey(key)) & mask_;
        while (true) {
            const Bucket &bucket = buckets_[at];
            if (bucket.key == key)
                return bucket.slot;
            if (bucket.key == empty_key)
                return no_slot;
            at = (at + 1) & mask_;
        }
    }

    /** Drop every key; keeps the table storage. */
    void
    clear()
    {
        buckets_.assign(buckets_.size(), Bucket{});
        count_ = 0;
    }

  private:
    static constexpr std::size_t initial_buckets = 64;

    /**
     * Key and slot live side by side (16 bytes) so one probe touches
     * a single cache line rather than one line in a key array plus
     * one in a slot array.
     */
    struct Bucket
    {
        std::uint64_t key = empty_key;
        std::uint32_t slot = no_slot;
    };

    void
    rehash(std::size_t buckets)
    {
        std::vector<Bucket> old = std::move(buckets_);
        buckets_.assign(buckets, Bucket{});
        mask_ = buckets - 1;
        for (const Bucket &bucket : old) {
            if (bucket.key == empty_key)
                continue;
            std::size_t at =
                static_cast<std::size_t>(mixKey(bucket.key)) & mask_;
            while (buckets_[at].key != empty_key)
                at = (at + 1) & mask_;
            buckets_[at] = bucket;
        }
    }

    std::vector<Bucket> buckets_;
    std::size_t mask_ = 0;
    std::uint32_t count_ = 0;
    std::uint32_t max_slots_ = no_slot;
};

/**
 * Paged first-touch index from u64 keys to dense u32 slots.
 *
 * Same contract as FlatIndexMap — dense slots handed out in insertion
 * order, the ~0 key rejected, a hard error at max_slots — but laid
 * out for the block keys the timing engine and compileTrace intern,
 * which cluster into dense runs (heap and journal addresses). A key
 * splits into a page number (key >> page_bits) and an offset; pages
 * of page_keys u32 slots, each initialised to no_slot, hold the
 * slots. Neighbouring keys share a page, so a run of nearby addresses
 * touches one 256-byte page instead of scattered hash buckets, and a
 * one-entry last-page cache skips the directory entirely on repeat
 * hits. A miss probes the directory, an open-addressing table whose
 * 16-byte bucket holds the page number and the page's address, so one
 * probe yields the page. The directory is allocated with the first
 * page: an empty map holds no heap memory.
 *
 * Memory: under 5 B per key when keys are dense; one page plus a
 * directory bucket and a page pointer (at most page_bytes + 64 B) per
 * key in the worst case of one key per page. bytes() reports the live
 * footprint.
 */
class PagedIndexMap
{
  public:
    static constexpr std::uint64_t empty_key = FlatIndexMap::empty_key;
    static constexpr std::uint32_t no_slot = FlatIndexMap::no_slot;
    /** 64 keys per page: measured no slower than 512 or 4096 on the
        kv_shards trace (DESIGN.md §11), and it bounds sparse use. */
    static constexpr unsigned page_bits = 6;
    static constexpr std::size_t page_keys = std::size_t{1} << page_bits;
    static constexpr std::size_t page_bytes =
        page_keys * sizeof(std::uint32_t);

    explicit PagedIndexMap(std::uint32_t max_slots = no_slot)
        : max_slots_(max_slots)
    {
    }

    /** Moves leave @p other empty and usable; the last-page cache
        travels with the pages it points into. */
    PagedIndexMap(PagedIndexMap &&other) : PagedIndexMap(other.max_slots_)
    {
        swap(other);
    }

    PagedIndexMap &
    operator=(PagedIndexMap &&other)
    {
        if (this != &other) {
            swap(other);
            other.clear();
        }
        return *this;
    }

    void
    swap(PagedIndexMap &other) noexcept
    {
        directory_.swap(other.directory_);
        pages_.swap(other.pages_);
        std::swap(live_pages_, other.live_pages_);
        std::swap(last_page_no_, other.last_page_no_);
        std::swap(last_page_, other.last_page_);
        std::swap(count_, other.count_);
        std::swap(max_slots_, other.max_slots_);
    }

    /** Number of distinct keys inserted. */
    std::uint32_t size() const { return count_; }

    /** Heap bytes held: pages, page table and directory. */
    std::size_t
    bytes() const
    {
        return pages_.size() * page_bytes +
            pages_.capacity() * sizeof(pages_[0]) +
            directory_.capacity() * sizeof(Bucket);
    }

    /**
     * Slot of @p key, inserting the next dense slot if absent; sets
     * @p inserted so the caller can extend its SoA banks in step.
     */
    std::uint32_t
    findOrInsert(std::uint64_t key, bool &inserted)
    {
        // ~0 stays reserved so the two indexes accept the same keys.
        PERSIM_REQUIRE(key != empty_key,
                       "PagedIndexMap: key ~0 is reserved as the "
                       "empty-bucket sentinel");
        const std::uint64_t page_no = key >> page_bits;
        std::uint32_t *page =
            page_no == last_page_no_ ? last_page_ : pageFor(page_no);
        std::uint32_t &slot = page[key & page_mask];
        if (slot != no_slot) {
            inserted = false;
            return slot;
        }
        if (count_ >= max_slots_)
            PERSIM_FATAL("PagedIndexMap: slot capacity "
                         "exhausted (max_slots reached)");
        inserted = true;
        slot = count_++;
        return slot;
    }

    /** Slot of @p key, or no_slot when absent. */
    std::uint32_t
    find(std::uint64_t key) const
    {
        const std::uint64_t page_no = key >> page_bits;
        if (page_no == last_page_no_)
            return last_page_[key & page_mask];
        if (directory_.empty())
            return no_slot;
        const Bucket &bucket = directory_[probe(page_no)];
        return bucket.page_no == no_page ? no_slot
                                         : bucket.page[key & page_mask];
    }

    /** Drop every key; keeps the page storage for reuse. */
    void
    clear()
    {
        for (std::size_t at = 0; at < live_pages_; ++at)
            std::fill_n(pages_[at].get(), page_keys, no_slot);
        std::fill(directory_.begin(), directory_.end(), Bucket{});
        live_pages_ = 0;
        last_page_no_ = no_page;
        last_page_ = nullptr;
        count_ = 0;
    }

  private:
    static constexpr std::uint64_t page_mask = page_keys - 1;
    /** Never a page number: those are at most ~0 >> page_bits. */
    static constexpr std::uint64_t no_page = ~0ULL;
    static constexpr std::size_t initial_buckets = 64;

    /** A directory entry: a page number and its page. */
    struct Bucket
    {
        std::uint64_t page_no = no_page;
        std::uint32_t *page = nullptr;
    };

    /** Bucket holding @p page_no, or the empty bucket it would take. */
    std::size_t
    probe(std::uint64_t page_no) const
    {
        const std::size_t mask = directory_.size() - 1;
        std::size_t at = static_cast<std::size_t>(mixKey(page_no)) & mask;
        while (directory_[at].page_no != page_no &&
               directory_[at].page_no != no_page)
            at = (at + 1) & mask;
        return at;
    }

    /** Page holding @p page_no, created on first touch; caches it. */
    [[gnu::noinline]] std::uint32_t *
    pageFor(std::uint64_t page_no)
    {
        if (directory_.empty())
            directory_.resize(initial_buckets);
        Bucket &bucket = directory_[probe(page_no)];
        std::uint32_t *page = bucket.page;
        if (bucket.page_no == no_page) {
            // Only after clear() are kept pages reused.
            if (live_pages_ == pages_.size())
                pages_.push_back(
                    std::make_unique_for_overwrite<std::uint32_t[]>(
                        page_keys));
            page = pages_[live_pages_++].get();
            std::fill_n(page, page_keys, no_slot);
            bucket = Bucket{page_no, page};
            if (live_pages_ * 10 >= directory_.size() * 7)
                rehash();
        }
        last_page_no_ = page_no;
        last_page_ = page;
        return page;
    }

    /** Double the directory; pages stay where they are. */
    void
    rehash()
    {
        std::vector<Bucket> old(directory_.size() * 2);
        old.swap(directory_);
        for (const Bucket &bucket : old)
            if (bucket.page_no != no_page)
                directory_[probe(bucket.page_no)] = bucket;
    }

    /** Open-addressing directory, a power of two of buckets. */
    std::vector<Bucket> directory_;
    /** Page storage; the first live_pages_ are in use. Never shrinks. */
    std::vector<std::unique_ptr<std::uint32_t[]>> pages_;
    std::size_t live_pages_ = 0;
    std::uint64_t last_page_no_ = no_page;
    std::uint32_t *last_page_ = nullptr;
    std::uint32_t count_ = 0;
    std::uint32_t max_slots_ = no_slot;
};

} // namespace persim

#endif // PERSIM_COMMON_FLAT_MAP_HH
