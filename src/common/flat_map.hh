/**
 * @file
 * Paged index from u64 keys to dense slot numbers.
 *
 * The timing engine's per-block state is keyed by block index; the
 * generic std::unordered_map<u64, State> costs a node allocation per
 * block and a pointer chase per event. PagedIndexMap separates the
 * two concerns: it maps keys to dense u32 slots, and the caller keeps
 * the actual state in parallel struct-of-arrays banks indexed by
 * slot. Slots are handed out in insertion order, so iteration order
 * of the banks is deterministic.
 */

#ifndef PERSIM_COMMON_FLAT_MAP_HH
#define PERSIM_COMMON_FLAT_MAP_HH

#include <cstdint>
#include <utility>

#include "common/error.hh"
#include "common/page_table.hh"

namespace persim {

/**
 * Paged first-touch index from u64 keys to dense u32 slots.
 *
 * Dense slots are handed out in insertion order, the ~0 key is
 * rejected, and inserting past max_slots is a hard error. The layout
 * suits the block keys the timing engine and compileTrace intern,
 * which cluster into dense runs (heap and journal addresses). A key
 * splits into a page number (key >> page_bits) and an offset into a
 * PageTable page of page_keys u32 slots, each created as no_slot.
 * Neighbouring keys share a page, so a run of nearby addresses
 * touches one 256-byte page instead of scattered hash buckets, and
 * the table's last-page cache skips its directory on repeat hits.
 *
 * Memory: under 5 B per key when keys are dense; one page plus a
 * directory bucket (at most page_bytes + 64 B) per key in the worst
 * case of one key per page. bytes() reports the live footprint.
 */
class PagedIndexMap
{
  public:
    static constexpr std::uint64_t empty_key = ~0ULL;
    static constexpr std::uint32_t no_slot = ~0U;
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

    /** Moves leave @p other empty and usable. */
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
        pages_.swap(other.pages_);
        std::swap(count_, other.count_);
        std::swap(max_slots_, other.max_slots_);
    }

    /** Number of distinct keys inserted. */
    std::uint32_t size() const { return count_; }

    /** Heap bytes held: pages and directory. */
    std::size_t bytes() const { return pages_.bytes(); }

    /**
     * Slot of @p key, inserting the next dense slot if absent; sets
     * @p inserted so the caller can extend its SoA banks in step.
     */
    std::uint32_t
    findOrInsert(std::uint64_t key, bool &inserted)
    {
        // ~0 is reserved, so callers may use it to mean "no key".
        PERSIM_REQUIRE(key != empty_key,
                       "PagedIndexMap: key ~0 is reserved as the "
                       "empty-bucket sentinel");
        std::uint32_t &slot =
            pages_.get(key >> page_bits)[key & page_mask];
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
        const std::uint32_t *page = pages_.find(key >> page_bits);
        return page ? page[key & page_mask] : no_slot;
    }

    /** Drop every key and free the pages. */
    void
    clear()
    {
        pages_.clear();
        count_ = 0;
    }

  private:
    static constexpr std::uint64_t page_mask = page_keys - 1;

    PageTable<std::uint32_t, page_keys, no_slot> pages_;
    std::uint32_t count_ = 0;
    std::uint32_t max_slots_ = no_slot;
};

} // namespace persim

#endif // PERSIM_COMMON_FLAT_MAP_HH
