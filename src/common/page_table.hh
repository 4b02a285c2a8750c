/**
 * @file
 * A sparse table of fixed-size pages keyed by u64 page number.
 *
 * Both sparse address maps in persim sit on this one table:
 * PagedIndexMap (common/flat_map.hh) keeps pages of u32 bank slots,
 * MemoryImage (sim/memory_image.hh) pages of simulated memory bytes.
 * A page is created on first touch, filled with the table's fill
 * value. Lookups go through a one-entry last-page cache, then an
 * open-addressing directory whose 16-byte bucket holds a page number
 * and the page it owns, so one probe yields the page. Only get(), the
 * creating lookup, writes the cache, so threads may call find() on
 * one const table concurrently. The directory is allocated with the
 * first page: an empty table holds no heap memory. DESIGN.md
 * Section 11 records why the directory holds page addresses.
 */

#ifndef PERSIM_COMMON_PAGE_TABLE_HH
#define PERSIM_COMMON_PAGE_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

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

/**
 * Pages of @p N elements of @p T, each created holding @p Fill.
 * Page numbers must be below ~0, which marks an empty bucket.
 */
template <typename T, std::size_t N, T Fill = T{}>
class PageTable
{
  public:
    static constexpr std::size_t page_bytes = N * sizeof(T);

    PageTable() = default;

    /** Moves leave @p other empty and usable; the last-page cache
        travels with the pages it points into. */
    PageTable(PageTable &&other) noexcept { swap(other); }

    PageTable &
    operator=(PageTable &&other) noexcept
    {
        if (this != &other) {
            clear();
            swap(other);
        }
        return *this;
    }

    void
    swap(PageTable &other) noexcept
    {
        directory_.swap(other.directory_);
        std::swap(page_count_, other.page_count_);
        std::swap(last_page_no_, other.last_page_no_);
        std::swap(last_page_, other.last_page_);
    }

    /**
     * Deep copy. The table is move-only (it owns its pages); callers
     * that need a second table copy it explicitly.
     */
    PageTable
    clone() const
    {
        PageTable copy;
        copy.directory_.resize(directory_.size());
        for (std::size_t at = 0; at < directory_.size(); ++at) {
            const Bucket &bucket = directory_[at];
            if (!bucket.page)
                continue;
            copy.directory_[at] = Bucket{bucket.page_no, newPage()};
            std::copy_n(bucket.page.get(), N,
                        copy.directory_[at].page.get());
        }
        copy.page_count_ = page_count_;
        return copy;
    }

    /** Page @p page_no, or nullptr if it was never created. */
    const T *
    find(std::uint64_t page_no) const
    {
        if (page_no == last_page_no_)
            return last_page_;
        if (directory_.empty())
            return nullptr;
        return directory_[probe(page_no)].page.get();
    }

    /** Page @p page_no, created on first touch; cached as the last. */
    T *
    get(std::uint64_t page_no)
    {
        return page_no == last_page_no_ ? last_page_ : lookup(page_no);
    }

    /** Number of pages created. */
    std::size_t pages() const { return page_count_; }

    /** Heap bytes held: pages and directory. */
    std::size_t
    bytes() const
    {
        return page_count_ * page_bytes +
            directory_.capacity() * sizeof(Bucket);
    }

    /** Free every page and the directory. */
    void
    clear()
    {
        directory_ = std::vector<Bucket>();
        page_count_ = 0;
        last_page_no_ = no_page;
        last_page_ = nullptr;
    }

  private:
    static constexpr std::uint64_t no_page = ~0ULL;
    static constexpr std::size_t initial_buckets = 64;

    /** A directory entry: a page number and the page it owns. */
    struct Bucket
    {
        std::uint64_t page_no = no_page;
        std::unique_ptr<T[]> page;
    };

    static std::unique_ptr<T[]>
    newPage()
    {
        return std::make_unique_for_overwrite<T[]>(N);
    }

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

    /** get() past the cache: probe, creating the page if absent. */
    [[gnu::noinline]] T *
    lookup(std::uint64_t page_no)
    {
        if (directory_.empty())
            directory_.resize(initial_buckets);
        Bucket &bucket = directory_[probe(page_no)];
        T *page = bucket.page.get();
        if (!page) {
            bucket = Bucket{page_no, newPage()};
            page = bucket.page.get();
            std::fill_n(page, N, Fill);
            if (++page_count_ * 10 >= directory_.size() * 7)
                grow();
        }
        last_page_no_ = page_no;
        last_page_ = page;
        return page;
    }

    /** Double the directory; pages stay where they are. */
    void
    grow()
    {
        std::vector<Bucket> old(directory_.size() * 2);
        old.swap(directory_);
        for (Bucket &bucket : old)
            if (bucket.page)
                directory_[probe(bucket.page_no)] = std::move(bucket);
    }

    /** Open-addressing directory, a power of two of buckets. */
    std::vector<Bucket> directory_;
    std::size_t page_count_ = 0;
    std::uint64_t last_page_no_ = no_page;
    T *last_page_ = nullptr;
};

} // namespace persim

#endif // PERSIM_COMMON_PAGE_TABLE_HH
