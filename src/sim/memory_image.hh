/**
 * @file
 * Sparse simulated memory.
 *
 * MemoryImage backs the simulated flat address space with 4 KiB pages
 * allocated on demand. Values are stored little-endian so that a
 * multi-byte load returns what a multi-byte store wrote, and so that
 * recovery analyses can reconstruct images byte-for-byte. A one-entry
 * last-page cache in front of the page directory is written only on
 * the mutating path, so threads may share a const image (DESIGN.md
 * Section 10).
 */

#ifndef PERSIM_SIM_MEMORY_IMAGE_HH
#define PERSIM_SIM_MEMORY_IMAGE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.hh"
#include "common/types.hh"

namespace persim {

/** Byte-addressable sparse memory with on-demand page allocation. */
class MemoryImage
{
  public:
    static constexpr std::uint64_t page_size = 4096;

    MemoryImage() = default;

    /** Takes @p other's pages; @p other is left empty and usable. */
    MemoryImage(MemoryImage &&other);
    MemoryImage &operator=(MemoryImage &&other);

    /** Read @p size (1..8) bytes at @p addr as a little-endian value. */
    std::uint64_t load(Addr addr, unsigned size) const;

    /** Write the low @p size (1..8) bytes of @p value at @p addr. */
    void
    store(Addr addr, unsigned size, std::uint64_t value)
    {
        exchange(addr, size, value);
    }

    /** store(), returning the value load() read there before. */
    std::uint64_t exchange(Addr addr, unsigned size, std::uint64_t value);

    /** Copy @p n raw bytes out of simulated memory. */
    void readBytes(void *dst, Addr src, std::size_t n) const;

    /** Copy @p n raw bytes into simulated memory. */
    void writeBytes(Addr dst, const void *src, std::size_t n);

    /** Number of pages materialized so far. */
    std::size_t pageCount() const { return pages_.size(); }

    /**
     * Deep copy. MemoryImage is deliberately move-only (pages are
     * uniquely owned); copy-then-perturb analyses — fault models,
     * corruption fuzzers — clone explicitly instead.
     */
    MemoryImage clone() const;

    /** Drop all contents. */
    void clear();

  private:
    using Page = std::array<std::uint8_t, page_size>;

    static constexpr std::uint64_t no_page = ~0ULL; //!< No page has it.

    /** Page @p page_no, made zero-filled if new; cached as the last. */
    Page &pageFor(std::uint64_t page_no);

    /** Page @p page_no, or nullptr if never written. */
    const Page *findPage(std::uint64_t page_no) const;

    FlatIndexMap directory_; //!< Page number -> slot in pages_.
    std::vector<std::unique_ptr<Page>> pages_;
    std::uint64_t last_page_no_ = no_page;
    Page *last_page_ = nullptr;
};

} // namespace persim

#endif // PERSIM_SIM_MEMORY_IMAGE_HH
