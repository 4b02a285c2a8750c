#include "sim/memory_image.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "common/error.hh"

namespace persim {

// load/exchange copy values straight between a u64 and page bytes.
static_assert(std::endian::native == std::endian::little,
              "MemoryImage stores values little-endian");

MemoryImage::MemoryImage(MemoryImage &&other)
{
    *this = std::move(other);
}

MemoryImage &
MemoryImage::operator=(MemoryImage &&other)
{
    // Swap the pages, then empty @p other: neither side keeps a
    // cached page pointer.
    directory_.swap(other.directory_);
    std::swap(pages_, other.pages_);
    other.clear();
    last_page_no_ = no_page;
    last_page_ = nullptr;
    return *this;
}

MemoryImage::Page &
MemoryImage::pageFor(std::uint64_t page_no)
{
    if (page_no == last_page_no_)
        return *last_page_;
    bool created = false;
    const std::uint32_t at = directory_.findOrInsert(page_no, created);
    if (created)
        pages_.push_back(std::make_unique<Page>()); // Zero-filled.
    last_page_no_ = page_no;
    last_page_ = pages_[at].get();
    return *last_page_;
}

const MemoryImage::Page *
MemoryImage::findPage(std::uint64_t page_no) const
{
    if (page_no == last_page_no_)
        return last_page_;
    const std::uint32_t at = directory_.find(page_no);
    return at == FlatIndexMap::no_slot ? nullptr : pages_[at].get();
}

std::uint64_t
MemoryImage::load(Addr addr, unsigned size) const
{
    PERSIM_REQUIRE(size >= 1 && size <= max_access_size,
                   "load size must be 1..8, got " << size);
    std::uint64_t word = 0;
    const std::uint64_t offset = addr % page_size;
    if (offset > page_size - 8) {
        readBytes(&word, addr, size);
        return word;
    }
    // In-page: one 8-byte copy, masked to the access.
    if (const Page *page = findPage(addr / page_size))
        std::memcpy(&word, page->data() + offset, 8);
    return word & (~0ULL >> (64 - 8 * size));
}

std::uint64_t
MemoryImage::exchange(Addr addr, unsigned size, std::uint64_t value)
{
    const std::uint64_t offset = addr % page_size;
    if (size - 1 >= max_access_size || offset > page_size - 8) {
        const std::uint64_t old = load(addr, size); // Checks the size.
        writeBytes(addr, &value, size);
        return old;
    }
    // In-page: one lookup, one 8-byte read-modify-write.
    std::uint8_t *at = pageFor(addr / page_size).data() + offset;
    const std::uint64_t mask = ~0ULL >> (64 - 8 * size);
    std::uint64_t word;
    std::memcpy(&word, at, 8);
    const std::uint64_t old = word & mask;
    word = (word & ~mask) | (value & mask);
    std::memcpy(at, &word, 8);
    return old;
}

MemoryImage
MemoryImage::clone() const
{
    MemoryImage copy;
    copy.directory_ = directory_;
    copy.pages_.reserve(pages_.size());
    for (const auto &page : pages_)
        copy.pages_.push_back(std::make_unique<Page>(*page));
    return copy;
}

void
MemoryImage::clear()
{
    directory_.clear();
    pages_.clear();
    last_page_no_ = no_page;
    last_page_ = nullptr;
}

void
MemoryImage::readBytes(void *dst, Addr src, std::size_t n) const
{
    // One page lookup and one copy per page touched.
    auto *out = static_cast<std::uint8_t *>(dst);
    while (n > 0) {
        const std::uint64_t offset = src % page_size;
        const std::size_t chunk = static_cast<std::size_t>(
            std::min<std::uint64_t>(n, page_size - offset));
        if (const Page *page = findPage(src / page_size))
            std::memcpy(out, page->data() + offset, chunk);
        else
            std::memset(out, 0, chunk);
        out += chunk;
        src += chunk;
        n -= chunk;
    }
}

void
MemoryImage::writeBytes(Addr dst, const void *src, std::size_t n)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    while (n > 0) {
        const std::uint64_t offset = dst % page_size;
        const std::size_t chunk = static_cast<std::size_t>(
            std::min<std::uint64_t>(n, page_size - offset));
        std::memcpy(pageFor(dst / page_size).data() + offset, in, chunk);
        in += chunk;
        dst += chunk;
        n -= chunk;
    }
}

} // namespace persim
