#include "sim/memory_image.hh"

#include <algorithm>
#include <cstring>

#include "common/error.hh"

namespace persim {

MemoryImage::Page &
MemoryImage::pageFor(Addr addr)
{
    const std::uint64_t page_num = addr / page_size;
    auto &slot = pages_[page_num];
    if (!slot) {
        slot = std::make_unique<Page>();
        slot->fill(0);
    }
    return *slot;
}

const MemoryImage::Page *
MemoryImage::pageForIfPresent(Addr addr) const
{
    const std::uint64_t page_num = addr / page_size;
    auto it = pages_.find(page_num);
    return it == pages_.end() ? nullptr : it->second.get();
}

std::uint64_t
MemoryImage::load(Addr addr, unsigned size) const
{
    PERSIM_REQUIRE(size >= 1 && size <= max_access_size,
                   "load size must be 1..8, got " << size);
    // One page lookup per page touched (an access spans at most two).
    std::uint64_t value = 0;
    for (unsigned done = 0; done < size;) {
        const Addr a = addr + done;
        const std::uint64_t offset = a % page_size;
        const unsigned chunk = static_cast<unsigned>(
            std::min<std::uint64_t>(size - done, page_size - offset));
        if (const Page *page = pageForIfPresent(a)) {
            for (unsigned i = 0; i < chunk; ++i)
                value |= std::uint64_t{(*page)[offset + i]}
                         << (8 * (done + i));
        }
        done += chunk;
    }
    return value;
}

void
MemoryImage::store(Addr addr, unsigned size, std::uint64_t value)
{
    PERSIM_REQUIRE(size >= 1 && size <= max_access_size,
                   "store size must be 1..8, got " << size);
    for (unsigned done = 0; done < size;) {
        const Addr a = addr + done;
        const std::uint64_t offset = a % page_size;
        const unsigned chunk = static_cast<unsigned>(
            std::min<std::uint64_t>(size - done, page_size - offset));
        Page &page = pageFor(a);
        for (unsigned i = 0; i < chunk; ++i)
            page[offset + i] =
                static_cast<std::uint8_t>(value >> (8 * (done + i)));
        done += chunk;
    }
}

MemoryImage
MemoryImage::clone() const
{
    MemoryImage copy;
    for (const auto &[page_num, page] : pages_) {
        auto dup = std::make_unique<Page>(*page);
        copy.pages_.emplace(page_num, std::move(dup));
    }
    return copy;
}

void
MemoryImage::readBytes(void *dst, Addr src, std::size_t n) const
{
    auto *out = static_cast<std::uint8_t *>(dst);
    for (std::size_t i = 0; i < n; ++i) {
        const Addr a = src + i;
        const Page *page = pageForIfPresent(a);
        out[i] = page ? (*page)[a % page_size] : 0;
    }
}

void
MemoryImage::writeBytes(Addr dst, const void *src, std::size_t n)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    for (std::size_t i = 0; i < n; ++i) {
        const Addr a = dst + i;
        pageFor(a)[a % page_size] = in[i];
    }
}

} // namespace persim
