#include "sim/memory_image.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.hh"

namespace persim {

// load/exchange copy values straight between a u64 and page bytes.
static_assert(std::endian::native == std::endian::little,
              "MemoryImage stores values little-endian");

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
    if (const std::uint8_t *page = pages_.find(addr / page_size))
        std::memcpy(&word, page + offset, 8);
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
    std::uint8_t *at = pages_.get(addr / page_size) + offset;
    const std::uint64_t mask = ~0ULL >> (64 - 8 * size);
    std::uint64_t word;
    std::memcpy(&word, at, 8);
    const std::uint64_t old = word & mask;
    word = (word & ~mask) | (value & mask);
    std::memcpy(at, &word, 8);
    return old;
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
        if (const std::uint8_t *page = pages_.find(src / page_size))
            std::memcpy(out, page + offset, chunk);
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
        std::memcpy(pages_.get(dst / page_size) + offset, in, chunk);
        in += chunk;
        dst += chunk;
        n -= chunk;
    }
}

} // namespace persim
