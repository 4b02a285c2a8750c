/**
 * @file
 * Persistent-memory programming conveniences.
 *
 * Bounded persistent buffers make recoverable data structures written
 * against the traced memory API readable.
 */

#ifndef PERSIM_PMEM_PMEM_HH
#define PERSIM_PMEM_PMEM_HH

#include <cstdint>
#include <cstddef>

#include "common/error.hh"
#include "memtrace/event.hh"
#include "sim/engine.hh"

namespace persim {

/** A bounds-checked byte buffer in simulated memory. */
class PBuffer
{
  public:
    PBuffer() : base_(invalid_addr), size_(0) {}
    PBuffer(Addr base, std::uint64_t size) : base_(base), size_(size) {}

    Addr base() const { return base_; }
    std::uint64_t size() const { return size_; }
    bool valid() const { return base_ != invalid_addr; }

    /** Address of byte @p offset; fatals when out of bounds. */
    Addr
    at(std::uint64_t offset) const
    {
        PERSIM_REQUIRE(offset < size_,
                       "PBuffer offset " << offset << " out of bounds ("
                       << size_ << ")");
        return base_ + offset;
    }

    /** Traced write of @p n host bytes at @p offset. */
    void
    write(ThreadCtx &ctx, std::uint64_t offset, const void *src,
          std::size_t n) const
    {
        PERSIM_REQUIRE(offset + n <= size_, "PBuffer write out of bounds");
        ctx.copyIn(base_ + offset, src, n);
    }

    /** Traced read of @p n bytes at @p offset into host memory. */
    void
    read(ThreadCtx &ctx, std::uint64_t offset, void *dst,
         std::size_t n) const
    {
        PERSIM_REQUIRE(offset + n <= size_, "PBuffer read out of bounds");
        ctx.copyOut(dst, base_ + offset, n);
    }

  private:
    Addr base_;
    std::uint64_t size_;
};

} // namespace persim

#endif // PERSIM_PMEM_PMEM_HH
