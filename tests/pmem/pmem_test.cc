/**
 * @file
 * Tests for the persistent-memory programming helpers.
 */

#include <gtest/gtest.h>

#include "pmem/pmem.hh"

namespace persim {
namespace {

TEST(PBuffer, BoundsCheckedIo)
{
    EngineConfig config;
    ExecutionEngine engine(config, nullptr);
    engine.run({[](ThreadCtx &ctx) {
        PBuffer buffer(ctx.pmalloc(64), 64);
        const char msg[] = "hello persistent world";
        buffer.write(ctx, 10, msg, sizeof(msg));
        char out[sizeof(msg)] = {};
        buffer.read(ctx, 10, out, sizeof(msg));
        EXPECT_STREQ(out, msg);
        EXPECT_EQ(buffer.at(0), buffer.base());
        EXPECT_THROW(buffer.at(64), FatalError);
        EXPECT_THROW(buffer.write(ctx, 60, msg, 8), FatalError);
        EXPECT_THROW(buffer.read(ctx, 60, out, 8), FatalError);
    }});
}

} // namespace
} // namespace persim
