/** @file Unit tests for the physical frame allocator. */

#include <gtest/gtest.h>

#include <set>

#include "mem/frame_allocator.hh"

using namespace cdp;

TEST(FrameAllocator, SequentialModeIsContiguous)
{
    FrameAllocator fa(0, 16, /*scatter=*/false);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(fa.allocate(), i * pageBytes);
}

TEST(FrameAllocator, BaseAddressRespected)
{
    FrameAllocator fa(0x100000, 4, false);
    EXPECT_EQ(fa.allocate(), 0x100000u);
    EXPECT_EQ(fa.allocate(), 0x100000u + pageBytes);
}

TEST(FrameAllocator, BaseAddressIsPageAligned)
{
    FrameAllocator fa(0x100123, 4, false);
    EXPECT_EQ(fa.allocate() % pageBytes, 0u);
}

TEST(FrameAllocator, ThrowsWhenExhausted)
{
    FrameAllocator fa(0, 2, false);
    fa.allocate();
    fa.allocate();
    EXPECT_THROW(fa.allocate(), std::runtime_error);
}

TEST(FrameAllocator, ZeroFramesRejected)
{
    EXPECT_THROW(FrameAllocator(0, 0), std::runtime_error);
}

TEST(FrameAllocator, CountsAllocations)
{
    FrameAllocator fa(0, 8, true);
    EXPECT_EQ(fa.allocated(), 0u);
    fa.allocate();
    fa.allocate();
    EXPECT_EQ(fa.allocated(), 2u);
    EXPECT_EQ(fa.capacity(), 8u);
}

/** Property: scattered allocation is a bijection (no frame reused). */
class FrameAllocatorScatter : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FrameAllocatorScatter, NoDuplicatesAndInRange)
{
    const unsigned frames = GetParam();
    FrameAllocator fa(0, frames, true);
    std::set<Addr> seen;
    for (unsigned i = 0; i < frames; ++i) {
        const Addr pa = fa.allocate();
        EXPECT_EQ(pa % pageBytes, 0u);
        EXPECT_LT(pa, static_cast<Addr>(frames) * pageBytes);
        EXPECT_TRUE(seen.insert(pa).second) << "frame reused: " << pa;
    }
    EXPECT_THROW(fa.allocate(), std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FrameAllocatorScatter,
                         ::testing::Values(1u, 2u, 3u, 16u, 100u, 1024u,
                                           4096u));

TEST(FrameAllocator, ScatterActuallyScatters)
{
    FrameAllocator fa(0, 1024, true);
    unsigned adjacent = 0;
    Addr prev = fa.allocate();
    for (unsigned i = 1; i < 1024; ++i) {
        const Addr cur = fa.allocate();
        if (cur == prev + pageBytes)
            ++adjacent;
        prev = cur;
    }
    // A scattered sequence should have few adjacent pairs.
    EXPECT_LT(adjacent, 64u);
}
