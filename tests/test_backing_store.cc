/** @file Unit tests for the simulated physical memory. */

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <vector>

#include "common/rng.hh"
#include "mem/backing_store.hh"
#include "snapshot/ckpt_io.hh"

using namespace cdp;

TEST(BackingStore, UnwrittenMemoryReadsZero)
{
    BackingStore m;
    EXPECT_EQ(m.read8(0x1234), 0u);
    EXPECT_EQ(m.read32(0xdeadbe00), 0u);
}

TEST(BackingStore, ByteRoundTrip)
{
    BackingStore m;
    m.write8(0x42, 0xab);
    EXPECT_EQ(m.read8(0x42), 0xabu);
    EXPECT_EQ(m.read8(0x43), 0u);
}

TEST(BackingStore, Word32RoundTrip)
{
    BackingStore m;
    m.write32(0x1000, 0x12345678u);
    EXPECT_EQ(m.read32(0x1000), 0x12345678u);
}

TEST(BackingStore, Word32IsLittleEndian)
{
    BackingStore m;
    m.write32(0x2000, 0x11223344u);
    EXPECT_EQ(m.read8(0x2000), 0x44u);
    EXPECT_EQ(m.read8(0x2001), 0x33u);
    EXPECT_EQ(m.read8(0x2002), 0x22u);
    EXPECT_EQ(m.read8(0x2003), 0x11u);
}

TEST(BackingStore, Word32AcrossFrameBoundary)
{
    BackingStore m;
    const Addr pa = pageBytes - 2; // straddles frames 0 and 1
    m.write32(pa, 0xa1b2c3d4u);
    EXPECT_EQ(m.read32(pa), 0xa1b2c3d4u);
    EXPECT_EQ(m.read8(pageBytes - 1), 0xc3u);
    EXPECT_EQ(m.read8(pageBytes), 0xb2u);
}

TEST(BackingStore, ReadLineReturnsAlignedLine)
{
    BackingStore m;
    for (Addr i = 0; i < lineBytes; ++i)
        m.write8(0x3040 + i, static_cast<std::uint8_t>(i));
    std::uint8_t buf[lineBytes];
    m.readLine(0x3050, buf); // mid-line address -> same line
    for (Addr i = 0; i < lineBytes; ++i)
        EXPECT_EQ(buf[i], i) << "offset " << i;
}

TEST(BackingStore, ReadLineOfUntouchedMemoryIsZero)
{
    BackingStore m;
    std::uint8_t buf[lineBytes];
    m.readLine(0x9990000, buf);
    for (Addr i = 0; i < lineBytes; ++i)
        EXPECT_EQ(buf[i], 0u);
}

TEST(BackingStore, FramesMaterializeLazily)
{
    BackingStore m;
    EXPECT_EQ(m.framesTouched(), 0u);
    (void)m.read32(0x1000); // reads do not materialize
    EXPECT_EQ(m.framesTouched(), 0u);
    m.write8(0x1000, 1);
    EXPECT_EQ(m.framesTouched(), 1u);
    m.write8(0x1001, 2); // same frame
    EXPECT_EQ(m.framesTouched(), 1u);
    m.write8(0x10000, 3); // new frame
    EXPECT_EQ(m.framesTouched(), 2u);
}

TEST(BackingStore, DigestCoversPageNumbersAndBytesInPageOrder)
{
    // The same image built in two orders has one digest: the chunk
    // sum over (page number, frame sum) pairs in ascending page order.
    BackingStore a, b;
    const Addr pages[] = {0x7000, 0x1000, 0x42000, 0x3000};
    for (const Addr page : pages)
        a.write32(page + 0x10, static_cast<std::uint32_t>(page));
    for (auto it = std::rbegin(pages); it != std::rend(pages); ++it)
        b.write32(*it + 0x10, static_cast<std::uint32_t>(*it));
    EXPECT_EQ(a.pages(), (std::vector<Addr>{0x1000, 0x3000, 0x7000,
                                            0x42000}));
    std::vector<std::uint64_t> pairs;
    for (const Addr page : a.pages()) {
        pairs.push_back(pageNumber(page));
        pairs.push_back(
            snap::chunkSum(a.pageDataIfPresent(page), pageBytes));
    }
    EXPECT_EQ(a.digest(),
              snap::chunkSum(pairs.data(), pairs.size() * 8));
    EXPECT_EQ(a.digest(), b.digest());

    // One flipped bit, one more frame (even all zeros), or the same
    // bytes on another page each change it.
    const std::uint64_t built = a.digest();
    a.write8(0x3fff, 0x80);
    EXPECT_NE(a.digest(), built);
    a.write8(0x3fff, 0);
    EXPECT_EQ(a.digest(), built);
    a.pageData(0x9000);
    EXPECT_NE(a.digest(), built);
    BackingStore moved;
    for (const Addr page : pages)
        moved.write32(page + pageBytes + 0x10,
                      static_cast<std::uint32_t>(page));
    EXPECT_NE(moved.digest(), built);
}

/** Property: random word writes read back exactly. */
TEST(BackingStoreProperty, RandomWordRoundTrips)
{
    BackingStore m;
    Rng rng(123);
    // Use distinct addresses so reads are unambiguous.
    std::vector<std::pair<Addr, std::uint32_t>> writes;
    for (int i = 0; i < 2000; ++i) {
        const Addr pa = (static_cast<Addr>(i) * 52u + 4) & ~3u;
        const std::uint32_t v = rng.next32();
        m.write32(pa, v);
        writes.emplace_back(pa, v);
    }
    for (const auto &[pa, v] : writes)
        EXPECT_EQ(m.read32(pa), v);
}

/** Property: line reads agree with word reads at every offset. */
TEST(BackingStoreProperty, LineReadMatchesWordReads)
{
    BackingStore m;
    Rng rng(321);
    for (int t = 0; t < 50; ++t) {
        const Addr base =
            lineAlign(static_cast<Addr>(rng.below(1 << 20)));
        for (Addr off = 0; off < lineBytes; off += 4)
            m.write32(base + off, rng.next32());
        std::uint8_t buf[lineBytes];
        m.readLine(base, buf);
        for (Addr off = 0; off < lineBytes; off += 4) {
            std::uint32_t w;
            std::memcpy(&w, buf + off, 4);
            EXPECT_EQ(w, m.read32(base + off));
        }
    }
}
