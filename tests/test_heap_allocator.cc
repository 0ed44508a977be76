/** @file Unit tests for the simulated heap allocator. */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "snapshot/ckpt_io.hh"
#include "workloads/heap_allocator.hh"

using namespace cdp;

namespace
{

struct HeapFixture : ::testing::Test
{
    BackingStore store;
    FrameAllocator frames{0, 8192, true};
    PageTable pt{store, frames};
    HeapAllocator heap{store, pt, frames};
};

} // namespace

TEST_F(HeapFixture, FirstAllocationAtHeapBase)
{
    EXPECT_EQ(heap.alloc(16), defaultHeapBase);
}

TEST_F(HeapFixture, AllocationsShareHighOrderBits)
{
    // The property VAM exploits: every heap pointer matches the heap
    // base in its upper 8 bits.
    for (int i = 0; i < 1000; ++i) {
        const Addr va = heap.alloc(48);
        EXPECT_EQ(va >> 24, defaultHeapBase >> 24);
    }
}

TEST_F(HeapFixture, AlignmentHonored)
{
    heap.alloc(3);
    EXPECT_EQ(heap.alloc(8, 4) % 4, 0u);
    heap.alloc(5);
    EXPECT_EQ(heap.alloc(8, 8) % 8, 0u);
    heap.alloc(1);
    EXPECT_EQ(heap.alloc(64, 64) % 64, 0u);
}

TEST_F(HeapFixture, BadAlignmentRejected)
{
    EXPECT_THROW(heap.alloc(8, 3), std::invalid_argument);
    EXPECT_THROW(heap.alloc(8, 0), std::invalid_argument);
}

TEST_F(HeapFixture, AllocationsDoNotOverlap)
{
    const Addr a = heap.alloc(100);
    const Addr b = heap.alloc(100);
    EXPECT_GE(b, a + 100);
}

TEST_F(HeapFixture, PagesMappedOnAllocation)
{
    const Addr va = heap.alloc(3 * pageBytes); // spans 4 pages
    for (Addr off = 0; off < 3 * pageBytes; off += pageBytes)
        EXPECT_TRUE(pt.translate(va + off).has_value());
}

TEST_F(HeapFixture, Word32RoundTripThroughTranslation)
{
    const Addr va = heap.alloc(64);
    heap.write32(va + 8, 0xcafef00du);
    EXPECT_EQ(heap.read32(va + 8), 0xcafef00du);
    // And the physical copy agrees.
    const auto pa = pt.translate(va + 8);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(store.read32(*pa), 0xcafef00du);
}

TEST_F(HeapFixture, CrossPageWord)
{
    // Force an allocation whose word straddles a page boundary.
    heap.alloc(pageBytes - 18, 2);
    const Addr va = heap.alloc(8, 2);
    ASSERT_EQ(pageOffset(va), pageBytes - 18 + (pageBytes - 18) % 2);
    const Addr cross = pageAlign(va) + pageBytes - 2;
    heap.ensureMapped(cross, 8);
    heap.write32(cross, 0x11223344u);
    EXPECT_EQ(heap.read32(cross), 0x11223344u);
}

TEST_F(HeapFixture, UnmappedAccessThrows)
{
    EXPECT_THROW(heap.read32(0xbf000000), std::runtime_error);
    EXPECT_THROW(heap.write32(0xbf000000, 1), std::runtime_error);
}

TEST_F(HeapFixture, BytesAllocatedTracked)
{
    heap.alloc(100, 4);
    EXPECT_GE(heap.bytesAllocated(), 100u);
    EXPECT_LT(heap.bytesAllocated(), 200u);
}

TEST(HeapAlignmentNoise, FractionOfAllocationsLooselyAligned)
{
    BackingStore store;
    FrameAllocator frames{0, 8192, true};
    PageTable pt{store, frames};
    HeapAllocator heap(store, pt, frames, defaultHeapBase,
                       /*align_noise=*/0.5, 1234);
    unsigned loose = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        // Odd size keeps the bump pointer unaligned so the next
        // allocation's effective alignment is observable.
        const Addr va = heap.alloc(6, 4);
        if (va % 4 != 0)
            ++loose;
    }
    // Roughly half the allocations should be 2-byte aligned only.
    EXPECT_GT(loose, n / 4u);
    EXPECT_LT(loose, 3u * n / 4u);
}

TEST(HeapAlignmentNoise, ZeroNoiseKeepsEverythingAligned)
{
    BackingStore store;
    FrameAllocator frames{0, 8192, true};
    PageTable pt{store, frames};
    HeapAllocator heap(store, pt, frames, defaultHeapBase, 0.0, 1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(heap.alloc(6, 4) % 4, 0u);
}

TEST(HeapAllocator, RefusesAnUnalignedBase)
{
    BackingStore store;
    FrameAllocator frames{0, 64, true};
    PageTable pt{store, frames};
    EXPECT_THROW(HeapAllocator(store, pt, frames, defaultHeapBase + 4),
                 std::invalid_argument);
}

namespace
{

/** One simulated memory with a main heap and a low globals heap. */
struct Machine
{
    BackingStore store;
    FrameAllocator frames{0, 8192, true};
    PageTable pt{store, frames};
    HeapAllocator heap{store, pt, frames, defaultHeapBase, 0.3, 11};
    HeapAllocator globals{store, pt, frames, 0x00200000, 0.0, 12};

    /** The word at @p va read byte by byte through the page table. */
    std::optional<std::uint32_t>
    walk32(Addr va) const
    {
        std::uint32_t v = 0;
        for (Addr i = 0; i < 4; ++i) {
            const auto pa = pt.translate(va + i);
            if (!pa)
                return std::nullopt;
            v |= std::uint32_t{store.read8(*pa)} << (8 * i);
        }
        return v;
    }

    /** Simulator::saveCheckpoint's STOR section: all it keeps of memory. */
    void
    save(std::ostream &os) const
    {
        snap::Writer w(os);
        w.beginSection("STOR");
        w.u64(store.framesTouched());
        w.u64(store.digest());
        w.u64(heap.heapTop());
        w.endSection();
        w.finish();
    }

    /** Simulator::restoreCheckpoint's STOR check; changes nothing. */
    void
    restore(std::istream &is)
    {
        snap::Reader r(is);
        r.enterSection("STOR");
        r.expectU64(store.framesTouched(), "materialized frame count");
        if (r.u64() != store.digest())
            r.fail("memory image differs from this machine's");
        r.expectU64(heap.heapTop(), "heap top");
        r.leaveSection();
        r.finish();
    }
};

/** Allocate a few hundred odd-sized objects and write some words. */
void
populate(HeapAllocator &h, Rng &rng, unsigned objects)
{
    for (unsigned i = 0; i < objects; ++i) {
        const Addr va = h.alloc(4 + 4 * rng.below(40), 4);
        if (rng.chance(0.7))
            h.write32(va, rng.next32());
    }
    // Mapped pages whose frames are never written.
    h.alloc(3 * pageBytes, pageBytes);
}

/**
 * Read random words of @p h around its heap -- below the base,
 * straddling page ends, at and past the mapped end, on never-written
 * frames -- and require each to match a page-table walk: the same
 * value, or a throw where the walk finds no mapping.
 */
void
expectReadsAgree(const Machine &m, const HeapAllocator &h, Rng &rng)
{
    const Addr lo = h.heapBase() - 2 * pageBytes;
    const Addr span = h.heapTop() - lo + 4 * pageBytes;
    std::vector<Addr> probes;
    for (int i = 0; i < 4000; ++i)
        probes.push_back(lo + static_cast<Addr>(rng.below(span)));
    for (Addr page = h.heapBase(); page < h.heapTop() + 2 * pageBytes;
         page += pageBytes) {
        probes.push_back(page - 2); // straddles a page end
        probes.push_back(page - 4);
        probes.push_back(page);
    }
    probes.push_back(h.heapBase() - 4);
    for (int pass = 0; pass < 2; ++pass) { // fill, then hit the map
        for (const Addr va : probes) {
            const auto want = m.walk32(va);
            if (want)
                EXPECT_EQ(h.read32(va), *want) << std::hex << va;
            else
                EXPECT_THROW(h.read32(va), std::runtime_error)
                    << std::hex << va;
        }
    }
}

} // namespace

TEST(HeapAllocator, DenseMapAgreesWithPageTable)
{
    Machine a;
    Rng rng(5);
    populate(a.heap, rng, 600);
    populate(a.globals, rng, 200);

    // Never-written frames read as zero and stay unmaterialized.
    const std::size_t touched = a.store.framesTouched();
    const Addr fresh = a.heap.heapTop() - pageBytes;
    EXPECT_EQ(a.heap.read32(fresh), 0u);
    EXPECT_EQ(a.heap.read32(fresh), 0u);
    EXPECT_EQ(a.store.framesTouched(), touched);
    a.heap.write32(fresh, 0x600dbeefu);
    EXPECT_EQ(a.heap.read32(fresh), 0x600dbeefu);

    expectReadsAgree(a, a.heap, rng);
    expectReadsAgree(a, a.globals, rng);

    std::stringstream image;
    a.save(image);

    // A second machine maps its pages to other frames (globals first,
    // different sizes): its memory image differs, and the restore
    // refuses it at STOR.
    Machine b;
    Rng other(99);
    populate(b.globals, other, 300);
    populate(b.heap, other, 900);
    expectReadsAgree(b, b.heap, other);
    expectReadsAgree(b, b.globals, other);
    try {
        b.restore(image);
        ADD_FAILURE() << "a different memory image was restored";
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("checkpoint section 'STOR'"),
                  std::string::npos)
            << e.what();
    }

    // A third machine builds the first one's image but fills its maps
    // in another order (globals first, other probes); after restoring
    // the first machine's checkpoint its maps still agree with its
    // page table, and it reads what the first machine reads.
    Machine c;
    Rng same(5);
    populate(c.heap, same, 600);
    populate(c.globals, same, 200);
    c.heap.write32(fresh, 0x600dbeefu);
    Rng probes(77);
    expectReadsAgree(c, c.globals, probes);
    expectReadsAgree(c, c.heap, probes);

    image.clear();
    image.seekg(0);
    c.restore(image);
    EXPECT_EQ(c.heap.heapTop(), a.heap.heapTop());
    expectReadsAgree(c, c.heap, rng);
    expectReadsAgree(c, c.globals, rng);
    for (Addr va = a.heap.heapBase(); va + 4 <= a.heap.heapTop();
         va += 52)
        EXPECT_EQ(c.heap.read32(va), a.heap.read32(va)) << std::hex << va;
}
