/** @file
 * Unit tests for the uop-stream generators: emitted loads must point
 * at real structure bytes, dependencies must be wired, and mixes
 * must respect their weights.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "snapshot/ckpt_io.hh"
#include "workloads/generators.hh"
#include "workloads/suite.hh"

using namespace cdp;

namespace
{

struct GenFixture : ::testing::Test
{
    BackingStore store;
    FrameAllocator frames{0, 32768, true};
    PageTable pt{store, frames};
    HeapAllocator heap{store, pt, frames};
    Rng rng{77};
};

} // namespace

TEST_F(GenFixture, ListGenPointerLoadsFollowTheRealChain)
{
    BuiltList list = buildLinkedList(heap, 64, 64, 8, 1, rng);
    const std::vector<Addr> expect = list.nodes;
    WalkOptions w;
    w.payloadLoads = 0;
    w.aluPerNode = 0;
    ListTraversalGen gen(heap, std::move(list), 0x1000, 0, w, 5);

    std::vector<Addr> chased;
    while (chased.size() < 64) {
        const Uop u = gen.next();
        if (u.type == UopType::Load && u.pointerLoad)
            chased.push_back(lineAlign(u.vaddr));
    }
    for (std::size_t i = 0; i < chased.size(); ++i)
        EXPECT_EQ(chased[i], lineAlign(expect[i] + 8)) << "hop " << i;
}

TEST_F(GenFixture, ListGenPointerLoadDependsOnPointerRegister)
{
    BuiltList list = buildLinkedList(heap, 16, 64, 8, 1, rng);
    WalkOptions w;
    ListTraversalGen gen(heap, std::move(list), 0x1000, 0, w, 5);
    for (int i = 0; i < 100; ++i) {
        const Uop u = gen.next();
        if (u.type == UopType::Load && u.pointerLoad) {
            EXPECT_EQ(u.src0, 0); // reads the pointer register
            EXPECT_EQ(u.dst, 0);  // and writes it back (the chase)
        }
    }
}

TEST_F(GenFixture, ListGenEmitsPayloadComputeAndBranch)
{
    BuiltList list = buildLinkedList(heap, 16, 128, 8, 1, rng);
    WalkOptions w;
    w.payloadLoads = 2;
    w.aluPerNode = 3;
    ListTraversalGen gen(heap, std::move(list), 0x1000, 0, w, 5);
    unsigned loads = 0, alus = 0, branches = 0;
    for (int i = 0; i < 7 * 20; ++i) {
        switch (gen.next().type) {
          case UopType::Load: ++loads; break;
          case UopType::Alu:
          case UopType::Fp: ++alus; break;
          case UopType::Branch: ++branches; break;
          default: break;
        }
    }
    EXPECT_GT(loads, 0u);
    EXPECT_GT(alus, 0u);
    EXPECT_GT(branches, 0u);
    // Per node: 2 payload + 3 compute + 1 pointer load + 1 branch.
    EXPECT_EQ(loads, 3u * branches);
}

TEST_F(GenFixture, ListGenPayloadTouchesTrailingLines)
{
    // 128-byte nodes: a payload load must land beyond offset 63.
    BuiltList list = buildLinkedList(heap, 16, 128, 8, 1, rng);
    const Addr node0 = list.nodes[0];
    WalkOptions w;
    w.payloadLoads = 2;
    ListTraversalGen gen(heap, std::move(list), 0x1000, 0, w, 5);
    bool trailing = false;
    for (int i = 0; i < 8; ++i) {
        const Uop u = gen.next();
        if (u.type == UopType::Load && !u.pointerLoad)
            trailing |= (u.vaddr >= node0 + 64 && u.vaddr < node0 + 128);
    }
    EXPECT_TRUE(trailing);
}

TEST_F(GenFixture, TreeGenWalksRealChildren)
{
    BuiltTree tree = buildBinaryTree(heap, 200, 32, rng);
    const Addr root = tree.root;
    const auto left_off = tree.leftOffset;
    const auto right_off = tree.rightOffset;
    WalkOptions w;
    TreeSearchGen gen(heap, std::move(tree), 0x2000, 4, w, 5);
    // The first pointer load must target one of the root's child
    // slots.
    for (int i = 0; i < 10; ++i) {
        const Uop u = gen.next();
        if (u.type == UopType::Load && u.pointerLoad) {
            EXPECT_TRUE(u.vaddr == root + left_off ||
                        u.vaddr == root + right_off);
            break;
        }
    }
}

TEST_F(GenFixture, HashGenLoadsBucketHeadThenChain)
{
    BuiltHash hash = buildHashTable(heap, 16, 100, 32, rng);
    const Addr arr = hash.bucketArray;
    WalkOptions w;
    HashLookupGen gen(heap, std::move(hash), 0x3000, 8, w, 5);
    bool saw_bucket_load = false;
    for (int i = 0; i < 50; ++i) {
        const Uop u = gen.next();
        if (u.type == UopType::Load && u.pointerLoad &&
            u.vaddr >= arr && u.vaddr < arr + 16 * 4) {
            saw_bucket_load = true;
            break;
        }
    }
    EXPECT_TRUE(saw_bucket_load);
}

TEST_F(GenFixture, StrideGenStridesAndWraps)
{
    StrideStreamGen gen(0x10000000, 1024, 64, 0x4000, 12, 1, 5);
    std::vector<Addr> addrs;
    while (addrs.size() < 20) {
        const Uop u = gen.next();
        if (u.type == UopType::Load)
            addrs.push_back(u.vaddr);
    }
    for (int i = 0; i < 15; ++i) {
        EXPECT_EQ(addrs[i], 0x10000000u + (i * 64) % 1024)
            << "iteration " << i;
    }
}

TEST_F(GenFixture, RandomGenStaysInRegion)
{
    RandomAccessGen gen(0x10000000, 4096, 0x5000, 16, 5);
    for (int i = 0; i < 200; ++i) {
        const Uop u = gen.next();
        if (u.type == UopType::Load) {
            EXPECT_GE(u.vaddr, 0x10000000u);
            EXPECT_LT(u.vaddr, 0x10001000u);
        }
    }
}

TEST_F(GenFixture, ComputeGenHotLoadsStayInHotRegion)
{
    ComputeGen gen(0x6000, 20, 8, 0.0, 0.0, 0x20000000, 8192, 3, 5);
    unsigned loads = 0, total = 0;
    for (int i = 0; i < 240; ++i) {
        const Uop u = gen.next();
        ++total;
        if (u.type == UopType::Load) {
            ++loads;
            EXPECT_GE(u.vaddr, 0x20000000u);
            EXPECT_LT(u.vaddr, 0x20002000u);
        }
    }
    // 3 hot loads per 12-uop block.
    EXPECT_NEAR(static_cast<double>(loads) / total, 0.25, 0.05);
}

TEST_F(GenFixture, ComputeGenNoHotRegionMeansNoLoads)
{
    ComputeGen gen(0x6000, 20, 8, 0.0, 0.0, 0, 0, 3, 5);
    for (int i = 0; i < 100; ++i)
        EXPECT_NE(gen.next().type, UopType::Load);
}

TEST_F(GenFixture, MixGenRespectsWeights)
{
    auto a = std::make_unique<ComputeGen>(0x100, 0, 1, 0.0, 0.0, 0, 0,
                                          0, 5);
    auto b = std::make_unique<ComputeGen>(0x900, 8, 1, 0.0, 0.0, 0, 0,
                                          0, 6);
    MixGen mix("m", 3);
    mix.add(std::move(a), 0.8);
    mix.add(std::move(b), 0.2);
    std::map<bool, unsigned> counts; // keyed by pc < 0x900
    for (int i = 0; i < 10000; ++i)
        ++counts[mix.next().pc < 0x900];
    const double frac_a =
        static_cast<double>(counts[true]) / 10000.0;
    EXPECT_NEAR(frac_a, 0.8, 0.05);
}

TEST_F(GenFixture, MixGenWithNoSourcesThrows)
{
    MixGen mix("empty", 1);
    EXPECT_THROW(mix.next(), std::runtime_error);
}

TEST_F(GenFixture, GeneratorsAreDeterministicPerSeed)
{
    auto make = [&](std::uint64_t seed) {
        BuiltList l = buildLinkedList(heap, 32, 64, 8, 2, rng);
        return std::make_unique<ListTraversalGen>(
            heap, std::move(l), 0x1000, 0, WalkOptions{}, seed);
    };
    // Same structure traversal is deterministic given the seed; the
    // two generators walk different lists but fixed seeds give a
    // reproducible uop type sequence.
    auto g1 = make(11);
    std::vector<UopType> t1, t2;
    for (int i = 0; i < 50; ++i)
        t1.push_back(g1->next().type);
    auto g2 = make(11);
    for (int i = 0; i < 50; ++i)
        t2.push_back(g2->next().type);
    EXPECT_EQ(t1, t2);
}

namespace
{

bool
sameUop(const Uop &a, const Uop &b)
{
    return a.type == b.type && a.pc == b.pc && a.vaddr == b.vaddr &&
           a.src0 == b.src0 && a.src1 == b.src1 && a.dst == b.dst &&
           a.taken == b.taken && a.pointerLoad == b.pointerLoad;
}

std::vector<std::string>
everyWorkload()
{
    std::vector<std::string> names;
    for (const auto &s : table2Suite())
        names.push_back(s.name);
    for (const auto &s : extraWorkloads())
        names.push_back(s.name);
    return names;
}

class MixGenFill : public ::testing::TestWithParam<std::string>
{
};

} // namespace

TEST_P(MixGenFill, BatchesMatchRepeatedNext)
{
    // The core fetches through fill(); MixGen::fill must make the
    // same selector draw per slot as next() and hand out the same
    // uops, whatever the batch size.
    SimConfig cfg;
    cfg.workload = GetParam();
    constexpr std::size_t n = 3000;
    Simulator ref(cfg);
    std::vector<Uop> expect(n);
    for (Uop &u : expect)
        u = ref.workload().next();

    for (const std::size_t batch : {1, 7, 64}) {
        Simulator sim(cfg);
        std::vector<Uop> got(n);
        for (std::size_t i = 0; i < n; i += batch)
            sim.workload().fill(
                std::span<Uop>(got).subspan(i, std::min(batch, n - i)));
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_TRUE(sameUop(got[i], expect[i]))
                << "batch " << batch << " uop " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    EveryWorkload, MixGenFill, ::testing::ValuesIn(everyWorkload()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string id = info.param;
        std::replace(id.begin(), id.end(), '-', '_');
        std::replace(id.begin(), id.end(), '.', '_');
        return id;
    });

TEST(RngExact, DivisorEqualsModulo)
{
    // The divide-free below(d) is x % d for every x, at the bounds
    // where the reciprocal's error is largest.
    constexpr std::uint64_t top = ~std::uint64_t{0};
    constexpr std::uint64_t bounds[] = {
        1,
        2,
        3,
        7,
        (std::uint64_t{1} << 31) - 1,
        (std::uint64_t{1} << 32) - 1,
        std::uint64_t{1} << 32,
        (std::uint64_t{1} << 32) + 1,
        (std::uint64_t{1} << 40) + 3,
        (std::uint64_t{1} << 63) + 1,
        top,
    };
    Rng draws(2024);
    for (const std::uint64_t d : bounds) {
        const Rng::Divisor div(d);
        const std::uint64_t last_multiple = top - top % d;
        for (const std::uint64_t x :
             {std::uint64_t{0}, std::uint64_t{1}, d - 1, d, top,
              last_multiple, last_multiple - 1})
            ASSERT_EQ(div.mod(x), x % d) << "d " << d << " x " << x;
        for (int i = 0; i < 1000000; ++i) {
            const std::uint64_t x = draws.next64();
            ASSERT_EQ(div.mod(x), x % d) << "d " << d << " x " << x;
        }
        // Rng::below on both paths consumes one draw and agrees.
        Rng a(d), b(d);
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(a.below(div), b.below(d)) << "d " << d;
    }
}

TEST(RngExact, ThresholdEqualsUnitCompare)
{
    // The integer threshold decides exactly as unit(x) < p, including
    // at the draws whose unit() value sits on either side of p.
    const double probs[] = {-1.0, 0.0, 0x1.0p-60, 0.02, 0.15, 0.5, 0.8,
                            1.0 - 0x1.0p-53, 1.0, 1.5,
                            std::numeric_limits<double>::quiet_NaN()};
    constexpr std::uint64_t kmax = (std::uint64_t{1} << 53) - 1;
    Rng draws(99);
    for (const double p : probs) {
        const Rng::Threshold t(p);
        std::vector<std::uint64_t> ks = {0, 1, 2, kmax - 1, kmax};
        if (p > 0.0 && p < 1.0) {
            const auto k = static_cast<std::uint64_t>(p * 0x1.0p53);
            for (std::uint64_t j = k > 2 ? k - 2 : 0; j <= k + 2; ++j)
                ks.push_back(j);
        }
        for (const std::uint64_t k : ks) {
            for (const std::uint64_t low : {std::uint64_t{0},
                                            std::uint64_t{0x7ff}}) {
                const std::uint64_t x = k << 11 | low;
                ASSERT_EQ(t.hit(x), Rng::unit(x) < p)
                    << "p " << p << " k " << k;
            }
        }
        for (int i = 0; i < 200000; ++i) {
            const std::uint64_t x = draws.next64();
            ASSERT_EQ(t.hit(x), Rng::unit(x) < p) << "p " << p;
        }
        Rng a(7), b(7);
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(a.chance(t), b.chance(p)) << "p " << p;
    }
}

namespace
{

/**
 * Restore @p gen from a walker section (empty queue, an RNG, then the
 * cursor @p cur).
 * @return the SnapshotError message, or "" when the restore passed
 */
std::string
restoreCursor(UopSource &gen, Addr cur)
{
    std::ostringstream os;
    snap::Writer w(os);
    w.beginSection("WKLD");
    w.u64(0);
    w.rng(Rng(1));
    w.u32(cur);
    w.endSection();
    w.finish();

    std::istringstream is(os.str());
    snap::Reader r(is);
    r.enterSection("WKLD");
    try {
        gen.loadState(r);
    } catch (const snap::SnapshotError &e) {
        return e.what();
    }
    return "";
}

/**
 * A restored walker accepts a cursor on one of its nodes and refuses,
 * naming itself, 0 and cursors outside [heapBase, heapTop) -- which
 * would otherwise fail mid-run when the next block dereferences them.
 */
void
expectCursorChecked(UopSource &gen, const HeapAllocator &heap, Addr node,
                    std::uint32_t node_bytes)
{
    EXPECT_EQ(restoreCursor(gen, node), "");
    for (const Addr bad :
         {Addr{0}, heap.heapBase() - 4, heap.heapTop(),
          heap.heapTop() - node_bytes + 4, Addr{0xbf000000}}) {
        const std::string msg = restoreCursor(gen, bad);
        EXPECT_NE(msg.find(gen.name()), std::string::npos)
            << std::hex << bad << ": " << msg;
        EXPECT_NE(msg.find("cursor"), std::string::npos) << msg;
    }
    // The accepted cursor still walks.
    EXPECT_EQ(restoreCursor(gen, node), "");
    for (int i = 0; i < 50; ++i)
        gen.next();
}

} // namespace

TEST_F(GenFixture, ListWalkerRestoreRefusesACursorOutsideTheHeap)
{
    BuiltList list = buildLinkedList(heap, 32, 64, 8, 1, rng);
    const Addr node = list.nodes[7];
    ListTraversalGen gen(heap, std::move(list), 0x1000, 0, {}, 5);
    expectCursorChecked(gen, heap, node, 64);
}

TEST_F(GenFixture, TreeWalkerRestoreRefusesACursorOutsideTheHeap)
{
    BuiltTree tree = buildBinaryTree(heap, 32, 48, rng);
    const Addr node = tree.nodes[5];
    TreeSearchGen gen(heap, std::move(tree), 0x2000, 4, {}, 5);
    expectCursorChecked(gen, heap, node, 48);
}

TEST_F(GenFixture, GraphWalkerRestoreRefusesACursorOutsideTheHeap)
{
    BuiltGraph graph = buildGraph(heap, 32, 32, 4, rng);
    const Addr node = graph.nodes[9];
    GraphWalkGen gen(heap, std::move(graph), 0x7000, 4, {}, 5);
    expectCursorChecked(gen, heap, node, 32);
}

namespace
{

/** A source-less mix that adopted a 100-byte low-region heap. */
struct AdoptingMix
{
    BackingStore store;
    FrameAllocator frames{0, 64};
    PageTable pt{store, frames};
    MixGen mix{"mix", 3};
    HeapAllocator *globals = nullptr;

    AdoptingMix()
    {
        auto h = std::make_unique<HeapAllocator>(store, pt, frames,
                                                 0x00200000, 0.0, 5);
        h->alloc(100);
        globals = h.get();
        mix.adopt(std::move(h));
    }

    /** Restore from @p ckpt's WKLD; the error message, or "". */
    std::string
    restore(const std::string &ckpt)
    {
        std::istringstream is(ckpt);
        snap::Reader r(is);
        r.enterSection("WKLD");
        try {
            mix.loadState(r);
        } catch (const snap::SnapshotError &e) {
            return e.what();
        }
        return "";
    }
};

} // namespace

TEST(MixGen, RestoreVerifiesTheAdoptedHeaps)
{
    // An adopted heap is built with its mix and never allocates again:
    // a restore checks its bump state and changes nothing, so a heap
    // that allocated once more, inside its mapped page, is refused.
    AdoptingMix saver;
    std::ostringstream os;
    snap::Writer w(os);
    w.beginSection("WKLD");
    saver.mix.saveState(w);
    w.endSection();
    w.finish();

    AdoptingMix fork;
    EXPECT_EQ(fork.restore(os.str()), "");
    const Addr top = fork.globals->heapTop();
    fork.globals->alloc(4);
    EXPECT_EQ(fork.globals->mappedEnd(), saver.globals->mappedEnd());
    const std::string err = fork.restore(os.str());
    EXPECT_NE(err.find("auxiliary heap at " + std::to_string(0x00200000) +
                       " differs from this machine's"),
              std::string::npos)
        << err;
    EXPECT_EQ(fork.globals->heapTop(), top + 4);
}
