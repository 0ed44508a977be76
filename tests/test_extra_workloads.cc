/** @file
 * Tests for the graph and B-tree builders/generators and the extra
 * ("xgraph"/"xbtree") workloads.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/simulator.hh"
#include "workloads/builders.hh"
#include "workloads/generators.hh"
#include "workloads/suite.hh"

using namespace cdp;

namespace
{

struct ExtraFixture : ::testing::Test
{
    BackingStore store;
    FrameAllocator frames{0, 32768, true};
    PageTable pt{store, frames};
    HeapAllocator heap{store, pt, frames};
    Rng rng{13};
};

} // namespace

// ------------------------------------------------------------- graph

TEST_F(ExtraFixture, GraphNodesHaveValidAdjacency)
{
    BuiltGraph g = buildGraph(heap, 200, 32, 6, rng);
    ASSERT_EQ(g.nodes.size(), 200u);
    std::set<Addr> node_set(g.nodes.begin(), g.nodes.end());
    for (Addr n : g.nodes) {
        const std::uint32_t degree =
            heap.read32(n + BuiltGraph::degreeOffset);
        const Addr adj = heap.read32(n + BuiltGraph::adjPtrOffset);
        ASSERT_GE(degree, 1u);
        ASSERT_LE(degree, 6u);
        for (std::uint32_t e = 0; e < degree; ++e) {
            const Addr target = heap.read32(adj + 4 * e);
            EXPECT_TRUE(node_set.count(target))
                << "edge to non-node " << std::hex << target;
        }
    }
}

TEST_F(ExtraFixture, GraphRejectsBadArguments)
{
    EXPECT_THROW(buildGraph(heap, 0, 32, 6, rng),
                 std::invalid_argument);
    EXPECT_THROW(buildGraph(heap, 10, 4, 6, rng),
                 std::invalid_argument);
    EXPECT_THROW(buildGraph(heap, 10, 32, 0, rng),
                 std::invalid_argument);
}

TEST_F(ExtraFixture, GraphWalkFollowsRealEdges)
{
    BuiltGraph g = buildGraph(heap, 100, 32, 4, rng);
    std::set<Addr> node_set(g.nodes.begin(), g.nodes.end());
    WalkOptions w;
    GraphWalkGen gen(heap, std::move(g), 0x7000, 4, w, 3);
    unsigned hops = 0;
    for (int i = 0; i < 400; ++i) {
        const Uop u = gen.next();
        if (u.type == UopType::Load && u.pointerLoad &&
            u.vaddr % 32 == BuiltGraph::adjPtrOffset % 32) {
            // header adjacency-pointer load: must target a node+4
        }
        if (u.type == UopType::Load)
            ++hops;
    }
    EXPECT_GT(hops, 100u);
}

TEST_F(ExtraFixture, GraphWalkEmitsTwoPointerLoadsPerHop)
{
    BuiltGraph g = buildGraph(heap, 50, 32, 4, rng);
    WalkOptions w;
    w.aluPerNode = 0;
    GraphWalkGen gen(heap, std::move(g), 0x7000, 4, w, 3);
    // With aluPerNode 0 a block is exactly 4 uops: degree load,
    // adjacency-pointer load, edge-select branch, hop load. Consume
    // whole blocks so the tallies line up exactly.
    unsigned ptr_loads = 0, branches = 0;
    for (int i = 0; i < 40 * 4; ++i) {
        const Uop u = gen.next();
        ptr_loads += (u.type == UopType::Load && u.pointerLoad) ? 1 : 0;
        branches += u.type == UopType::Branch ? 1 : 0;
    }
    // Per hop: adjacency-pointer load + edge-entry load, 1 branch.
    EXPECT_EQ(ptr_loads, 2 * branches);
    EXPECT_EQ(branches, 40u);
}

// ------------------------------------------------------------- btree

TEST_F(ExtraFixture, BTreeHasSaneShape)
{
    BuiltBTree t = buildBTree(heap, 64, 8, rng);
    EXPECT_GT(t.height, 1u);
    EXPECT_NE(t.root, 0u);
    // 64 leaves at fanout 8: 64 + 8 + 1 nodes.
    EXPECT_EQ(t.nodes.size(), 73u);
}

TEST_F(ExtraFixture, BTreeDescentReachesALeafForAnyKey)
{
    BuiltBTree t = buildBTree(heap, 32, 4, rng);
    Rng keys(9);
    for (int trial = 0; trial < 100; ++trial) {
        const std::uint32_t target = keys.next32() >> 1;
        Addr cur = t.root;
        for (std::uint32_t level = 0; level + 1 < t.height; ++level) {
            const std::uint32_t count = heap.read32(cur);
            ASSERT_GE(count, 1u);
            ASSERT_LE(count, 4u);
            std::uint32_t child = 0;
            for (std::uint32_t i = 0; i + 1 < count; ++i) {
                if (target >= heap.read32(cur + t.keyOffset(i)))
                    child = i + 1;
            }
            cur = heap.read32(cur + t.childOffset(child));
            ASSERT_NE(cur, 0u);
        }
    }
}

TEST_F(ExtraFixture, BTreeSeparatorsOrderTheDescent)
{
    // Search for a key known to be in leaf k must reach a leaf whose
    // key range brackets it: verify keys are sorted level-wise.
    BuiltBTree t = buildBTree(heap, 16, 4, rng);
    const std::uint32_t count = heap.read32(t.root);
    std::uint32_t prev = 0;
    for (std::uint32_t i = 0; i + 1 < count; ++i) {
        const std::uint32_t k = heap.read32(t.root + t.keyOffset(i));
        EXPECT_GE(k, prev);
        prev = k;
    }
}

TEST_F(ExtraFixture, BTreeRejectsBadArguments)
{
    EXPECT_THROW(buildBTree(heap, 0, 8, rng), std::invalid_argument);
    EXPECT_THROW(buildBTree(heap, 8, 1, rng), std::invalid_argument);
    EXPECT_THROW(buildBTree(heap, 8, 99, rng), std::invalid_argument);
}

TEST_F(ExtraFixture, BTreeSearchGenDescendsHeightLevels)
{
    BuiltBTree t = buildBTree(heap, 64, 8, rng);
    const std::uint32_t height = t.height;
    WalkOptions w;
    w.aluPerNode = 0;
    BTreeSearchGen gen(heap, std::move(t), 0x7800, 8, w, 3);
    // One search block ends with an unconditional branch; count the
    // pointer loads before it.
    unsigned ptr_loads = 0;
    for (;;) {
        const Uop u = gen.next();
        if (u.type == UopType::Load && u.pointerLoad)
            ++ptr_loads;
        if (u.type == UopType::Branch && u.taken && u.pc == 0x7880)
            break;
    }
    EXPECT_EQ(ptr_loads, height - 1);
}

// ----------------------------------------------------- extra suite

TEST(ExtraWorkloads, RegistryContainsBoth)
{
    ASSERT_EQ(extraWorkloads().size(), 2u);
    EXPECT_NO_THROW(findBenchmark("xgraph"));
    EXPECT_NO_THROW(findBenchmark("xbtree"));
}

TEST(ExtraWorkloads, RunEndToEnd)
{
    for (const char *name : {"xgraph", "xbtree"}) {
        SimConfig c;
        c.workload = name;
        c.warmupUops = 20'000;
        c.measureUops = 50'000;
        Simulator sim(c);
        const RunResult r = sim.run();
        EXPECT_GT(r.ipc, 0.0) << name;
        EXPECT_GT(r.mem.demandLoads, 1000u) << name;
    }
}

TEST(ExtraWorkloads, CdpCoversGraphChasing)
{
    SimConfig off;
    off.workload = "xgraph";
    off.warmupUops = 100'000;
    off.measureUops = 200'000;
    off.cdp.enabled = false;
    SimConfig on = off;
    on.cdp.enabled = true;
    Simulator so(off), sn(on);
    const RunResult ro = so.run();
    const RunResult rn = sn.run();
    EXPECT_GT(rn.speedupOver(ro), 1.05);
    EXPECT_LT(rn.mem.l2DemandMisses, ro.mem.l2DemandMisses);
}
