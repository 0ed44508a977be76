/** @file
 * Unit tests for the structure builders: every pointer they write
 * into simulated memory must be walkable.
 */

#include <gtest/gtest.h>

#include <set>

#include "workloads/builders.hh"

using namespace cdp;

namespace
{

struct BuildFixture : ::testing::Test
{
    BackingStore store;
    FrameAllocator frames{0, 32768, true};
    PageTable pt{store, frames};
    HeapAllocator heap{store, pt, frames};
    Rng rng{42};
};

} // namespace

TEST_F(BuildFixture, ListIsCircularAndComplete)
{
    BuiltList list = buildLinkedList(heap, 500, 64, 8, 4, rng);
    ASSERT_EQ(list.nodes.size(), 500u);
    // Walk through memory: must visit all 500 nodes and return to
    // the head.
    std::set<Addr> visited;
    Addr cur = list.head;
    for (int i = 0; i < 500; ++i) {
        EXPECT_TRUE(visited.insert(cur).second) << "cycle too short";
        cur = heap.read32(cur + list.nextOffset);
    }
    EXPECT_EQ(cur, list.head);
    EXPECT_EQ(visited.size(), 500u);
}

TEST_F(BuildFixture, ListPointersAreHeapAddresses)
{
    BuiltList list = buildLinkedList(heap, 200, 48, 8, 1, rng);
    for (Addr n : list.nodes) {
        const Addr next = heap.read32(n + list.nextOffset);
        EXPECT_EQ(next >> 24, defaultHeapBase >> 24);
        EXPECT_EQ(next % 4, 0u);
    }
}

TEST_F(BuildFixture, ListRunLengthControlsAdjacency)
{
    BuiltList scattered = buildLinkedList(heap, 2000, 64, 8, 1, rng);
    BuiltList runny = buildLinkedList(heap, 2000, 64, 8, 16, rng);
    auto adjacency = [&](const BuiltList &l) {
        unsigned adj = 0;
        for (std::size_t i = 0; i + 1 < l.nodes.size(); ++i)
            adj += (l.nodes[i + 1] == l.nodes[i] + l.nodeBytes) ? 1 : 0;
        return adj;
    };
    EXPECT_GT(adjacency(runny), adjacency(scattered) * 4 + 100);
}

TEST_F(BuildFixture, ListRejectsBadArguments)
{
    EXPECT_THROW(buildLinkedList(heap, 0, 64, 8, 4, rng),
                 std::invalid_argument);
    EXPECT_THROW(buildLinkedList(heap, 10, 8, 8, 4, rng),
                 std::invalid_argument); // next offset past node end
}

TEST_F(BuildFixture, ListPayloadDoesNotClobberNextPointer)
{
    BuiltList list = buildLinkedList(heap, 100, 64, 8, 4, rng);
    // Walk twice: if payload writes had clobbered pointers, the
    // second lap would diverge.
    Addr cur = list.head;
    for (int i = 0; i < 200; ++i)
        cur = heap.read32(cur + list.nextOffset);
    EXPECT_EQ(cur, list.head);
}

TEST_F(BuildFixture, TreeIsSearchableBst)
{
    BuiltTree tree = buildBinaryTree(heap, 300, 32, rng);
    ASSERT_EQ(tree.nodes.size(), 300u);
    // Every node must be reachable and obey the BST invariant
    // locally (children on the correct side of the parent key).
    std::set<Addr> reachable;
    std::vector<Addr> stack{tree.root};
    while (!stack.empty()) {
        const Addr n = stack.back();
        stack.pop_back();
        if (n == 0 || !reachable.insert(n).second)
            continue;
        const std::uint32_t key = heap.read32(n);
        const Addr l = heap.read32(n + tree.leftOffset);
        const Addr r = heap.read32(n + tree.rightOffset);
        if (l) {
            EXPECT_LT(heap.read32(l), key);
        }
        if (r) {
            EXPECT_GE(heap.read32(r), key);
        }
        stack.push_back(l);
        stack.push_back(r);
    }
    EXPECT_EQ(reachable.size(), 300u);
}

TEST_F(BuildFixture, TreeRejectsTinyNodes)
{
    EXPECT_THROW(buildBinaryTree(heap, 10, 8, rng),
                 std::invalid_argument);
}

TEST_F(BuildFixture, HashChainsPartitionAllNodes)
{
    BuiltHash hash = buildHashTable(heap, 64, 1000, 32, rng);
    std::set<Addr> seen;
    for (std::uint32_t b = 0; b < hash.buckets; ++b) {
        Addr cur = heap.read32(hash.bucketArray + b * 4);
        while (cur != 0) {
            EXPECT_TRUE(seen.insert(cur).second)
                << "node in two chains";
            // The node's key must hash to this bucket.
            EXPECT_EQ(heap.read32(cur) & (hash.buckets - 1), b);
            cur = heap.read32(cur + hash.nextOffset);
        }
    }
    EXPECT_EQ(seen.size(), 1000u);
}

TEST_F(BuildFixture, HashRequiresPow2Buckets)
{
    EXPECT_THROW(buildHashTable(heap, 100, 10, 32, rng),
                 std::invalid_argument);
    EXPECT_THROW(buildHashTable(heap, 0, 10, 32, rng),
                 std::invalid_argument);
}

TEST_F(BuildFixture, DataRegionsHaveExpectedContentClass)
{
    const Addr ints =
        buildDataRegion(heap, 4096, DataKind::SmallInts, rng);
    for (Addr off = 0; off < 4096; off += 4)
        EXPECT_LT(heap.read32(ints + off), 1u << 16);

    const Addr bits =
        buildDataRegion(heap, 4096, DataKind::RandomBits, rng);
    // Random bits should include large values.
    bool large_seen = false;
    for (Addr off = 0; off < 4096; off += 4)
        large_seen |= heap.read32(bits + off) > (1u << 24);
    EXPECT_TRUE(large_seen);
}

TEST_F(BuildFixture, FillPayloadSkipsPointerSlots)
{
    const Addr node = heap.alloc(64, 4);
    heap.write32(node + 8, 0xdeadbeef);
    heap.write32(node + 16, 0xfeedface);
    fillPayload(heap, node, 64, {8, 16}, rng);
    EXPECT_EQ(heap.read32(node + 8), 0xdeadbeefu);
    EXPECT_EQ(heap.read32(node + 16), 0xfeedfaceu);
}

TEST_F(BuildFixture, FillPayloadRefusesSkipOffsetsOffTheWordMask)
{
    // Skips are a 64-bit word mask over the node's first 256 bytes.
    const Addr node = heap.alloc(512, 4);
    EXPECT_THROW(fillPayload(heap, node, 512, {6}, rng),
                 std::invalid_argument);
    EXPECT_THROW(fillPayload(heap, node, 512, {256}, rng),
                 std::invalid_argument);
    fillPayload(heap, node, 512, {252}, rng);
}

TEST_F(BuildFixture, FillPayloadAcrossAPageEndSkipsTheStraddlingWord)
{
    heap.alloc(pageBytes - 6, 2); // the next node straddles a page end
    const Addr node = heap.alloc(64, 2);
    ASSERT_EQ(pageOffset(node + 6), 0u);
    heap.write32(node + 4, 0x5eedf00d);
    fillPayload(heap, node, 64, {4}, rng);
    EXPECT_EQ(heap.read32(node + 4), 0x5eedf00du);
}

/** Property: lists of many shapes are always complete cycles. */
class ListShapes
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>>
{
};

TEST_P(ListShapes, AlwaysACompleteCycle)
{
    const auto [nodes, node_bytes, run_len] = GetParam();
    BackingStore store;
    FrameAllocator frames{0, 32768, true};
    PageTable pt{store, frames};
    HeapAllocator heap{store, pt, frames};
    Rng rng{7};
    BuiltList list =
        buildLinkedList(heap, nodes, node_bytes, 8, run_len, rng);
    Addr cur = list.head;
    std::uint32_t steps = 0;
    do {
        cur = heap.read32(cur + list.nextOffset);
        ++steps;
        ASSERT_LE(steps, nodes);
    } while (cur != list.head);
    EXPECT_EQ(steps, nodes);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ListShapes,
    ::testing::Combine(::testing::Values(1u, 2u, 64u, 4096u),
                       ::testing::Values(16u, 64u, 128u),
                       ::testing::Values(1u, 4u, 64u)));
