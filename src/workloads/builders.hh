/**
 * @file
 * Builders that construct *real* linked data structures inside the
 * simulated memory.
 *
 * Every pointer written here is a genuine 32-bit virtual address
 * stored little-endian at its natural struct offset, which is what
 * makes content-directed prefetching work end-to-end in this
 * simulator: when a node's cache line is filled, the next/child
 * pointers are sitting in the line bytes for the VAM scanner to find.
 *
 * Payload words are filled with "plausible data" — small integers,
 * IEEE-754 floats, and random bits — so the false-positive behaviour
 * of the filter/align heuristics is exercised realistically.
 */

#ifndef CDP_WORKLOADS_BUILDERS_HH
#define CDP_WORKLOADS_BUILDERS_HH

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "workloads/heap_allocator.hh"

namespace cdp
{

/** A singly linked list resident in simulated memory. */
struct BuiltList
{
    Addr head = 0;
    std::uint32_t nodeBytes = 0;
    std::uint32_t nextOffset = 0;
    std::vector<Addr> nodes; //!< link order
};

/**
 * Build a singly linked list of @p nodes nodes of @p node_bytes each;
 * the next pointer lives at @p next_offset.
 *
 * Heap layout follows the "aged allocator" model: the link order is a
 * concatenation of *runs* of consecutive allocations (geometric
 * length, mean @p run_len) with the run order shuffled. run_len == 1
 * destroys all spatial locality (a thoroughly fragmented heap);
 * a large run_len approaches a freshly built, fully sequential list.
 * Real programs sit in between, which is what makes both the stride
 * prefetcher and the content prefetcher's next-line width worth
 * having. The list is circular (the last node points back to the
 * head) so traversal generators never run off the end.
 */
BuiltList buildLinkedList(HeapAllocator &heap, std::uint32_t nodes,
                          std::uint32_t node_bytes,
                          std::uint32_t next_offset,
                          std::uint32_t run_len, Rng &rng);

/** A binary search tree resident in simulated memory. */
struct BuiltTree
{
    Addr root = 0;
    std::uint32_t nodeBytes = 0;
    std::uint32_t leftOffset = 4;  //!< after the 4-byte key
    std::uint32_t rightOffset = 8;
    std::vector<Addr> nodes;
};

/**
 * Build a binary search tree by inserting @p nodes random keys.
 * Layout per node: [key:4][left:4][right:4][payload...].
 */
BuiltTree buildBinaryTree(HeapAllocator &heap, std::uint32_t nodes,
                          std::uint32_t node_bytes, Rng &rng);

/** A chained hash table resident in simulated memory. */
struct BuiltHash
{
    Addr bucketArray = 0;   //!< array of head pointers
    std::uint32_t buckets = 0;
    std::uint32_t nodeBytes = 0;
    std::uint32_t nextOffset = 4; //!< after the 4-byte key
    std::vector<Addr> nodes;
};

/**
 * Build a hash table with @p buckets chains over @p nodes nodes.
 * Node layout: [key:4][next:4][payload...].
 */
BuiltHash buildHashTable(HeapAllocator &heap, std::uint32_t buckets,
                         std::uint32_t nodes, std::uint32_t node_bytes,
                         Rng &rng);

/** A directed graph with per-node adjacency arrays. */
struct BuiltGraph
{
    /** Node layout: [degree:4][adjArrayPtr:4][payload...]. */
    std::vector<Addr> nodes;
    std::uint32_t nodeBytes = 0;
    static constexpr std::uint32_t degreeOffset = 0;
    static constexpr std::uint32_t adjPtrOffset = 4;
};

/**
 * Build a random directed graph of @p nodes nodes with out-degrees
 * in [1, max_degree]. Each node stores its degree and a pointer to a
 * separately allocated adjacency array of node addresses — the
 * "pointer to an array of pointers" shape that makes graph codes a
 * distinct prefetching target from plain linked structures (the
 * scanner finds the adjacency-array pointer in the node line, and
 * the array line is then densely packed with node pointers).
 */
BuiltGraph buildGraph(HeapAllocator &heap, std::uint32_t nodes,
                      std::uint32_t node_bytes,
                      std::uint32_t max_degree, Rng &rng);

/** A B-tree (order @p fanout) resident in simulated memory. */
struct BuiltBTree
{
    Addr root = 0;
    std::uint32_t fanout = 0;   //!< max children per inner node
    std::uint32_t nodeBytes = 0;
    std::uint32_t height = 0;
    std::vector<Addr> nodes;
    /** Node layout: [count:4][keys: fanout-1 x 4][children: fanout x 4]. */
    std::uint32_t keyOffset(std::uint32_t i) const { return 4 + 4 * i; }
    std::uint32_t
    childOffset(std::uint32_t i) const
    {
        return 4 + 4 * (fanout - 1) + 4 * i;
    }
};

/**
 * Bulk-build a complete B-tree over @p keys sorted random keys.
 * Inner-node lines are densely packed with child pointers — the
 * most pointer-rich content the scanner ever sees outside the page
 * tables — while leaves hold only keys.
 */
BuiltBTree buildBTree(HeapAllocator &heap, std::uint32_t leaves,
                      std::uint32_t fanout, Rng &rng);

/** Content class for non-pointer data regions. */
enum class DataKind
{
    SmallInts, //!< values < 2^16: rejected by the zero-region filter
    MediumInts, //!< sizes/offsets in [2^18, 2^24): the values the
                //!< zero-region *filter bits* exist to reject
    Floats,    //!< IEEE-754 singles around 1.0
    RandomBits, //!< uniform random words (compressed-data stand-in)
};

/**
 * Allocate and fill a @p bytes-sized region with non-pointer data.
 * @return base virtual address of the region.
 */
Addr buildDataRegion(HeapAllocator &heap, std::uint32_t bytes,
                     DataKind kind, Rng &rng);

/**
 * Fill the payload words of a node (everything except the pointer
 * slots listed) with plausible non-pointer data.
 */
void fillPayload(HeapAllocator &heap, Addr node, std::uint32_t bytes,
                 std::initializer_list<std::uint32_t> skip_offsets,
                 Rng &rng);

} // namespace cdp

#endif // CDP_WORKLOADS_BUILDERS_HH
