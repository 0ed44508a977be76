#include "workloads/builders.hh"

#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>

namespace cdp
{

namespace
{

/** The SmallInts word of raw draw @p x (what rng.below(65536) gives). */
std::uint32_t
smallInt(std::uint64_t x)
{
    return static_cast<std::uint32_t>(x % 65536);
}

/** The Floats word of raw draw @p x: a float in [-1000, 1000). */
std::uint32_t
floatBits(std::uint64_t x)
{
    const float f = static_cast<float>(Rng::unit(x) * 2000.0 - 1000.0);
    std::uint32_t bits;
    std::memcpy(&bits, &f, 4);
    return bits;
}

/** One plausible non-pointer payload word. */
std::uint32_t
payloadWord(DataKind kind, Rng &rng)
{
    switch (kind) {
      case DataKind::SmallInts:
        return smallInt(rng.next64());
      case DataKind::MediumInts:
        return static_cast<std::uint32_t>(
            (1u << 18) + rng.below((1u << 24) - (1u << 18)));
      case DataKind::Floats:
        return floatBits(rng.next64());
      case DataKind::RandomBits:
        return rng.next32();
    }
    return 0;
}

/**
 * A small int or a float, the dominant payload classes, with equal
 * odds and without a data-dependent branch. The kind draw is rng.chance(0.5), which is true exactly when
 * the draw's top bit is 0, and either kind then takes one more draw,
 * so the draws match a chance(0.5)-then-payloadWord sequence.
 */
std::uint32_t
mixedWord(Rng &rng)
{
    const bool small = (rng.next64() >> 63) == 0;
    const std::uint64_t x = rng.next64();
    // A mask, not ?:, which the compiler turns back into a branch.
    const std::uint32_t pick_int = 0u - static_cast<std::uint32_t>(small);
    return (smallInt(x) & pick_int) | (floatBits(x) & ~pick_int);
}

/**
 * Word mask of @p offsets: bit i set skips the word at byte offset 4i.
 * The pointer slots a builder writes itself all lie in a node's first
 * 256 bytes.
 */
std::uint64_t
skipMask(std::initializer_list<std::uint32_t> offsets)
{
    std::uint64_t mask = 0;
    for (const std::uint32_t off : offsets) {
        if (off % 4 != 0 || off >= 256)
            throw std::invalid_argument(
                "fillPayload: skip offset " + std::to_string(off) +
                " is not a word in the first 256 bytes");
        mask |= std::uint64_t{1} << (off / 4);
    }
    return mask;
}

/**
 * Store next_word() into every 4-byte word at offsets [0, end) of the
 * object at @p va except those @p skip masks, in ascending order. An
 * object inside one page is written through one host pointer; a
 * longer one through one host span per page, with a word that
 * straddles a page boundary going through write32().
 */
template <typename NextWord>
void
fillWords(HeapAllocator &heap, Addr va, std::uint32_t end,
          std::uint64_t skip, NextWord &&next_word)
{
    for (std::uint32_t off = 0; off < end;) {
        const std::span<std::uint8_t> host =
            heap.hostSpan(va + off, end - off);
        const auto words = static_cast<std::uint32_t>(host.size() / 4);
        for (std::uint32_t i = 0; i < words; ++i, skip >>= 1) {
            if ((skip & 1) == 0) {
                const std::uint32_t w = next_word();
                std::memcpy(host.data() + 4 * i, &w, 4);
            }
        }
        off += 4 * words;
        if (host.size() % 4 != 0) {
            // end - off is whole words, so the span was cut at a page
            // end and the word at off straddles it.
            if ((skip & 1) == 0)
                heap.write32(va + off, next_word());
            skip >>= 1;
            off += 4;
        }
    }
}

} // namespace

void
fillPayload(HeapAllocator &heap, Addr node, std::uint32_t bytes,
            std::initializer_list<std::uint32_t> skip_offsets, Rng &rng)
{
    // A local copy of the generator stays in registers; the caller's
    // could alias the heap's byte stores and round-trip memory.
    Rng local = rng;
    fillWords(heap, node, bytes & ~3u, skipMask(skip_offsets),
              [&local] { return mixedWord(local); });
    rng = local;
}

BuiltList
buildLinkedList(HeapAllocator &heap, std::uint32_t nodes,
                std::uint32_t node_bytes, std::uint32_t next_offset,
                std::uint32_t run_len, Rng &rng)
{
    if (nodes == 0)
        throw std::invalid_argument("buildLinkedList: zero nodes");
    if (next_offset + 4 > node_bytes)
        throw std::invalid_argument("buildLinkedList: bad next offset");
    if (run_len == 0)
        run_len = 1;

    BuiltList list;
    list.nodeBytes = node_bytes;
    list.nextOffset = next_offset;

    {
        // Scoped so the allocation order and the runs are freed
        // before the payload fill materializes the heap's frames.
        std::vector<Addr> alloc_order(nodes);
        for (auto &a : alloc_order)
            a = heap.alloc(node_bytes, 4);

        // Split allocation order into runs of geometric length (mean
        // run_len), then shuffle the runs: consecutive nodes within a
        // run are adjacent in memory, runs land far apart.
        std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;
        for (std::uint32_t i = 0; i < nodes;) {
            std::uint32_t len = 1;
            while (i + len < nodes && len < 8 * run_len &&
                   !rng.chance(1.0 / run_len))
                ++len;
            runs.emplace_back(i, len);
            i += len;
        }
        for (std::size_t i = runs.size(); i-- > 1;)
            std::swap(runs[i], runs[rng.below(i + 1)]);

        list.nodes.reserve(nodes);
        for (const auto &[start, len] : runs) {
            for (std::uint32_t k = 0; k < len; ++k)
                list.nodes.push_back(alloc_order[start + k]);
        }
    }

    // Link order scatters the nodes over the heap, so each fill would
    // wait on a host cache miss: touch the node a few links ahead,
    // whose miss then overlaps this node's draws.
    constexpr std::uint32_t ahead = 8;
    for (std::uint32_t i = 0; i < nodes; ++i) {
        if (i + ahead < nodes) {
            const Addr later = list.nodes[i + ahead];
            __builtin_prefetch(heap.hostSpan(later, 4).data(), /*rw=*/1);
        }
        const Addr node = list.nodes[i];
        const Addr next = list.nodes[(i + 1) % nodes]; // circular
        fillPayload(heap, node, node_bytes, {next_offset}, rng);
        heap.write32(node + next_offset, next);
    }
    list.head = list.nodes.front();
    return list;
}

BuiltTree
buildBinaryTree(HeapAllocator &heap, std::uint32_t nodes,
                std::uint32_t node_bytes, Rng &rng)
{
    if (nodes == 0)
        throw std::invalid_argument("buildBinaryTree: zero nodes");
    if (node_bytes < 12)
        throw std::invalid_argument("buildBinaryTree: node too small");

    BuiltTree tree;
    tree.nodeBytes = node_bytes;
    tree.nodes.reserve(nodes);

    auto make_node = [&](std::uint32_t key) {
        const Addr n = heap.alloc(node_bytes, 4);
        fillPayload(heap, n, node_bytes,
                    {0, tree.leftOffset, tree.rightOffset}, rng);
        heap.write32(n + 0, key);
        heap.write32(n + tree.leftOffset, 0);
        heap.write32(n + tree.rightOffset, 0);
        tree.nodes.push_back(n);
        return n;
    };

    tree.root = make_node(rng.next32() >> 1);
    for (std::uint32_t i = 1; i < nodes; ++i) {
        const std::uint32_t key = rng.next32() >> 1;
        const Addr n = make_node(key);
        Addr cur = tree.root;
        for (;;) {
            const std::uint32_t cur_key = heap.read32(cur);
            const std::uint32_t off =
                key < cur_key ? tree.leftOffset : tree.rightOffset;
            const Addr child = heap.read32(cur + off);
            if (child == 0) {
                heap.write32(cur + off, n);
                break;
            }
            cur = child;
        }
    }
    return tree;
}

BuiltHash
buildHashTable(HeapAllocator &heap, std::uint32_t buckets,
               std::uint32_t nodes, std::uint32_t node_bytes, Rng &rng)
{
    if (buckets == 0 || (buckets & (buckets - 1)) != 0)
        throw std::invalid_argument("buildHashTable: buckets must be pow2");
    if (node_bytes < 8)
        throw std::invalid_argument("buildHashTable: node too small");

    BuiltHash hash;
    hash.buckets = buckets;
    hash.nodeBytes = node_bytes;
    hash.bucketArray = heap.alloc(buckets * 4, 4);
    for (std::uint32_t b = 0; b < buckets; ++b)
        heap.write32(hash.bucketArray + b * 4, 0);

    // Rows are inserted in random key order, as an aged OLTP table
    // would be: chain-adjacent rows land far apart in memory, so the
    // chains are genuine pointer chases (the stride prefetcher cannot
    // cover them). Chains are linked in allocation order.
    std::vector<std::uint32_t> keys(nodes);
    for (auto &k : keys)
        k = rng.next32();

    std::vector<Addr> tails(buckets, 0);
    hash.nodes.reserve(nodes);
    for (std::uint32_t i = 0; i < nodes; ++i) {
        const std::uint32_t key = keys[i];
        const std::uint32_t b = key & (buckets - 1);
        const Addr n = heap.alloc(node_bytes, 4);
        fillPayload(heap, n, node_bytes, {0, hash.nextOffset}, rng);
        heap.write32(n + 0, key);
        heap.write32(n + hash.nextOffset, 0);
        if (tails[b] == 0)
            heap.write32(hash.bucketArray + b * 4, n);
        else
            heap.write32(tails[b] + hash.nextOffset, n);
        tails[b] = n;
        hash.nodes.push_back(n);
    }
    return hash;
}

BuiltGraph
buildGraph(HeapAllocator &heap, std::uint32_t nodes,
           std::uint32_t node_bytes, std::uint32_t max_degree, Rng &rng)
{
    if (nodes == 0)
        throw std::invalid_argument("buildGraph: zero nodes");
    if (node_bytes < 8)
        throw std::invalid_argument("buildGraph: node too small");
    if (max_degree == 0)
        throw std::invalid_argument("buildGraph: zero max degree");

    BuiltGraph g;
    g.nodeBytes = node_bytes;
    g.nodes.reserve(nodes);
    for (std::uint32_t i = 0; i < nodes; ++i)
        g.nodes.push_back(heap.alloc(node_bytes, 4));

    for (Addr node : g.nodes) {
        const std::uint32_t degree =
            1 + static_cast<std::uint32_t>(rng.below(max_degree));
        const Addr adj = heap.alloc(degree * 4, 4);
        for (std::uint32_t e = 0; e < degree; ++e) {
            heap.write32(adj + 4 * e,
                         g.nodes[rng.below(g.nodes.size())]);
        }
        fillPayload(heap, node, node_bytes,
                    {BuiltGraph::degreeOffset,
                     BuiltGraph::adjPtrOffset},
                    rng);
        heap.write32(node + BuiltGraph::degreeOffset, degree);
        heap.write32(node + BuiltGraph::adjPtrOffset, adj);
    }
    return g;
}

BuiltBTree
buildBTree(HeapAllocator &heap, std::uint32_t leaves,
           std::uint32_t fanout, Rng &rng)
{
    if (leaves == 0)
        throw std::invalid_argument("buildBTree: zero leaves");
    if (fanout < 2 || fanout > 15)
        throw std::invalid_argument("buildBTree: fanout out of range");

    BuiltBTree t;
    t.fanout = fanout;
    // count + (fanout-1) keys + fanout children, rounded to 8 bytes.
    t.nodeBytes = (4 + 4 * (fanout - 1) + 4 * fanout + 7) & ~7u;

    // Sorted random keys, one run per leaf.
    std::vector<std::uint32_t> keys(leaves * (fanout - 1));
    for (auto &k : keys)
        k = rng.next32() >> 1;
    std::sort(keys.begin(), keys.end());

    auto alloc_node = [&]() {
        const Addr n = heap.alloc(t.nodeBytes, 8);
        fillWords(heap, n, t.nodeBytes, 0, [] { return 0u; });
        t.nodes.push_back(n);
        return n;
    };

    // Build the leaf level.
    std::vector<Addr> level;
    std::vector<std::uint32_t> level_min; // smallest key under node
    std::size_t ki = 0;
    for (std::uint32_t l = 0; l < leaves; ++l) {
        const Addr n = alloc_node();
        heap.write32(n + 0, fanout - 1);
        level_min.push_back(keys[ki]);
        for (std::uint32_t i = 0; i < fanout - 1; ++i)
            heap.write32(n + t.keyOffset(i), keys[ki++]);
        level.push_back(n);
    }
    t.height = 1;

    // Build inner levels bottom-up until a single root remains.
    while (level.size() > 1) {
        std::vector<Addr> parents;
        std::vector<std::uint32_t> parent_min;
        for (std::size_t i = 0; i < level.size(); i += fanout) {
            const std::uint32_t n_children = static_cast<std::uint32_t>(
                std::min<std::size_t>(fanout, level.size() - i));
            const Addr n = alloc_node();
            heap.write32(n + 0, n_children);
            for (std::uint32_t c = 0; c < n_children; ++c)
                heap.write32(n + t.childOffset(c), level[i + c]);
            // Separator keys: the minimum of each child but the first.
            for (std::uint32_t c = 1; c < n_children; ++c)
                heap.write32(n + t.keyOffset(c - 1),
                             level_min[i + c]);
            parents.push_back(n);
            parent_min.push_back(level_min[i]);
        }
        level = std::move(parents);
        level_min = std::move(parent_min);
        ++t.height;
    }
    t.root = level.front();
    return t;
}

Addr
buildDataRegion(HeapAllocator &heap, std::uint32_t bytes, DataKind kind,
                Rng &rng)
{
    const Addr base = heap.alloc(bytes, 64);
    Rng local = rng; // register-held, as in fillPayload
    fillWords(heap, base, bytes & ~3u, 0,
              [&] { return payloadWord(kind, local); });
    rng = local;
    return base;
}

} // namespace cdp
