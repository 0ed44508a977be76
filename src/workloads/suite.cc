#include "workloads/suite.hh"

#include <stdexcept>

#include "workloads/generators.hh"

namespace cdp
{

std::uint64_t
BenchmarkSpec::workingSetBytes() const
{
    std::uint64_t ws = 0;
    ws += static_cast<std::uint64_t>(listNodes) * listNodeBytes;
    ws += static_cast<std::uint64_t>(treeNodes) * treeNodeBytes;
    ws += static_cast<std::uint64_t>(graphNodes) *
          (graphNodeBytes + 4 * (1 + graphMaxDegree) / 2);
    ws += static_cast<std::uint64_t>(btreeLeaves) * btreeFanout * 8;
    ws += static_cast<std::uint64_t>(hashNodes) * hashNodeBytes +
          static_cast<std::uint64_t>(hashBuckets) * 4;
    ws += static_cast<std::uint64_t>(strideKB) * 1024;
    ws += static_cast<std::uint64_t>(randomKB) * 1024;
    ws += static_cast<std::uint64_t>(hotKB) * 1024;
    return ws;
}

namespace
{

/** Shorthand builder for the table below. */
BenchmarkSpec
spec(std::string name, std::string suite)
{
    BenchmarkSpec s;
    s.name = std::move(name);
    s.suite = std::move(suite);
    return s;
}

/**
 * The mix weights below are chosen so the demand L2 miss density
 * (MPTU) of each benchmark lands in the neighbourhood of its Table 2
 * column: pointer-walk uops are a small fraction of the stream (real
 * applications miss the L2 on well under 1% of uops), and the heavy
 * CAD/server codes are dominated by out-of-cache pointer chasing.
 * The measured values are recorded in EXPERIMENTS.md.
 */
std::vector<BenchmarkSpec>
buildSuite()
{
    std::vector<BenchmarkSpec> v;

    // Internet business: middleware over moderate heaps; b2b misses,
    // b2c's working set nearly fits the UL2.
    {
        BenchmarkSpec s = spec("b2b", "Internet");
        s.listNodes = 14'000;  s.listNodeBytes = 64;   // 896 KB
        s.hashBuckets = 1024;  s.hashNodes = 12'000;   // 388 KB
        s.wList = 0.005; s.wHash = 0.004; s.wStride = 0.02;
        s.strideKB = 256;
        s.wCompute = 0.971;
        v.push_back(s);
    }
    {
        BenchmarkSpec s = spec("b2c", "Internet");
        s.listNodes = 3'000;   s.listNodeBytes = 64;   // 192 KB
        s.hashBuckets = 1024;  s.hashNodes = 3'000;    // 100 KB
        s.wList = 0.04; s.wHash = 0.03; s.wStride = 0.02;
        s.strideKB = 128;
        s.wCompute = 0.91;
        v.push_back(s);
    }
    // Multimedia: streaming plus irregular texture/entity access.
    {
        BenchmarkSpec s = spec("quake", "Multimedia");
        s.strideKB = 1536; s.randomKB = 1024;
        s.listNodes = 8'000; s.listNodeBytes = 96;     // 768 KB
        s.listRunLen = 8; // young heap: stride-friendly layout
        s.wStride = 0.06; s.wRandom = 0.03; s.wList = 0.02;
        s.wCompute = 0.89; s.fpFrac = 0.35;
        v.push_back(s);
    }
    // Productivity.
    {
        BenchmarkSpec s = spec("speech", "Productivity");
        s.hashBuckets = 1024; s.hashNodes = 20'000;    // 640 KB
        s.treeNodes = 16'000; s.treeNodeBytes = 48;    // 768 KB
        s.wHash = 0.030; s.wTree = 0.02; s.wStride = 0.03;
        s.strideKB = 512;
        s.wCompute = 0.92;
        v.push_back(s);
    }
    {
        BenchmarkSpec s = spec("rc3", "Productivity");
        s.listNodes = 8'000; s.listNodeBytes = 64;     // 512 KB
        s.listRunLen = 8; // young heap: stride-friendly layout
        s.strideKB = 512;
        s.wList = 0.03; s.wStride = 0.03; s.wCompute = 0.94;
        v.push_back(s);
    }
    {
        BenchmarkSpec s = spec("creation", "Productivity");
        s.treeNodes = 24'000; s.treeNodeBytes = 48;    // 1.1 MB
        s.strideKB = 768;
        s.wTree = 0.035; s.wStride = 0.03; s.wCompute = 0.935;
        v.push_back(s);
    }
    // Server (OLTP): hash/list chasing over multi-MB shared buffers;
    // the four tpcc flavours grow the working set.
    for (unsigned i = 1; i <= 4; ++i) {
        BenchmarkSpec s = spec("tpcc-" + std::to_string(i), "Server");
        s.hashBuckets = 2048;  // long chains: ~8 rows per bucket
        s.hashNodes = 14'000 + i * 2'000;              // 2.0-2.8 MB
        s.hashNodeBytes = 128; // OLTP rows span two cache lines
        s.listNodes = 8'000 + i * 1'500;
        s.listNodeBytes = 128;                         // 1.2-1.8 MB
        s.wHash = 0.008 + 0.001 * i;
        s.wList = 0.005; s.wStride = 0.015;
        s.strideKB = 512;
        s.wCompute = 1.0 - s.wHash - s.wList - s.wStride;
        v.push_back(s);
    }
    // Workstation (CAD): verilog simulators chase huge netlists with
    // little compute between hops.
    {
        BenchmarkSpec s = spec("verilog-func", "Workstation");
        s.listNodes = 60'000; s.listNodeBytes = 64;    // 3.8 MB
        s.listRunLen = 2; // heavily fragmented netlist heap
        s.treeNodes = 10'000;                          // 320 KB
        s.wList = 0.08; s.wTree = 0.015; s.wCompute = 0.905;
        s.aluPerNode = 1;
        v.push_back(s);
    }
    {
        BenchmarkSpec s = spec("verilog-gate", "Workstation");
        s.listNodes = 160'000; s.listNodeBytes = 64;   // 10 MB
        s.listRunLen = 3; // heavily fragmented netlist heap
        s.wList = 0.16; s.wCompute = 0.84;
        s.aluPerNode = 1; s.payloadLoads = 1;
        v.push_back(s);
    }
    {
        BenchmarkSpec s = spec("proE", "Workstation");
        s.treeNodes = 6'000; s.treeNodeBytes = 32;     // 192 KB
        s.strideKB = 512;
        s.wTree = 0.03; s.wStride = 0.04; s.wCompute = 0.93;
        v.push_back(s);
    }
    {
        BenchmarkSpec s = spec("slsb", "Workstation");
        s.hashBuckets = 2048; s.hashNodes = 36'000;    // 1.4 MB
        s.hashNodeBytes = 40;
        s.wHash = 0.050; s.wCompute = 0.92; s.wStride = 0.03;
        s.strideKB = 384;
        v.push_back(s);
    }
    // Runtime (Java): allocation-scattered object graphs; node sizes
    // straddle cache lines, which is where next-line width pays off.
    {
        BenchmarkSpec s = spec("specjbb-vsnet", "Runtime");
        s.listNodes = 18'000; s.listNodeBytes = 96;    // 1.7 MB
        s.treeNodes = 14'000; s.treeNodeBytes = 48;    // 672 KB
        s.hashBuckets = 4096; s.hashNodes = 10'000;
        s.wList = 0.005; s.wTree = 0.006; s.wHash = 0.004;
        s.wStride = 0.01; s.strideKB = 256;
        s.wCompute = 0.975;
        v.push_back(s);
    }
    return v;
}

} // namespace

const std::vector<BenchmarkSpec> &
table2Suite()
{
    static const std::vector<BenchmarkSpec> suite = buildSuite();
    return suite;
}

const std::vector<BenchmarkSpec> &
extraWorkloads()
{
    static const std::vector<BenchmarkSpec> extras = [] {
        std::vector<BenchmarkSpec> v;
        {
            BenchmarkSpec s = spec("xgraph", "Extra");
            s.graphNodes = 40'000;     // ~2.2 MB incl. adjacency
            s.graphNodeBytes = 32;
            s.graphMaxDegree = 6;
            s.wGraph = 0.04; s.wCompute = 0.96;
            v.push_back(s);
        }
        {
            BenchmarkSpec s = spec("xbtree", "Extra");
            s.btreeLeaves = 24'000;    // ~1.9 MB of order-8 nodes
            s.btreeFanout = 8;
            s.wBTree = 0.04; s.wStride = 0.01; s.strideKB = 256;
            s.wCompute = 0.95;
            v.push_back(s);
        }
        return v;
    }();
    return extras;
}

const BenchmarkSpec &
findBenchmark(const std::string &name)
{
    for (const auto &s : table2Suite()) {
        if (s.name == name)
            return s;
    }
    for (const auto &s : extraWorkloads()) {
        if (s.name == name)
            return s;
    }
    throw std::invalid_argument("unknown benchmark: " + name);
}

std::unique_ptr<UopSource>
makeBenchmark(const BenchmarkSpec &spec, HeapAllocator &heap,
              std::uint64_t seed)
{
    Rng build_rng(seed * 2654435761ull + 17);
    auto mix = std::make_unique<MixGen>(spec.name, seed + 1);

    WalkOptions walk;
    walk.aluPerNode = spec.aluPerNode;
    walk.payloadLoads = spec.payloadLoads;
    walk.fpFrac = spec.fpFrac;

    if (spec.listNodes && spec.wList > 0.0) {
        BuiltList list =
            buildLinkedList(heap, spec.listNodes, spec.listNodeBytes,
                            spec.listNextOffset, spec.listRunLen,
                            build_rng);
        // Two independent walker contexts over the same structure
        // (distinct register windows): real programs overlap several
        // traversals, which is where pointer-chase MLP comes from.
        // The walkers follow the next pointers in memory, so the
        // link-order vector (4 bytes a node) is dropped, not copied.
        const Addr mid = list.nodes[list.nodes.size() / 2];
        list.nodes = {};
        BuiltList list2 = list;
        list2.head = mid;
        mix->add(std::make_unique<ListTraversalGen>(
                     heap, std::move(list), 0x1000, 0, walk, seed + 2),
                 spec.wList / 2);
        mix->add(std::make_unique<ListTraversalGen>(
                     heap, std::move(list2), 0x1100, 24, walk,
                     seed + 12),
                 spec.wList / 2);
    }
    if (spec.treeNodes && spec.wTree > 0.0) {
        BuiltTree tree = buildBinaryTree(heap, spec.treeNodes,
                                         spec.treeNodeBytes, build_rng);
        mix->add(std::make_unique<TreeSearchGen>(
                     heap, std::move(tree), 0x2000, 4, walk, seed + 3),
                 spec.wTree);
    }
    if (spec.hashNodes && spec.wHash > 0.0) {
        BuiltHash hash =
            buildHashTable(heap, spec.hashBuckets, spec.hashNodes,
                           spec.hashNodeBytes, build_rng);
        BuiltHash hash2 = hash;
        mix->add(std::make_unique<HashLookupGen>(
                     heap, std::move(hash), 0x3000, 8, walk, seed + 4),
                 spec.wHash / 2);
        mix->add(std::make_unique<HashLookupGen>(
                     heap, std::move(hash2), 0x3100, 28, walk,
                     seed + 14),
                 spec.wHash / 2);
    }
    if (spec.graphNodes && spec.wGraph > 0.0) {
        BuiltGraph graph = buildGraph(heap, spec.graphNodes,
                                      spec.graphNodeBytes,
                                      spec.graphMaxDegree, build_rng);
        mix->add(std::make_unique<GraphWalkGen>(
                     heap, std::move(graph), 0x7000, 4, walk,
                     seed + 8),
                 spec.wGraph);
    }
    if (spec.btreeLeaves && spec.wBTree > 0.0) {
        BuiltBTree btree = buildBTree(heap, spec.btreeLeaves,
                                      spec.btreeFanout, build_rng);
        mix->add(std::make_unique<BTreeSearchGen>(
                     heap, std::move(btree), 0x7800, 8, walk,
                     seed + 9),
                 spec.wBTree);
    }
    if (spec.strideKB && spec.wStride > 0.0) {
        const Addr region = buildDataRegion(
            heap, spec.strideKB * 1024, DataKind::Floats, build_rng);
        mix->add(std::make_unique<StrideStreamGen>(
                     region, spec.strideKB * 1024, spec.strideStep,
                     0x4000, 12, spec.aluPerNode, seed + 5),
                 spec.wStride);
    }
    if (spec.randomKB && spec.wRandom > 0.0) {
        const Addr region = buildDataRegion(
            heap, spec.randomKB * 1024, DataKind::RandomBits, build_rng);
        mix->add(std::make_unique<RandomAccessGen>(
                     region, spec.randomKB * 1024, 0x5000, 16, seed + 6),
                 spec.wRandom);
    }
    // Low-region "globals" segment (static data at 0x00200000):
    // a small intra-segment pointer web plus medium-integer data.
    // This is the address region whose candidates the VAM *filter
    // bits* arbitrate (Section 3.3): with few filter bits, genuine
    // low-region pointers are rejected as small integers; with many,
    // medium integers start masquerading as pointers.
    auto globals = std::make_unique<HeapAllocator>(
        heap.backingStore(), heap.pageTable(), heap.frameAllocator(),
        /*heap_base=*/0x00200000, /*align_noise=*/0.0, seed ^ 0x910b);
    Addr hot_base = 0;
    Addr hot_bytes = 0;
    if (spec.hotKB) {
        hot_bytes = spec.hotKB * 1024;
        hot_base = buildDataRegion(*globals, hot_bytes,
                                   DataKind::MediumInts, build_rng);
    }
    {
        BuiltList glist =
            buildLinkedList(*globals, 1'500, 32, 8, 4, build_rng);
        WalkOptions gwalk;
        gwalk.aluPerNode = 1;
        gwalk.payloadLoads = 1;
        mix->add(std::make_unique<ListTraversalGen>(
                     *globals, std::move(glist), 0x8000, 29, gwalk,
                     seed + 11),
                 0.004);
    }
    if (spec.wCompute > 0.0) {
        mix->add(std::make_unique<ComputeGen>(
                     0x6000, 20, spec.computeBlock, spec.fpFrac,
                     spec.branchRandomProb, hot_base, hot_bytes,
                     spec.hotLoads, seed + 7),
                 spec.wCompute);
    }
    mix->adopt(std::move(globals));
    return mix;
}

} // namespace cdp
