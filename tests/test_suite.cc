/** @file Unit tests for the Table 2 benchmark suite. */

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "workloads/suite.hh"

using namespace cdp;

TEST(Suite, HasFifteenBenchmarksInPaperOrder)
{
    const auto &suite = table2Suite();
    ASSERT_EQ(suite.size(), 15u);
    const char *expected[] = {
        "b2b",          "b2c",          "quake",       "speech",
        "rc3",          "creation",     "tpcc-1",      "tpcc-2",
        "tpcc-3",       "tpcc-4",       "verilog-func", "verilog-gate",
        "proE",         "slsb",         "specjbb-vsnet"};
    for (std::size_t i = 0; i < suite.size(); ++i)
        EXPECT_EQ(suite[i].name, expected[i]);
}

TEST(Suite, SuiteColumnsMatchTable2)
{
    EXPECT_EQ(findBenchmark("b2b").suite, "Internet");
    EXPECT_EQ(findBenchmark("quake").suite, "Multimedia");
    EXPECT_EQ(findBenchmark("speech").suite, "Productivity");
    EXPECT_EQ(findBenchmark("tpcc-3").suite, "Server");
    EXPECT_EQ(findBenchmark("verilog-gate").suite, "Workstation");
    EXPECT_EQ(findBenchmark("specjbb-vsnet").suite, "Runtime");
}

TEST(Suite, FindBenchmarkThrowsOnUnknown)
{
    EXPECT_THROW(findBenchmark("nope"), std::invalid_argument);
}

TEST(Suite, WeightsArePositiveAndSumNearOne)
{
    for (const auto &s : table2Suite()) {
        const double sum = s.wList + s.wTree + s.wHash + s.wStride +
                           s.wRandom + s.wCompute;
        EXPECT_NEAR(sum, 1.0, 0.02) << s.name;
        EXPECT_GT(s.wCompute, 0.0) << s.name;
    }
}

TEST(Suite, WorkingSetsSpanCacheScales)
{
    // The suite must contain benchmarks that fit in the 1-MB UL2 and
    // benchmarks that blow it out, as Table 2's MPTU spread implies.
    std::uint64_t smallest = ~0ull, largest = 0;
    for (const auto &s : table2Suite()) {
        smallest = std::min(smallest, s.workingSetBytes());
        largest = std::max(largest, s.workingSetBytes());
    }
    EXPECT_LT(smallest, 1024u * 1024);
    EXPECT_GT(largest, 4u * 1024 * 1024);
}

TEST(Suite, VerilogGateIsTheHeaviest)
{
    // Table 2: verilog-gate has by far the highest MPTU; our stand-in
    // must have the largest pointer-walk weight.
    const auto &vg = findBenchmark("verilog-gate");
    for (const auto &s : table2Suite()) {
        if (s.name != "verilog-gate") {
            EXPECT_GE(vg.wList + vg.wTree + vg.wHash,
                      s.wList + s.wTree + s.wHash)
                << s.name;
        }
    }
}

TEST(Suite, StructureSpecsAreConsistent)
{
    for (const auto &s : table2Suite()) {
        if (s.wList > 0) {
            EXPECT_GT(s.listNodes, 0u) << s.name;
        }
        if (s.wHash > 0) {
            EXPECT_GT(s.hashNodes, 0u) << s.name;
            EXPECT_GT(s.hashBuckets, 0u) << s.name;
            EXPECT_EQ(s.hashBuckets & (s.hashBuckets - 1), 0u)
                << s.name;
        }
        if (s.wTree > 0) {
            EXPECT_GT(s.treeNodes, 0u) << s.name;
        }
        if (s.wStride > 0) {
            EXPECT_GT(s.strideKB, 0u) << s.name;
        }
    }
}

TEST(Suite, MakeBenchmarkProducesRunnableSource)
{
    BackingStore store;
    FrameAllocator frames{0, 48 * 1024, true};
    PageTable pt{store, frames};
    HeapAllocator heap{store, pt, frames};
    auto src = makeBenchmark(findBenchmark("b2c"), heap, 1);
    ASSERT_NE(src, nullptr);
    unsigned loads = 0;
    for (int i = 0; i < 2000; ++i)
        loads += src->next().type == UopType::Load ? 1 : 0;
    EXPECT_GT(loads, 100u); // realistic load density
}

TEST(Suite, EveryBenchmarkBuildsAndEmits)
{
    for (const auto &s : table2Suite()) {
        BackingStore store;
        FrameAllocator frames{0, 48 * 1024, true};
        PageTable pt{store, frames};
        HeapAllocator heap{store, pt, frames};
        auto src = makeBenchmark(s, heap, 7);
        ASSERT_NE(src, nullptr) << s.name;
        std::set<UopType> kinds;
        for (int i = 0; i < 3000; ++i)
            kinds.insert(src->next().type);
        EXPECT_TRUE(kinds.count(UopType::Load)) << s.name;
        EXPECT_TRUE(kinds.count(UopType::Branch)) << s.name;
    }
}

TEST(Suite, BenchmarkHeapStaysUnder16MBCompareWindow)
{
    // With 8 compare bits on a 32-bit address, the prefetchable range
    // around the heap base is 16 MB; the suite working sets must stay
    // inside it for VAM to see the whole heap.
    for (const auto &s : table2Suite())
        EXPECT_LT(s.workingSetBytes(), 14u * 1024 * 1024) << s.name;
}

namespace
{

/** FNV-1a 64 over @p n bytes. */
std::uint64_t
fnv1a(const char *p, std::size_t n)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<std::uint8_t>(p[i]);
        h *= 1099511628211ull;
    }
    return h;
}

/** Little-endian value of @p n bytes of @p s at @p pos. */
std::uint64_t
loadLe(const std::string &s, std::size_t pos, unsigned n)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < n; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(s[pos + i]))
             << (8 * i);
    return v;
}

/** @p v as @p n little-endian bytes appended to @p out. */
void
putLe(std::string &out, std::uint64_t v, unsigned n)
{
    for (unsigned i = 0; i < n; ++i, v >>= 8)
        out.push_back(static_cast<char>(v & 0xff));
}

/**
 * @p store's frames in the layout format 8 gave its STOR payload: a
 * u64 frame count, then per frame in ascending page order its u32
 * page number and its 4096 bytes. Format 9 checkpoints leave the
 * frames out, so the image pins hash the store directly.
 */
std::string
storImage(const BackingStore &store)
{
    const std::vector<Addr> pages = store.pages();
    std::string out;
    out.reserve(8 + pages.size() * (4 + pageBytes));
    putLe(out, pages.size(), 8);
    for (const Addr page : pages) {
        putLe(out, pageNumber(page), 4);
        const std::uint8_t *frame = store.pageDataIfPresent(page);
        out.append(reinterpret_cast<const char *>(frame), pageBytes);
    }
    return out;
}

/**
 * The payload of section @p tag in checkpoint bytes @p ckpt, found by
 * walking the container framing (12-byte header, then per section a
 * tag and chunks of u32 length, payload and u64 checksum up to a zero
 * length) and joining the section's chunk payloads. Only the framing
 * is assumed, not the checksum or the version, so the pinned values
 * below survive a format bump that leaves the payloads alone.
 */
std::string
sectionPayload(const std::string &ckpt, const char *tag)
{
    std::size_t pos = 12;
    while (pos + 8 <= ckpt.size()) {
        const bool match = ckpt.compare(pos, 4, tag) == 0;
        std::string payload;
        pos += 4;
        for (std::uint64_t len; pos + 4 <= ckpt.size() &&
                                (len = loadLe(ckpt, pos, 4)) != 0;
             pos += 4 + len + 8)
            payload += ckpt.substr(pos + 4, len);
        pos += 4;
        if (match)
            return payload;
    }
    ADD_FAILURE() << "no section " << tag;
    return {};
}

struct HeapImage
{
    const char *workload;
    std::uint64_t seed;
    std::uint64_t frames;  //!< FNV-1a of storImage()
    std::uint64_t cursors; //!< FNV-1a of the WKLD payload
};

/**
 * Hashes of every workload's freshly built machine: the materialized
 * frames (page number + bytes, heap and page tables alike) and every
 * generator's start state (cursor, RNG, staged uops). Computed before
 * the heap builders were rewritten for speed; a builder change that
 * moves one byte or one start cursor fails here, independently of
 * the goldens.
 */
constexpr HeapImage pinnedImages[] = {
    {"b2b", 1, 0x3a03baf8ef94fa9eull, 0x4267954a1b239039ull},
    {"b2b", 2002, 0x686b10eee5ed555eull, 0xe73e958dfb3eff39ull},
    {"b2c", 1, 0xe9d1afab55f93c44ull, 0xd14f50c230852480ull},
    {"b2c", 2002, 0x4302e790b192aab9ull, 0x7929510ee4492151ull},
    {"quake", 1, 0x664ee903feab00e3ull, 0x4c1dbbb976afe0b2ull},
    {"quake", 2002, 0x3510d77080ec45a2ull, 0xe83d0b0d43f201dcull},
    {"speech", 1, 0x883b431886e75a81ull, 0xeaa5ee400f0a31c6ull},
    {"speech", 2002, 0x643fdb29db4aedcbull, 0x87320f1dff7f9a74ull},
    {"rc3", 1, 0x8478724d97204966ull, 0x8d49b5e06c77a258ull},
    {"rc3", 2002, 0x53662e72f33f60d2ull, 0xee9bb5e990f03d2bull},
    {"creation", 1, 0xf12359ea09a8935full, 0x45de36c321f87167ull},
    {"creation", 2002, 0x1937a24286c1c1b3ull, 0x0e3e12570326f5f4ull},
    {"tpcc-1", 1, 0xdd5e66d00187ac6aull, 0x659400f8d7a4c412ull},
    {"tpcc-1", 2002, 0x60fa8630c3053dc9ull, 0xe6bfdf4f469c5d77ull},
    {"tpcc-2", 1, 0x0d66da0d7e32fdd6ull, 0x00711efe0beed224ull},
    {"tpcc-2", 2002, 0x0012d08366394a4cull, 0xcb4f65d152890a80ull},
    {"tpcc-3", 1, 0x620be3298d2f5f8bull, 0x816bc145b26fe630ull},
    {"tpcc-3", 2002, 0x9a1bbb8fc0b284fcull, 0x35def97485b17afcull},
    {"tpcc-4", 1, 0x7a1aa421e940de8bull, 0xc3a918bf3500e81full},
    {"tpcc-4", 2002, 0xd74a80d4fadd9d59ull, 0xaa27aebc33f9e6b8ull},
    {"verilog-func", 1, 0x6f873358fcabeca0ull, 0xcf95d65348723b31ull},
    {"verilog-func", 2002, 0x80fe1579e88c44f9ull, 0xd347c3577d033a75ull},
    {"verilog-gate", 1, 0xe130e832ff26e29full, 0xeff2369cc6147609ull},
    {"verilog-gate", 2002, 0x7241f6a500e4e5f9ull, 0x0b5866fbe7170db5ull},
    {"proE", 1, 0x24912d9510967c6cull, 0x09aa02cd60f88bedull},
    {"proE", 2002, 0x12a571b6f9e66fbcull, 0xcf2dda2e61f57d17ull},
    {"slsb", 1, 0xf7bd509d013a58f2ull, 0x00aff50c4e0207f3ull},
    {"slsb", 2002, 0x6ef1786a4840aa26ull, 0xff5a4d5dcd9a8028ull},
    {"specjbb-vsnet", 1, 0x20b89086c4c7485cull, 0x056ab3c1723a6da5ull},
    {"specjbb-vsnet", 2002, 0x65b8524ae411134aull, 0xfa72d2c5b2d9016cull},
    {"xgraph", 1, 0xc96ecd6766d59c80ull, 0x4df0baf2700841b8ull},
    {"xgraph", 2002, 0xa075d42b3600e462ull, 0xec1b5902fef7f854ull},
    {"xbtree", 1, 0x29800d83322135b7ull, 0x5217733e33211ec9ull},
    {"xbtree", 2002, 0x55b37363710d9d83ull, 0x2f37478896f01552ull},
};

} // namespace

TEST(Suite, HeapImagesArePinned)
{
    // Two seeds per workload: every suite and extra workload is pinned.
    ASSERT_EQ(std::size(pinnedImages),
              2 * (table2Suite().size() + extraWorkloads().size()));
    for (const HeapImage &pin : pinnedImages) {
        SimConfig c;
        c.workload = pin.workload;
        c.workloadSeed = pin.seed;
        Simulator sim(c);
        std::ostringstream os;
        sim.saveCheckpoint(os);
        const std::string stor = storImage(sim.heap().backingStore());
        const std::string wkld = sectionPayload(os.str(), "WKLD");
        EXPECT_EQ(fnv1a(stor.data(), stor.size()), pin.frames)
            << pin.workload << " seed " << pin.seed;
        EXPECT_EQ(fnv1a(wkld.data(), wkld.size()), pin.cursors)
            << pin.workload << " seed " << pin.seed;
    }
}
