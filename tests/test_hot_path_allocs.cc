/** @file
 * Allocation regression test for the steady-state simulation loop.
 *
 * Global operator new/delete are replaced with counting versions, and
 * three workloads run through warm-up plus a 200 k-uop measure. The
 * request path (MSHRs, arbiter queues, prefetcher results, VAM scans,
 * page walks) and uop delivery use fixed-capacity containers sized at
 * construction, so the measure window must stay under a few heap
 * allocations per thousand uops. A std::vector or node container
 * creeping back into a per-miss or per-uop path shows up here as
 * hundreds per kuop. The heap build is held to allocations per
 * structure, not per node or per frame.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "check/check.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

namespace
{

std::atomic<std::uint64_t> allocations{0};

void *
countedAlloc(std::size_t n)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(al);
    // aligned_alloc wants a size that is a multiple of the alignment.
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace cdp;

namespace
{

/** Heap allocations per 1000 uops in the measure window. */
double
allocationsPerKuop(const std::string &workload)
{
    SimConfig cfg;
    cfg.workload = workload;
    cfg.warmupUops = 500'000;
    cfg.measureUops = 200'000;
    Simulator sim(cfg);
    sim.warmup(cfg.warmupUops);
    const std::uint64_t before = allocations.load();
    const RunResult r = sim.measure(cfg.measureUops);
    const std::uint64_t n = allocations.load() - before;
    return 1000.0 * static_cast<double>(n) / static_cast<double>(r.uops);
}

class HotPathAllocs : public ::testing::TestWithParam<const char *>
{
};

} // namespace

TEST_P(HotPathAllocs, MeasureWindowStaysUnderFivePerKuop)
{
    if (CDP_CHECKS_ENABLED)
        GTEST_SKIP() << "invariant audits allocate by design "
                        "(sortedMshrEntries, dumps)";
    const double per_kuop = allocationsPerKuop(GetParam());
    RecordProperty("allocs_per_kuop", std::to_string(per_kuop));
    EXPECT_LE(per_kuop, 5.0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Workloads, HotPathAllocs,
                         ::testing::Values("verilog-gate", "b2c",
                                           "tpcc-2"));

TEST(BuildAllocs, VerilogGateBuildIsOStructures)
{
    if (CDP_CHECKS_ENABLED)
        GTEST_SKIP() << "invariant audits allocate by design";
    // 160 k list nodes over ~2600 frames: the builders must allocate
    // per structure (node vectors, generators, frame arena chunks),
    // never per node or per frame.
    const BenchmarkSpec &spec = findBenchmark("verilog-gate");
    BackingStore store;
    FrameAllocator frames{0, 48 * 1024, true};
    PageTable pt{store, frames};
    HeapAllocator heap{store, pt, frames};
    const std::uint64_t before = allocations.load();
    auto src = makeBenchmark(spec, heap, 1);
    const std::uint64_t n = allocations.load() - before;
    RecordProperty("build_allocs", std::to_string(n));
    EXPECT_LT(n, 1000u);
    EXPECT_GT(store.framesTouched(), 2500u);
}
