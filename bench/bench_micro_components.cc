/**
 * @file
 * google-benchmark microbenchmarks of the hot simulator components:
 * the VAM line scan (the operation the paper's hardware performs on
 * every UL2 fill), cache lookups, TLB lookups, the prefetcher
 * training paths, and end-to-end simulated uops per second. The scan
 * and prefetcher cases return inline results (VamHits, PrefetchList),
 * so they time the component, not the allocator.
 */

#include <benchmark/benchmark.h>

#include <cstring>

#include "core/vam.hh"
#include "cpu/gshare.hh"
#include "memsys/cache.hh"
#include "prefetch/markov_prefetcher.hh"
#include "prefetch/stride_prefetcher.hh"
#include "sim/simulator.hh"
#include "vm/tlb.hh"

using namespace cdp;

static void
BM_VamScanLine(benchmark::State &state)
{
    Vam vam(VamConfig{8, 4, 1, static_cast<unsigned>(state.range(0))});
    std::uint8_t line[lineBytes];
    Rng rng(1);
    for (auto &b : line)
        b = static_cast<std::uint8_t>(rng.next32());
    const std::uint32_t ptr = 0x10345678;
    std::memcpy(line + 8, &ptr, 4);
    for (auto _ : state) {
        const VamHits v = vam.scanLine(line, 0x10000008);
        benchmark::DoNotOptimize(v);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VamScanLine)->Arg(1)->Arg(2)->Arg(4);

static void
BM_CacheLookupHit(benchmark::State &state)
{
    Cache cache(1024 * 1024, 8);
    for (Addr a = 0; a < 1024 * 1024; a += lineBytes)
        cache.insert(a);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.lookup(a));
        a = (a + lineBytes) & (1024 * 1024 - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLookupHit);

static void
BM_TlbLookup(benchmark::State &state)
{
    Tlb tlb(64, 4);
    for (Addr p = 0; p < 64; ++p)
        tlb.insert(p << pageShift, p << pageShift);
    Addr p = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(p << pageShift));
        p = (p + 1) & 63;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookup);

static void
BM_StrideObserve(benchmark::State &state)
{
    StridePrefetcher pf(256, 2, 2);
    Addr a = 0x10000000;
    for (auto _ : state) {
        const PrefetchList v = pf.observeMiss(0x400, a);
        benchmark::DoNotOptimize(v);
        a += 64;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StrideObserve);

static void
BM_MarkovObserve(benchmark::State &state)
{
    MarkovPrefetcher pf(512 * 1024, 16, 4);
    Rng rng(3);
    for (auto _ : state) {
        const PrefetchList v =
            pf.observeMiss(0, (rng.next32() & 0xffffff) & ~63u);
        benchmark::DoNotOptimize(v);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MarkovObserve);

static void
BM_GshareUpdate(benchmark::State &state)
{
    Gshare bp(16384);
    Rng rng(9);
    for (auto _ : state)
        benchmark::DoNotOptimize(bp.update(0x400, rng.chance(0.6)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GshareUpdate);

static void
BM_EndToEndSimulation(benchmark::State &state)
{
    for (auto _ : state) {
        SimConfig cfg;
        cfg.workload = "b2c";
        cfg.warmupUops = 1'000;
        cfg.measureUops = 20'000;
        Simulator sim(cfg);
        benchmark::DoNotOptimize(sim.run().ipc);
    }
    state.SetItemsProcessed(state.iterations() * 21'000);
    state.SetLabel("simulated uops/s in items/s");
}
BENCHMARK(BM_EndToEndSimulation)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
