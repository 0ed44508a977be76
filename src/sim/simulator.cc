#include "sim/simulator.hh"

namespace cdp
{

namespace
{

/** Field-wise difference of two counter snapshots. */
MemorySystem::Counters
diffCounters(const MemorySystem::Counters &a,
             const MemorySystem::Counters &b)
{
    MemorySystem::Counters d;
#define CDP_DIFF(f) d.f = a.f - b.f
    CDP_DIFF(demandLoads);
    CDP_DIFF(l1Misses);
    CDP_DIFF(l2DemandAccesses);
    CDP_DIFF(l2DemandMisses);
    CDP_DIFF(maskFullStride);
    CDP_DIFF(maskPartialStride);
    CDP_DIFF(maskFullCdp);
    CDP_DIFF(maskPartialCdp);
    CDP_DIFF(strideIssued);
    CDP_DIFF(cdpIssued);
    CDP_DIFF(cdpIssuedOverlap);
    CDP_DIFF(cdpUsefulOverlap);
    CDP_DIFF(strideUseful);
    CDP_DIFF(cdpUseful);
    CDP_DIFF(pfDropL2Hit);
    CDP_DIFF(pfDropInflight);
    CDP_DIFF(pfDropQueued);
    CDP_DIFF(pfDropBusFull);
    CDP_DIFF(pfDropUnmapped);
    CDP_DIFF(pfDropArbiter);
    CDP_DIFF(demandWalks);
    CDP_DIFF(prefetchWalks);
    CDP_DIFF(promotions);
    CDP_DIFF(rescans);
    CDP_DIFF(reinforcePromotions);
    CDP_DIFF(pollutionInjected);
    CDP_DIFF(prefetchEvictedUnused);
    for (unsigned i = 0; i < provDepthBuckets; ++i) {
        CDP_DIFF(depthAccurate[i]);
        CDP_DIFF(depthLate[i]);
        CDP_DIFF(depthDropped[i]);
        CDP_DIFF(depthPolluting[i]);
    }
#undef CDP_DIFF
    return d;
}

const SimConfig &
validated(const SimConfig &cfg)
{
    cfg.validate();
    return cfg;
}

} // namespace

Simulator::Simulator(const SimConfig &cfg)
    : cfg(validated(cfg)),
      frames(/*base_pa=*/0, cfg.physFrames, /*scatter=*/true,
             cfg.workloadSeed ^ 0xabcdef),
      pageTable(store, frames)
{
    heapAlloc = std::make_unique<HeapAllocator>(
        store, pageTable, frames, defaultHeapBase,
        /*align_noise=*/0.05, cfg.workloadSeed ^ 0x5eed);
    source = makeBenchmark(findBenchmark(cfg.workload), *heapAlloc,
                           cfg.workloadSeed);
    memsys = std::make_unique<MemorySystem>(cfg, store, pageTable,
                                            &statGroup);
    cpu = std::make_unique<OooCore>(cfg.core, *source, *memsys,
                                    &statGroup, "core",
                                    cfg.sched.coreLoop());
}

void
Simulator::warmup(std::uint64_t uops)
{
    cpu->run(uops);
    memsys->checkInvariants();
}

RunResult
Simulator::snapshotDelta(Cycle cycles, std::uint64_t uops,
                         const MemorySystem::Counters &before) const
{
    RunResult r;
    r.workload = cfg.workload;
    r.cycles = cycles;
    r.uops = uops;
    r.ipc = cycles ? static_cast<double>(uops) / cycles : 0.0;
    r.mem = diffCounters(memsys->counters(), before);
    return r;
}

RunResult
Simulator::measure(std::uint64_t uops)
{
    statGroup.resetAll();
    memsys->resetCounters();
    cpu->resetMeasurement();
    const MemorySystem::Counters before{}; // just reset
    const std::uint64_t u0 = cpu->retiredUops();
    const Cycle cycles = cpu->run(uops);
    memsys->checkInvariants();
    return snapshotDelta(cycles, cpu->retiredUops() - u0, before);
}

RunResult
Simulator::runChunk(std::uint64_t uops)
{
    const MemorySystem::Counters before = memsys->counters();
    const std::uint64_t u0 = cpu->retiredUops();
    const Cycle cycles = cpu->run(uops);
    return snapshotDelta(cycles, cpu->retiredUops() - u0, before);
}

RunResult
Simulator::run()
{
    warmup(cfg.warmupUops);
    return measure(cfg.measureUops);
}

} // namespace cdp
