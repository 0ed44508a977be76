#include "sim/simulator.hh"

namespace cdp
{

namespace
{

const SimConfig &
validated(const SimConfig &cfg)
{
    cfg.validate();
    return cfg;
}

} // namespace

Simulator::Simulator(const SimConfig &cfg)
    : cfg(validated(cfg)),
      frames(/*base_pa=*/0, cfg.physFrames, /*scatter=*/true),
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
Simulator::measure(std::uint64_t uops)
{
    statGroup.resetAll(); // zeroes the memory-system counters too
    cpu->resetMeasurement();
    RunResult r = runChunk(uops);
    memsys->checkInvariants();
    return r;
}

RunResult
Simulator::runChunk(std::uint64_t uops)
{
    const MemorySystem::Counters before = memsys->counters();
    const std::uint64_t u0 = cpu->retiredUops();
    RunResult r;
    r.workload = cfg.workload;
    r.cycles = cpu->run(uops);
    r.uops = cpu->retiredUops() - u0;
    r.ipc = r.cycles ? static_cast<double>(r.uops) / r.cycles : 0.0;
    r.mem = memsys->counters() - before;
    return r;
}

RunResult
Simulator::run()
{
    warmup(cfg.warmupUops);
    return measure(cfg.measureUops);
}

} // namespace cdp
