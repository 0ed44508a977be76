/**
 * @file
 * Top-level simulator: owns the simulated machine (memory, page
 * table, heap, workload, memory system, core) and runs the paper's
 * two-phase methodology — warm-up, statistics reset, measurement
 * (Section 2.2).
 */

#ifndef CDP_SIM_SIMULATOR_HH
#define CDP_SIM_SIMULATOR_HH

#include <iosfwd>
#include <memory>
#include <string>

#include "cpu/ooo_core.hh"
#include "mem/backing_store.hh"
#include "mem/frame_allocator.hh"
#include "sim/config.hh"
#include "sim/memory_system.hh"
#include "stats/stat.hh"
#include "vm/page_table.hh"
#include "workloads/heap_allocator.hh"
#include "workloads/suite.hh"

namespace cdp
{

/** Results of one measured simulation phase. */
struct RunResult
{
    std::string workload;
    Cycle cycles = 0;
    std::uint64_t uops = 0;
    double ipc = 0.0;
    MemorySystem::Counters mem{};

    /** Demand L2 misses per 1000 uops (the paper's MPTU metric). */
    double
    mptu() const
    {
        return uops ? 1000.0 * static_cast<double>(mem.l2DemandMisses) /
                          static_cast<double>(uops)
                    : 0.0;
    }

    /** Speedup of this run relative to @p baseline. */
    double
    speedupOver(const RunResult &baseline) const
    {
        return baseline.ipc > 0.0 ? ipc / baseline.ipc : 0.0;
    }
};

/**
 * One fully wired simulated machine.
 */
class Simulator
{
  public:
    /** @throws ConfigError when @p cfg fails SimConfig::validate(),
     *          before any part of the machine is built */
    explicit Simulator(const SimConfig &cfg);

    /**
     * Run the standard two-phase experiment: warm up for
     * cfg.warmupUops, reset statistics, measure cfg.measureUops.
     */
    RunResult run();

    /** Execute @p uops without resetting anything (warm-up). */
    void warmup(std::uint64_t uops);

    /** Reset statistics and measure @p uops. */
    RunResult measure(std::uint64_t uops);

    /**
     * Execute @p uops and report just that chunk (used by the Fig. 1
     * non-cumulative MPTU trace). Counters are *not* reset; the
     * chunk result is the delta.
     */
    RunResult runChunk(std::uint64_t uops);

    const SimConfig &config() const { return cfg; }
    StatGroup &stats() { return statGroup; }
    MemorySystem &memory() { return *memsys; }
    OooCore &core() { return *cpu; }
    HeapAllocator &heap() { return *heapAlloc; }
    UopSource &workload() { return *source; }

    /**
     * Drain every in-flight memory transaction, bringing the machine
     * to a quiesce point — the only states checkpoints can capture
     * (see DESIGN.md §11). Idempotent; deterministic, so the straight
     * and the restored leg of a differential run stay byte-identical
     * as long as both quiesce at the same uop count.
     */
    void quiesce();

    /**
     * Serialize the complete machine into @p os (versioned binary
     * format, see src/snapshot/ckpt_io.hh). Requires a quiesced
     * machine; throws snap::SnapshotError otherwise.
     */
    void saveCheckpoint(std::ostream &os) const;

    /**
     * Restore a checkpoint into this (freshly constructed) machine.
     * The guarded subset of the configuration — workload, seed,
     * machine geometry, baseline-prefetcher knobs — must match the
     * checkpointing run exactly; the sweep-fork knobs (cdp.*,
     * adaptive.*, trace.*, run lengths) may differ, enabling
     * warm-once / fork-many sweeps. The memory layer (frames, page
     * table, heaps) is not in the checkpoint: the constructor built
     * it, and this machine's must equal the saver's, which holds for
     * any machine built from the same guarded config by the same
     * code. STOR's frame count, image digest and heap top refuse any
     * other before anything is applied, and the restore changes
     * nothing in the memory layer. Throws snap::SnapshotError with a
     * section-qualified diagnostic on any mismatch, corruption,
     * truncation, or version skew. Sections stream in checksummed
     * chunks, so a corrupt later chunk or section surfaces after the
     * earlier ones were applied: after a throw this machine is partly
     * overwritten and must be discarded (DESIGN.md §11).
     */
    void restoreCheckpoint(std::istream &is);

    /** saveCheckpoint into @p path (binary); throws on I/O failure. */
    void saveCheckpointFile(const std::string &path) const;

    /** restoreCheckpoint from @p path; throws on I/O failure. */
    void restoreCheckpointFile(const std::string &path);

  private:
    SimConfig cfg;
    StatGroup statGroup;
    BackingStore store;
    FrameAllocator frames;
    PageTable pageTable;
    std::unique_ptr<HeapAllocator> heapAlloc;
    std::unique_ptr<UopSource> source;
    std::unique_ptr<MemorySystem> memsys;
    std::unique_ptr<OooCore> cpu;
};

} // namespace cdp

#endif // CDP_SIM_SIMULATOR_HH
