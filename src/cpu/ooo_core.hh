/**
 * @file
 * Out-of-order window core model.
 *
 * A trace-driven approximation of the paper's Pentium-4-like machine
 * (Table 1): 3-wide fetch/issue/retire, 128-entry reorder buffer,
 * 48-entry load and 32-entry store buffers, 16K-entry gshare with a
 * 28-cycle misprediction bubble, and per-register dependency timing.
 *
 * Uops issue in program order (each cycle up to issueWidth of them)
 * but *complete* out of order: a uop's start time is the max of its
 * source registers' ready cycles, so independent loads overlap while
 * pointer-chasing loads serialize — exactly the memory-level-
 * parallelism behaviour the content prefetcher targets. Retirement
 * is in order and bounded by the ROB, which is what ultimately
 * converts load miss latency into lost cycles.
 */

#ifndef CDP_CPU_OOO_CORE_HH
#define CDP_CPU_OOO_CORE_HH

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hh"
#include "cpu/gshare.hh"
#include "cpu/uop.hh"
#include "stats/stat.hh"

namespace cdp
{

namespace snap
{
class Writer;
class Reader;
} // namespace snap

/**
 * Interface the core uses to talk to the memory hierarchy.
 */
class CoreMemIf
{
  public:
    virtual ~CoreMemIf() = default;

    /**
     * Issue a demand load.
     * @param pc load PC
     * @param vaddr effective address
     * @param now cycle the address is available
     * @param pointer_load stat tag: recurrence-pointer load
     * @return cycle the loaded value is available (load-to-use)
     */
    virtual Cycle load(Addr pc, Addr vaddr, Cycle now,
                       bool pointer_load) = 0;

    /**
     * Issue a demand store.
     * @return cycle the store has been accepted
     */
    virtual Cycle store(Addr pc, Addr vaddr, Cycle now) = 0;

    /** Advance memory-system background work (fills, arbiters). */
    virtual void advance(Cycle now) = 0;

    /** nextEventCycle() value meaning "nothing pending at all". */
    static constexpr Cycle noPendingEvent = ~Cycle{0};

    /**
     * Earliest future cycle at which advance() could make progress.
     * Purely an optimization hint for the caller: skipping advance()
     * calls strictly before this cycle must not change any
     * architectural state, statistic, or RNG stream. The default (0)
     * preserves the legacy call-every-cycle contract; noPendingEvent
     * means no background work can exist until the next load/store.
     * The hint is invalidated by any load()/store()/advance() call,
     * after which the caller must re-query.
     */
    virtual Cycle nextEventCycle() const { return 0; }
};

/** Core sizing knobs (defaults = Table 1). */
struct CoreConfig
{
    unsigned issueWidth = 3;
    unsigned retireWidth = 3;
    unsigned robEntries = 128;
    unsigned loadBuffer = 48;
    unsigned storeBuffer = 32;
    unsigned mispredictPenalty = 28;
    unsigned bpEntries = 16384;
    unsigned aluLatency = 1;
    unsigned fpLatency = 3;

    bool operator==(const CoreConfig &) const = default;
};

/** No future event can ever unblock the core; what() names the ROB,
 *  LB and SB occupancy and the CoreConfig limits. */
class CoreStallError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * The timing core. Pulls uops from a UopSource, times them against a
 * CoreMemIf, and accumulates cycles/uops.
 */
class OooCore
{
  public:
    OooCore(const CoreConfig &cfg, UopSource &source, CoreMemIf &mem,
            StatGroup *stats = nullptr, const std::string &name = "core");

    /**
     * Run until @p n more uops have retired.
     * @return cycles elapsed during this call
     * @throws CoreStallError when the core can never retire again
     */
    Cycle run(std::uint64_t n);

    Cycle currentCycle() const { return cycle; }
    std::uint64_t retiredUops() const { return uopsRetired.value(); }

    /** IPC over everything retired so far (after last stat reset). */
    double ipc() const
    {
        const Cycle c = cyclesSince(cycle, cycleBase);
        return c ? static_cast<double>(uopsRetired.value()) / c : 0.0;
    }

    /**
     * Restart measurement: zeroes the cycle base so ipc() reflects
     * only post-warm-up execution. Stat counters are reset separately
     * via the owning StatGroup.
     */
    void resetMeasurement() { cycleBase = cycle; }

    const Gshare &branchPredictor() const { return bp; }

    /** Fetched uops not yet issued (what a checkpoint carries). */
    std::size_t fetchBuffered() const { return fetchCount - fetchHead; }

    /** Uops the core pulls from its source per UopSource::fill. */
    static constexpr std::size_t fetchBatch = 64;

    /**
     * Serialize the pipeline state: clock, ROB occupancy, register
     * ready times, the fetched-but-unissued uops, and the branch
     * predictor. The uop source serializes itself elsewhere (it
     * belongs to the workload, not the core).
     */
    void saveState(snap::Writer &w) const;
    void loadState(snap::Reader &r);

  private:
    struct RobEntry
    {
        Cycle complete = 0;
        bool isLoad = false;
        bool isStore = false;
    };

    /** Advance one cycle; may skip ahead when fully stalled. */
    void step();

    /** Retire completed uops from the ROB head, up to retireWidth. */
    void retireStage();

    /** Fetch/issue up to issueWidth uops. */
    void issueStage();

    /** Throw the CoreStallError diagnostic for the current state. */
    [[noreturn]] void stuck(const char *why) const;

    // cdplint: transient(cfg) -- construction-time geometry; loadState cross-checks compatibility, it never overwrites
    CoreConfig cfg;
    // cdplint: transient(source, mem) -- wiring references rebuilt by the restoring harness, not state
    UopSource &source;
    CoreMemIf &mem;
    Gshare bp;

    Cycle cycle = 0;
    Cycle cycleBase = 0;
    Cycle fetchStalledUntil = 0;
    // cdplint: transient(memWake) -- cached mem.nextEventCycle() hint; reset to 0 (re-query) on restore, so it never carries state
    /** Cached wake hint: skip mem.advance() while cycle < memWake. */
    Cycle memWake = 0;
    /**
     * Fetch buffer: uops pulled from the source fetchBatch at a time
     * and issued from fetchHead. The unissued tail [fetchHead,
     * fetchCount) is state: the source has already moved past it.
     */
    std::array<Uop, fetchBatch> fetchBuf{};
    std::size_t fetchHead = 0;
    std::size_t fetchCount = 0;
    /**
     * The ROB as a fixed-capacity ring (capacity = cfg.robEntries,
     * sized at construction): one push and one pop per retired uop
     * made deque segment management a measurable cost. robHead is
     * the oldest entry; robCount the occupancy. saveState writes the
     * logical FIFO (robCount entries in age order); loadState
     * rebuilds it compacted from slot zero.
     */
    std::vector<RobEntry> robBuf;
    std::size_t robHead = 0;
    std::size_t robCount = 0;
    // cdplint: transient(loadsInRob, storesInRob) -- recomputed from the restored ROB contents in loadState
    unsigned loadsInRob = 0;
    unsigned storesInRob = 0;
    Cycle regReady[numRegs] = {};

    // cdplint: transient(dummyGroup, uopsRetired, issuedLoads, issuedStores, issuedBranches, robFullCycles, fetchStallCycles) -- Stats are observational, reset at warm-up end, and travel via the stats dump, not the checkpoint
    StatGroup dummyGroup;
    Scalar uopsRetired;
    Scalar issuedLoads;
    Scalar issuedStores;
    Scalar issuedBranches;
    Scalar robFullCycles;
    Scalar fetchStallCycles;
};

} // namespace cdp

#endif // CDP_CPU_OOO_CORE_HH
