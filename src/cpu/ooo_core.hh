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
 *
 * Two loops implement these rules. The cycle loop steps the clock
 * through every cycle where something can happen; the event loop
 * times each uop once, from recurrences over the issue and retire
 * cycles of the uops before it, and replays only what the cycle loop
 * makes observable (DESIGN.md §12). They agree call for call and
 * byte for byte.
 */

#ifndef CDP_CPU_OOO_CORE_HH
#define CDP_CPU_OOO_CORE_HH

#include <algorithm>
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

/**
 * Which loop times the uops. Event is the default; Cycle is the
 * reference path that sched.mode = "legacy" selects.
 */
enum class CoreLoop
{
    Event, //!< each uop timed once; visited cycles replayed sparsely
    Cycle, //!< the clock stepped through every visited cycle
};

/** No future event can ever unblock the core; what() names the ROB,
 *  LB and SB occupancy and the CoreConfig limits. */
class CoreStallError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * OooCore's event-loop bookkeeping, derived from the cycle-loop state
 * by OooCore::resyncEvents. runEvents keeps it in a local copy, so
 * the per-uop recurrences stay in registers.
 */
struct CoreEvents
{
    /** Cycle of the last issue and the slots it used. */
    Cycle issueAt = 0;
    unsigned issueUsed = 0;
    /** Cycle of the last retirement and the slots it used. */
    Cycle retireAt = 0;
    unsigned retireUsed = 0;
    /**
     * Visited cycles before walkFrom have been replayed. walkFrom is
     * itself visited: the cycle before it issued or retired a uop (or
     * it starts the run).
     */
    Cycle walkFrom = 0;
    /**
     * Uops issued and retired so far; ROB slot of uop k is
     * k & robMask. Between runs robHead and robCount mirror them.
     */
    std::uint64_t issuedSeq = 0;
    std::uint64_t retiredSeq = 0;
    /** Next slots of lbRetire and sbRetire. */
    std::size_t lbNext = 0;
    std::size_t sbNext = 0;
};

/**
 * The timing core. Pulls uops from a UopSource, times them against a
 * CoreMemIf, and accumulates cycles/uops.
 */
class OooCore
{
  public:
    /**
     * A geometry with a zero width or a zero-sized ROB, LB or SB always
     * runs the cycle loop, which diagnoses the stall it must end in.
     */
    OooCore(const CoreConfig &cfg, UopSource &source, CoreMemIf &mem,
            StatGroup *stats = nullptr, const std::string &name = "core",
            CoreLoop loop = CoreLoop::Event);

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
        /** Event loop only: the cycle this uop retires at. */
        Cycle retire = 0;
        bool isLoad = false;
        bool isStore = false;
    };

    /** run() on the cycle loop. */
    void runCycles(std::uint64_t n);

    /** run() on the event loop. */
    void runEvents(std::uint64_t n);

    /**
     * Event loop: replay the visited cycles in [e.walkFrom, limit] —
     * mem.advance() at and after the wake hint, retirement, and the
     * stall counters. @p limit is itself a visited cycle: the issue
     * cycle of the next uop (@p issuing) or the stop cycle.
     */
    CoreEvents walkTo(CoreEvents e, Cycle limit, bool issuing);

    /** Event loop: derive its bookkeeping from the cycle-loop state. */
    void resyncEvents();

    /** Event loop: the oldest uop that may not have retired yet. */
    std::uint64_t firstLive(const CoreEvents &e) const;

    /** Event loop: retire every uop retiring at or before @p c and
     *  bring robHead/robCount up to date. */
    void retireThrough(Cycle c);

    /**
     * Event loop: retire cycle of the uop robEntries before uop
     * @p seq; 0 until that many have issued.
     */
    Cycle robBackRetire(std::uint64_t seq) const
    {
        return robBuf[(seq - cfg.robEntries) & robMask].retire;
    }

    /**
     * Execute @p u issued at cycle @p now: read its sources, time it
     * (calling the memory for loads and stores), write its
     * destination, and return its completion cycle. Sets
     * @p mispredicted for a branch the predictor got wrong.
     */
    [[gnu::always_inline]] inline Cycle execute(const Uop &u, Cycle now,
                                                bool &mispredicted);

    /** The ROB entry @p i places behind the head. */
    RobEntry &robAt(std::size_t i) { return robBuf[(robHead + i) & robMask]; }

    /** Retire the ROB head. */
    void popRob()
    {
        robHead = (robHead + 1) & robMask;
        --robCount;
        ++uopsRetired;
    }

    /** regReady slot a source @p r reads; noReg reads the zero slot. */
    static std::size_t readSlot(std::int8_t r)
    {
        return std::min<std::size_t>(static_cast<std::uint8_t>(r), numRegs);
    }

    /** regReady slot a destination @p r writes; noReg writes the sink. */
    static std::size_t writeSlot(std::int8_t r)
    {
        return std::min<std::size_t>(static_cast<std::uint8_t>(r),
                                     numRegs + 1);
    }

    /** Advance one cycle; may skip ahead when fully stalled. */
    void step();

    /** Retire completed uops from the ROB head, up to retireWidth. */
    void retireStage();

    /** Fetch/issue up to issueWidth uops. */
    void issueStage();

    /** Throw the CoreStallError diagnostic for the current state. */
    [[noreturn]] void stuck(const char *why) const;

    // cdplint: transient(cfg, loop) -- construction-time geometry and loop choice; loadState cross-checks compatibility, it never overwrites
    CoreConfig cfg;
    CoreLoop loop;
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
     * The ROB as a fixed-capacity ring (cfg.robEntries rounded up to
     * a power of two, sized at construction, indexed under robMask):
     * one push and one pop per retired uop made deque segment
     * management a measurable cost. robHead is the oldest entry;
     * robCount the occupancy, at most cfg.robEntries. saveState
     * writes the logical FIFO (robCount entries in age order);
     * loadState rebuilds it compacted from slot zero.
     */
    std::vector<RobEntry> robBuf;
    // cdplint: transient(robMask, typeLatency) -- derived from the construction-time geometry
    std::size_t robMask = 0;
    /** Latency of each UopType that does not go to memory. */
    Cycle typeLatency[static_cast<std::size_t>(UopType::Nop) + 1] = {};
    std::size_t robHead = 0;
    std::size_t robCount = 0;
    // cdplint: transient(loadsInRob, storesInRob) -- recomputed from the restored ROB contents in loadState
    unsigned loadsInRob = 0;
    unsigned storesInRob = 0;
    /**
     * Per-register ready cycles, plus two slots that spare a branch
     * per operand: a noReg source reads slot numRegs, which stays 0,
     * and a noReg destination writes slot numRegs + 1, which nothing
     * reads. Only the first numRegs travel in a checkpoint.
     */
    Cycle regReady[numRegs + 2] = {};

    // cdplint: transient(ev, lbRetire, sbRetire) -- event-loop bookkeeping, rebuilt from the restored clock and ROB by resyncEvents
    CoreEvents ev;
    /**
     * Retire cycles of the last loadBuffer loads and storeBuffer
     * stores, oldest at ev.lbNext/sbNext: a load may not issue before the
     * load loadBuffer places back retires (likewise stores).
     */
    std::vector<Cycle> lbRetire;
    std::vector<Cycle> sbRetire;

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
