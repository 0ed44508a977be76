#include "cpu/ooo_core.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>
#include <utility>

#include "snapshot/ckpt_io.hh"

namespace cdp
{

std::string
uopFieldError(std::uint8_t type, std::int8_t src0, std::int8_t src1,
              std::int8_t dst)
{
    if (type > static_cast<std::uint8_t>(UopType::Nop))
        return "unknown uop type " + std::to_string(type);
    const std::pair<const char *, std::int8_t> regs[] = {
        {"src0", src0}, {"src1", src1}, {"dst", dst}};
    for (const auto &[field, reg] : regs) {
        if (reg != noReg && (reg < 0 || reg >= static_cast<int>(numRegs)))
            return std::string("uop ") + field + " register " +
                   std::to_string(static_cast<std::uint8_t>(reg)) +
                   " outside the architectural file";
    }
    return {};
}

namespace snap
{

void
saveUop(Writer &w, const Uop &u)
{
    w.u8(static_cast<std::uint8_t>(u.type));
    w.u32(u.pc);
    w.u32(u.vaddr);
    w.u8(static_cast<std::uint8_t>(u.src0));
    w.u8(static_cast<std::uint8_t>(u.src1));
    w.u8(static_cast<std::uint8_t>(u.dst));
    w.boolean(u.taken);
    w.boolean(u.pointerLoad);
}

Uop
loadUop(Reader &r)
{
    const std::uint8_t type = r.u8();
    Uop u;
    u.pc = r.u32();
    u.vaddr = r.u32();
    u.src0 = static_cast<std::int8_t>(r.u8());
    u.src1 = static_cast<std::int8_t>(r.u8());
    u.dst = static_cast<std::int8_t>(r.u8());
    if (const std::string bad = uopFieldError(type, u.src0, u.src1, u.dst);
        !bad.empty())
        r.fail(bad);
    u.type = static_cast<UopType>(type);
    u.taken = r.boolean();
    u.pointerLoad = r.boolean();
    return u;
}

} // namespace snap

void
UopSource::saveState(snap::Writer &) const
{
    throw snap::SnapshotError(std::string("uop source '") + name() +
                              "' does not support checkpointing");
}

void
UopSource::loadState(snap::Reader &)
{
    throw snap::SnapshotError(std::string("uop source '") + name() +
                              "' does not support checkpointing");
}

OooCore::OooCore(const CoreConfig &cfg, UopSource &source, CoreMemIf &mem,
                 StatGroup *stats, const std::string &name, CoreLoop loop)
    : cfg(cfg), loop(loop), source(source), mem(mem),
      bp(cfg.bpEntries, stats, name + ".bp"),
      uopsRetired(stats ? *stats : dummyGroup, name + ".retired_uops",
                  "uops retired"),
      issuedLoads(stats ? *stats : dummyGroup, name + ".loads",
                  "demand loads issued"),
      issuedStores(stats ? *stats : dummyGroup, name + ".stores",
                   "demand stores issued"),
      issuedBranches(stats ? *stats : dummyGroup, name + ".branches",
                     "branches executed"),
      robFullCycles(stats ? *stats : dummyGroup, name + ".rob_full_cycles",
                    "cycles issue blocked on a full ROB"),
      fetchStallCycles(stats ? *stats : dummyGroup,
                       name + ".fetch_stall_cycles",
                       "cycles fetch was squashed by a mispredict")
{
    robBuf.resize(std::bit_ceil(std::max(cfg.robEntries, 1u)));
    robMask = robBuf.size() - 1;
    typeLatency[static_cast<std::size_t>(UopType::Alu)] = cfg.aluLatency;
    typeLatency[static_cast<std::size_t>(UopType::Fp)] = cfg.fpLatency;
    typeLatency[static_cast<std::size_t>(UopType::Branch)] = cfg.aluLatency;
    typeLatency[static_cast<std::size_t>(UopType::Nop)] = cfg.aluLatency;
    if (cfg.issueWidth == 0 || cfg.retireWidth == 0 ||
        cfg.robEntries == 0 || cfg.loadBuffer == 0 ||
        cfg.storeBuffer == 0)
        this->loop = CoreLoop::Cycle;
    if (this->loop == CoreLoop::Event) {
        lbRetire.resize(cfg.loadBuffer);
        sbRetire.resize(cfg.storeBuffer);
        resyncEvents();
    }
}

inline Cycle
OooCore::execute(const Uop &u, Cycle now, bool &mispredicted)
{
    const Cycle ready =
        std::max(std::max(now, regReady[readSlot(u.src0)]),
                 regReady[readSlot(u.src1)]);
    Cycle complete = ready + typeLatency[static_cast<std::size_t>(u.type)];
    mispredicted = false;
    if (u.type == UopType::Load) {
        complete = mem.load(u.pc, u.vaddr, ready, u.pointerLoad);
        ++issuedLoads;
        memWake = mem.nextEventCycle(); // load may have (re)scheduled fills
    } else if (u.type == UopType::Store) {
        complete = mem.store(u.pc, u.vaddr, ready);
        ++issuedStores;
        memWake = mem.nextEventCycle(); // store may have (re)scheduled fills
    } else if (u.type == UopType::Branch) {
        ++issuedBranches;
        mispredicted = !bp.update(u.pc, u.taken);
    }
    regReady[writeSlot(u.dst)] = complete;
    return complete;
}

void
OooCore::retireStage()
{
    for (unsigned i = 0; i < cfg.retireWidth && robCount != 0; ++i) {
        const RobEntry &head = robBuf[robHead];
        if (head.complete > cycle)
            break;
        if (head.isLoad)
            --loadsInRob;
        if (head.isStore)
            --storesInRob;
        popRob();
    }
}

void
OooCore::issueStage()
{
    if (cycle < fetchStalledUntil) {
        ++fetchStallCycles;
        return;
    }

    for (unsigned i = 0; i < cfg.issueWidth; ++i) {
        if (robCount >= cfg.robEntries) {
            if (i == 0)
                ++robFullCycles;
            break;
        }
        if (fetchHead == fetchCount) {
            source.fill(fetchBuf);
            fetchHead = 0;
            fetchCount = fetchBuf.size();
        }
        const Uop &u = fetchBuf[fetchHead];
        if (u.type == UopType::Load && loadsInRob >= cfg.loadBuffer)
            break;
        if (u.type == UopType::Store && storesInRob >= cfg.storeBuffer)
            break;
        ++fetchHead;

        bool mispredicted;
        const Cycle complete = execute(u, cycle, mispredicted);
        robAt(robCount++) = {complete, 0, u.type == UopType::Load,
                             u.type == UopType::Store};
        if (u.type == UopType::Load)
            ++loadsInRob;
        if (u.type == UopType::Store)
            ++storesInRob;

        if (mispredicted) {
            // Fetch resumes a fixed bubble after the branch resolves.
            fetchStalledUntil = complete + cfg.mispredictPenalty;
            break;
        }
    }
}

void
OooCore::step()
{
    // Only call into the memory system when its wake hint says the
    // call could matter. The hint is conservative (0 = legacy
    // every-cycle contract, e.g. for mocks that keep the CoreMemIf
    // default), and every load/store refreshes it, so skipped calls
    // are exactly the ones advance() guarantees are pure no-ops.
    if (memWake <= cycle) {
        mem.advance(cycle);
        memWake = mem.nextEventCycle();
    }

    const std::uint64_t retired_before = uopsRetired.value();
    const std::size_t rob_before = robCount;
    retireStage();
    issueStage();
    const bool progressed = uopsRetired.value() != retired_before ||
                            robCount != rob_before;

    Cycle next = cycle + 1;
    if (!progressed) {
        // Fully stalled: skip ahead to the next event that can
        // unblock us — the ROB head completing or fetch resuming.
        // When neither lies in the future, nothing ever will.
        Cycle wake = std::numeric_limits<Cycle>::max();
        if (robCount != 0) {
            if (robBuf[robHead].complete <= cycle)
                stuck("the ROB head is complete but did not retire");
            wake = std::min(wake, robBuf[robHead].complete);
        }
        if (cycle < fetchStalledUntil)
            wake = std::min(wake, fetchStalledUntil);
        else if (robCount == 0)
            stuck("the ROB is empty and fetch is not stalled, yet "
                  "nothing issued");
        if (wake != std::numeric_limits<Cycle>::max())
            next = std::max(next, wake);
    }
    cycle = next;
}

void
OooCore::stuck(const char *why) const
{
    const auto n = [](std::uint64_t v) { return std::to_string(v); };
    throw CoreStallError(
        "core stuck at cycle " + n(cycle) + ": " + why + " (ROB " +
        n(robCount) + "/" + n(cfg.robEntries) + ", LB " + n(loadsInRob) +
        "/" + n(cfg.loadBuffer) + ", SB " + n(storesInRob) + "/" +
        n(cfg.storeBuffer) + "; issueWidth " + n(cfg.issueWidth) +
        ", retireWidth " + n(cfg.retireWidth) + ")");
}

void
OooCore::runCycles(std::uint64_t n)
{
    const std::uint64_t target = uopsRetired.value() + n;
    while (uopsRetired.value() < target)
        step();
}

/*
 * The event loop. The cycle loop visits a cycle when something issues
 * or retires there, on the cycle after each such cycle, and on the
 * fetch-resume cycle it jumps to when stalled; every other cycle it
 * skips. Each uop's issue and retire cycle follow from recurrences
 * over earlier uops (DESIGN.md §12), and every term of those
 * recurrences is itself a visited cycle, so the loop below issues
 * each uop at exactly the cycle the cycle loop would. Between two
 * issue cycles it replays only the visited cycles the cycle loop
 * makes observable.
 *
 * The ROB ring is indexed by uop sequence number. Retirement is lazy:
 * the entry robEntries behind the next uop is read in place (it has
 * retired once that uop may issue), and entries are counted off only
 * where a walk needs their retire cycles or a run stops.
 */
void
OooCore::runEvents(std::uint64_t n)
{
    if (n == 0)
        return;
    // The run stops at the cycle the n-th uop from now retires: known
    // once that uop has issued. `toIssue` counts down to it.
    Cycle stop = std::numeric_limits<Cycle>::max();
    std::uint64_t toIssue = 0;
    if (n <= robCount)
        stop = robAt(static_cast<std::size_t>(n - 1)).retire;
    else
        toIssue = n - robCount;

    CoreEvents e = ev;
    std::size_t head = fetchHead;
    for (;;) {
        // Earliest cycle the next uop can be fetched: in order after
        // the previous one, fetch resumed, a ROB slot freed.
        const Cycle rob_back = robBackRetire(e.issuedSeq);
        Cycle at = std::max(
            e.issueAt + (e.issueUsed == cfg.issueWidth ? 1 : 0),
            std::max(fetchStalledUntil, rob_back));
        if (at > stop)
            break;
        if (head == fetchCount) {
            source.fill(fetchBuf);
            head = 0;
            fetchCount = fetchBuf.size();
        }
        const Uop &u = fetchBuf[head];
        const bool is_load = u.type == UopType::Load;
        const bool is_store = u.type == UopType::Store;
        const Cycle lb_back = lbRetire[e.lbNext];
        const Cycle sb_back = sbRetire[e.sbNext];
        // Masks, not ?:, so a random uop type costs no host mispredict.
        at = std::max(at, std::max(lb_back & -Cycle{is_load},
                                   sb_back & -Cycle{is_store}));
        if (at > stop)
            break;
        if (memWake > at && fetchStalledUntil <= e.walkFrom) {
            // No advance() is due and fetch is live, so only a full ROB
            // is observable before `at`. While it is full nothing
            // retires (its head is the uop robEntries back, retiring
            // at rob_back <= at), so its one visited cycle is walkFrom,
            // the cycle after the last issue.
            robFullCycles += e.walkFrom < rob_back;
            e.walkFrom = at + 1;
        } else {
            e = walkTo(e, at, true);
        }
        ++head;

        bool mispredicted;
        const Cycle complete = execute(u, at, mispredicted);
        // In order, after its issue cycle, within retireWidth a cycle.
        Cycle retire = std::max(std::max(complete, at + 1), e.retireAt);
        retire += retire == e.retireAt && e.retireUsed == cfg.retireWidth;
        e.retireUsed = retire == e.retireAt ? e.retireUsed + 1 : 1;
        e.retireAt = retire;
        robBuf[e.issuedSeq++ & robMask] = {complete, retire, is_load,
                                           is_store};
        lbRetire[e.lbNext] = is_load ? retire : lb_back;
        e.lbNext += is_load ? 1 : 0;
        e.lbNext = e.lbNext == lbRetire.size() ? 0 : e.lbNext;
        sbRetire[e.sbNext] = is_store ? retire : sb_back;
        e.sbNext += is_store ? 1 : 0;
        e.sbNext = e.sbNext == sbRetire.size() ? 0 : e.sbNext;

        e.issueUsed = at == e.issueAt ? e.issueUsed + 1 : 1;
        e.issueAt = at;
        if (mispredicted) {
            // The cycle loop stops issuing for this cycle; the resume
            // cycle is later anyway unless latency and penalty are 0.
            fetchStalledUntil = complete + cfg.mispredictPenalty;
            e.issueUsed = cfg.issueWidth;
        }
        if (toIssue != 0 && --toIssue == 0)
            stop = retire;
    }
    ev = walkTo(e, stop, false);
    fetchHead = head;
    retireThrough(stop);
    cycle = stop + 1;
}

std::uint64_t
OooCore::firstLive(const CoreEvents &e) const
{
    // Uops more than robEntries back retired before the last issue.
    const std::uint64_t window =
        std::min<std::uint64_t>(e.issuedSeq, cfg.robEntries);
    return std::max(e.retiredSeq, e.issuedSeq - window);
}

void
OooCore::retireThrough(Cycle c)
{
    std::uint64_t seq = firstLive(ev);
    while (seq != ev.issuedSeq && robBuf[seq & robMask].retire <= c)
        ++seq;
    uopsRetired += seq - ev.retiredSeq;
    ev.retiredSeq = seq;
    robHead = static_cast<std::size_t>(seq & robMask);
    robCount = static_cast<std::size_t>(ev.issuedSeq - seq);
}

CoreEvents
OooCore::walkTo(CoreEvents e, Cycle limit, bool issuing)
{
    if (limit < e.walkFrom)
        return e;
    // walkFrom is visited: the cycle before it issued or retired (or
    // began the run). The ROB is full until rob_free, when the uop
    // robEntries places back retires.
    const Cycle rob_free = robBackRetire(e.issuedSeq);
    const Cycle resume = fetchStalledUntil;
    std::uint64_t seq = firstLive(e);
    const auto retire_at = [this](std::uint64_t k) {
        return robBuf[k & robMask].retire;
    };
    while (seq != e.issuedSeq && retire_at(seq) < e.walkFrom)
        ++seq;

    // The cycle after a visited cycle is visited when that cycle made
    // progress.
    bool forced = true;
    for (;;) {
        // The next visited cycle: the forced one, else the earliest of
        // fetch resuming, the oldest live uop retiring, and the limit.
        Cycle c = limit;
        if (forced) {
            c = e.walkFrom;
        } else {
            if (resume >= e.walkFrom)
                c = std::min(c, resume);
            if (seq != e.issuedSeq)
                c = std::min(c, retire_at(seq));
        }
        if (memWake <= c) {
            mem.advance(c);
            memWake = mem.nextEventCycle();
        }
        bool progressed = false;
        for (; seq != e.issuedSeq && retire_at(seq) <= c; ++seq)
            progressed = true;
        if (issuing && c == limit)
            progressed = true;
        else if (c < resume)
            ++fetchStallCycles;
        else if (c < rob_free)
            ++robFullCycles;
        e.walkFrom = c + 1;
        forced = progressed;
        if (c == limit)
            break;
    }
    uopsRetired += seq - e.retiredSeq;
    e.retiredSeq = seq;
    e.walkFrom = limit + 1;
    return e;
}

void
OooCore::resyncEvents()
{
    // The cycle loop resumes at `cycle` with fresh issue and retire
    // slots; each ROB entry retires at the first cycle from there that
    // is at or after its completion and has a retire slot left. Slots
    // outside the ROB read as retired at cycle 0.
    ev = CoreEvents{};
    ev.issueAt = cycle;
    ev.retireAt = cycle;
    ev.walkFrom = cycle;
    ev.retiredSeq = robHead;
    ev.issuedSeq = robHead + robCount;
    for (std::size_t i = robCount; i < robBuf.size(); ++i)
        robAt(i).retire = 0;
    std::fill(lbRetire.begin(), lbRetire.end(), 0);
    std::fill(sbRetire.begin(), sbRetire.end(), 0);
    for (std::size_t i = 0; i < robCount; ++i) {
        RobEntry &e = robAt(i);
        Cycle retire = std::max(e.complete, ev.retireAt);
        if (retire == ev.retireAt && ev.retireUsed == cfg.retireWidth)
            ++retire;
        ev.retireUsed = retire == ev.retireAt ? ev.retireUsed + 1 : 1;
        ev.retireAt = retire;
        e.retire = retire;
        if (e.isLoad) {
            lbRetire[ev.lbNext] = retire;
            ev.lbNext = ev.lbNext + 1 == lbRetire.size() ? 0 : ev.lbNext + 1;
        }
        if (e.isStore) {
            sbRetire[ev.sbNext] = retire;
            ev.sbNext = ev.sbNext + 1 == sbRetire.size() ? 0 : ev.sbNext + 1;
        }
    }
}

Cycle
OooCore::run(std::uint64_t n)
{
    const Cycle start = cycle;
    if (loop == CoreLoop::Event)
        runEvents(n);
    else
        runCycles(n);
    return cyclesSince(cycle, start);
}

void
OooCore::saveState(snap::Writer &w) const
{
    w.u64(cycle);
    w.u64(cycleBase);
    w.u64(fetchStalledUntil);
    w.u64(fetchCount - fetchHead);
    for (std::size_t i = fetchHead; i < fetchCount; ++i)
        snap::saveUop(w, fetchBuf[i]);
    w.u64(robCount);
    const std::size_t head = robHead;
    for (std::size_t i = 0; i < robCount; ++i) {
        const RobEntry &e = robBuf[(head + i) & robMask];
        w.u64(e.complete);
        w.boolean(e.isLoad);
        w.boolean(e.isStore);
    }
    for (std::size_t i = 0; i < numRegs; ++i)
        w.u64(regReady[i]);
    bp.saveState(w);
}

void
OooCore::loadState(snap::Reader &r)
{
    cycle = r.u64();
    cycleBase = r.u64();
    fetchStalledUntil = r.u64();
    memWake = 0; // re-query the wake hint on the first step
    const std::uint64_t buffered = r.u64();
    if (buffered > fetchBatch)
        r.fail("fetch buffer holds " + std::to_string(buffered) +
               " uops, capacity is " + std::to_string(fetchBatch));
    fetchCount = static_cast<std::size_t>(buffered);
    fetchHead = 0;
    for (std::size_t i = 0; i < fetchCount; ++i)
        fetchBuf[i] = snap::loadUop(r);

    const std::uint64_t occupancy = r.u64();
    if (occupancy > cfg.robEntries)
        r.fail("ROB occupancy " + std::to_string(occupancy) +
               " exceeds capacity " + std::to_string(cfg.robEntries));
    robCount = occupancy;
    robHead = 0;
    loadsInRob = 0;
    storesInRob = 0;
    for (std::uint64_t i = 0; i < occupancy; ++i) {
        RobEntry e;
        e.complete = r.u64();
        e.isLoad = r.boolean();
        e.isStore = r.boolean();
        loadsInRob += e.isLoad ? 1 : 0;
        storesInRob += e.isStore ? 1 : 0;
        robBuf[i] = e;
    }
    for (std::size_t i = 0; i < numRegs; ++i)
        regReady[i] = r.u64();
    bp.loadState(r);
    if (loop == CoreLoop::Event)
        resyncEvents();
}

} // namespace cdp
