#include "cpu/ooo_core.hh"

#include <algorithm>
#include <limits>
#include <string>

#include "snapshot/ckpt_io.hh"

namespace cdp
{

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

namespace
{

std::int8_t
loadRegId(Reader &r)
{
    const std::uint8_t raw = r.u8();
    const auto reg = static_cast<std::int8_t>(raw);
    if (reg != noReg && (reg < 0 || reg >= static_cast<int>(numRegs)))
        r.fail("uop register id " + std::to_string(raw) +
               " outside the architectural file");
    return reg;
}

} // namespace

Uop
loadUop(Reader &r)
{
    Uop u;
    const std::uint8_t type = r.u8();
    if (type > static_cast<std::uint8_t>(UopType::Nop))
        r.fail("unknown uop type " + std::to_string(type));
    u.type = static_cast<UopType>(type);
    u.pc = r.u32();
    u.vaddr = r.u32();
    u.src0 = loadRegId(r);
    u.src1 = loadRegId(r);
    u.dst = loadRegId(r);
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
                 StatGroup *stats, const std::string &name)
    : cfg(cfg), source(source), mem(mem),
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
    robBuf.resize(cfg.robEntries);
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
        robHead = robHead + 1 == robBuf.size() ? 0 : robHead + 1;
        --robCount;
        ++uopsRetired;
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
        if (!havePending) {
            pending = source.next();
            havePending = true;
        }
        const Uop &u = pending;
        if (u.type == UopType::Load && loadsInRob >= cfg.loadBuffer)
            break;
        if (u.type == UopType::Store && storesInRob >= cfg.storeBuffer)
            break;
        havePending = false;

        Cycle ready = cycle;
        if (u.src0 != noReg)
            ready = std::max(ready, regReady[u.src0]);
        if (u.src1 != noReg)
            ready = std::max(ready, regReady[u.src1]);

        Cycle complete = ready;
        bool mispredicted = false;
        switch (u.type) {
          case UopType::Alu:
          case UopType::Nop:
            complete = ready + cfg.aluLatency;
            break;
          case UopType::Fp:
            complete = ready + cfg.fpLatency;
            break;
          case UopType::Load:
            complete = mem.load(u.pc, u.vaddr, ready, u.pointerLoad);
            ++issuedLoads;
            memWake = mem.nextEventCycle(); // load may have (re)scheduled fills
            break;
          case UopType::Store:
            complete = mem.store(u.pc, u.vaddr, ready);
            ++issuedStores;
            memWake = mem.nextEventCycle(); // store may have (re)scheduled fills
            break;
          case UopType::Branch:
            complete = ready + cfg.aluLatency;
            ++issuedBranches;
            mispredicted = !bp.update(u.pc, u.taken);
            break;
        }

        if (u.dst != noReg)
            regReady[u.dst] = complete;

        std::size_t tail = robHead + robCount;
        if (tail >= robBuf.size())
            tail -= robBuf.size();
        robBuf[tail] = {complete, u.type == UopType::Load,
                        u.type == UopType::Store};
        ++robCount;
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

Cycle
OooCore::run(std::uint64_t n)
{
    const Cycle start = cycle;
    const std::uint64_t target = uopsRetired.value() + n;
    while (uopsRetired.value() < target)
        step();
    return cyclesSince(cycle, start);
}

void
OooCore::saveState(snap::Writer &w) const
{
    w.u64(cycle);
    w.u64(cycleBase);
    w.u64(fetchStalledUntil);
    w.boolean(havePending);
    snap::saveUop(w, pending);
    w.u64(robCount);
    for (std::size_t i = 0; i < robCount; ++i) {
        std::size_t idx = robHead + i;
        if (idx >= robBuf.size())
            idx -= robBuf.size();
        const RobEntry &e = robBuf[idx];
        w.u64(e.complete);
        w.boolean(e.isLoad);
        w.boolean(e.isStore);
    }
    for (const Cycle ready : regReady)
        w.u64(ready);
    bp.saveState(w);
}

void
OooCore::loadState(snap::Reader &r)
{
    cycle = r.u64();
    cycleBase = r.u64();
    fetchStalledUntil = r.u64();
    memWake = 0; // re-query the wake hint on the first step
    havePending = r.boolean();
    pending = snap::loadUop(r);

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
    for (Cycle &ready : regReady)
        ready = r.u64();
    bp.loadState(r);
}

} // namespace cdp
