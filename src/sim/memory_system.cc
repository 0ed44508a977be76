#include "sim/memory_system.hh"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "check/access.hh"
#include "check/check.hh"
#include "check/invariants.hh"
#include "snapshot/ckpt_io.hh"

namespace cdp
{

namespace
{

/** The knob-table rows of CdpConfig are the cdp.* keys. */
bool
isCdpKnob(const Knob &k)
{
    return std::string_view(k.key).starts_with("cdp.");
}

} // namespace

MemorySystem::MemorySystem(const SimConfig &cfg, BackingStore &store,
                           PageTable &page_table, StatGroup *stats)
    : cfg(cfg), backing(store), pageTable(page_table),
      dl1(cfg.mem.l1Bytes, cfg.mem.l1Ways, stats, "dl1"),
      ul2(cfg.mem.l2Bytes, cfg.mem.l2Ways, stats, "ul2"),
      dataTlb(cfg.mem.dtlbEntries, cfg.mem.dtlbWays, stats, "dtlb"),
      walker(page_table, stats, "walker"),
      stride(cfg.stride.tableEntries, cfg.stride.degree,
             cfg.stride.confThreshold, stats, "stride"),
      nextline(cfg.stride.policy == "nextline"
                   ? std::make_unique<NextLinePrefetcher>(
                         cfg.stride.degree, true, stats, "nextline")
                   : nullptr),
      markov(cfg.markov.enabled
                 ? std::make_unique<MarkovPrefetcher>(
                       cfg.markov.stabBytes, cfg.markov.ways,
                       cfg.markov.fanout, stats, "markov")
                 : nullptr),
      cdp(cfg.cdp, stats, "cdp"),
      adaptive(cfg.adaptive, stats, "adaptive"),
      bus(cfg.mem.busLatency, cfg.mem.busOccupancy, stats, "bus"),
      l2Arbiter(cfg.mem.l2QueueSize, stats, "l2arb"),
      mshrs(cfg.core.loadBuffer + cfg.mem.busQueueSize + 8, stats,
            "mshr"),
      pollutionRng(cfg.pollution.seed),
      pollutionSpan(static_cast<Addr>(cfg.physFrames) * pageBytes),
      trc(cfg.trace),
      loadLatency(stats ? *stats : dummyStatGroup,
                  "mem.load_latency",
                  "demand load-to-use latency (cycles)", 0, 800, 16),
      prefetchLead(stats ? *stats : dummyStatGroup,
                   "mem.prefetch_lead",
                   "content-prefetch fill-to-use lead (cycles)", 0,
                   2000, 20),
      provChainDepth(stats ? *stats : dummyStatGroup,
                     "prov.chain_depth",
                     "chain depth of issued content prefetches", 0, 16,
                     16)
{
    skipIdle = cfg.sched.mode == "wheel";
    cdpDepthHighWater = std::max(cfg.cdp.depthThreshold, 1u);
    StatGroup &sg = stats ? *stats : dummyStatGroup;
    // StatGroup keeps raw pointers into provFormulas; reserve the
    // exact count so emplace_back can never reallocate them away.
    provFormulas.reserve(4 * provDepthBuckets + 2);
    for (unsigned d = 0; d < provDepthBuckets; ++d) {
        const std::string base = "prov.d" + std::to_string(d) + ".";
        const std::string at =
            d + 1 == provDepthBuckets
                ? "depth >= " + std::to_string(d)
                : "depth " + std::to_string(d);
        provFormulas.emplace_back(
            sg, base + "accurate",
            "content prefetches first-touched by a demand (" + at + ")",
            [this, d] {
                return static_cast<double>(ctr.depthAccurate[d]);
            });
        provFormulas.emplace_back(
            sg, base + "late",
            "content prefetches promoted while in flight (" + at + ")",
            [this, d] {
                return static_cast<double>(ctr.depthLate[d]);
            });
        provFormulas.emplace_back(
            sg, base + "dropped",
            "content prefetches squashed before issue (" + at + ")",
            [this, d] {
                return static_cast<double>(ctr.depthDropped[d]);
            });
        provFormulas.emplace_back(
            sg, base + "polluting",
            "content-prefetched lines evicted unused (" + at + ")",
            [this, d] {
                return static_cast<double>(ctr.depthPolluting[d]);
            });
    }
    provFormulas.emplace_back(
        sg, "prov.reinforce_promotions",
        "depth-tag promotions recorded by path reinforcement",
        [this] {
            return static_cast<double>(ctr.reinforcePromotions);
        });
    provFormulas.emplace_back(
        sg, "prov.reinforce_rescans",
        "reinforcement promotions that also triggered a rescan",
        [this] { return static_cast<double>(ctr.rescans); });
}

Cycle
MemorySystem::nextEventCycle() const
{
    // Anything per-call (rescan-debt repayment, the pollution RNG
    // draw, an adaptive epoch) forces the legacy every-cycle
    // contract; so does sched.mode = "legacy" itself. Otherwise the
    // next event is the earlier of a fill completing and the arbiter
    // head winning the bus.
    if (!skipIdle || cfg.pollution.enabled || rescanDebt != 0 ||
        adaptive.epochElapsed())
        return 0;
    return nextProgressCycle();
}

void
MemorySystem::advance(Cycle now)
{
    // Idle fast path (sched.mode = "wheel"): when the call is
    // provably a pure no-op, skip the whole body — including the
    // drain-pool bookkeeping, whose deferred accumulation is exact
    // (see idleAt). The skip happens before checkTick so audit
    // pacing tracks full advances, which are the only calls that can
    // corrupt state.
    if (skipIdle && idleAt(now)) {
        ++skippedAdvances;
        return;
    }
    ++fullAdvances;

    // Iterate to a fixpoint: completed fills can enqueue chained
    // prefetches, and drained prefetches can complete within the same
    // window, whose fills must be scanned in turn.
    for (;;) {
        bool progressed = false;
        while (auto f = pendingFills.popDue(now)) {
            completeFill(f->payload, f->when);
            progressed = true;
        }
        const std::size_t queued = l2Arbiter.size();
        drainPrefetches(now);
        progressed |= l2Arbiter.size() != queued;
        if (!progressed)
            break;
    }
    if (adaptive.epochElapsed()) {
        CdpConfig tuned = cdp.config();
        if (adaptive.evaluate(tuned))
            cdp.reconfigure(tuned);
    }
    if (cfg.pollution.enabled)
        maybeInjectPollution(now);

#if CDP_CHECKS_ENABLED
    // Full-structure audits are O(cache size); pace them so checked
    // builds stay usable while still catching corruption quickly.
    if ((++checkTick & 0x3ff) == 0)
        checkInvariants();
#endif
}

void
MemorySystem::reconfigureCdp(const CdpConfig &new_cfg)
{
    cfg.cdp = new_cfg;
    cdpDepthHighWater =
        std::max(cdpDepthHighWater, new_cfg.depthThreshold);
    cdp.reconfigure(new_cfg);
}

void
MemorySystem::checkInvariants() const
{
#if CDP_CHECKS_ENABLED
    // Depth tags (Section 3.4.2): content chains stop at the
    // configured threshold; stride prefetches carry depth 1; the DL1
    // never stores a depth at all. Resident lines and in-flight
    // entries keep the depth they were created with across a sweep's
    // reconfigureCdp(), so the bound is the depth high-water mark.
    const unsigned maxDepth = std::max(cdpDepthHighWater, 1u);
    check::auditCache(dl1, 0, "dl1");
    check::auditCache(ul2, maxDepth, "ul2");
    check::auditMshr(mshrs, cdpDepthHighWater, "mshr");
    check::auditArbiter(l2Arbiter, "l2arb");
    check::auditTlb(dataTlb, pageTable, "dtlb");

    // In-flight accounting: the prefetch-outstandingness counter must
    // equal the number of MSHR entries in the prefetch lifecycle.
    CDP_CHECK_MSG(prefetchInFlight == check::prefetchEntryCount(mshrs),
                  check::dumpMshr(mshrs, "mshr"));

    // Request-lifecycle pairing: every in-flight entry has exactly
    // one scheduled completion event and vice versa, so no fill can
    // be lost or delivered twice.
    std::unordered_set<Addr> scheduled;
    for (const EventWheel::Event &e : pendingFills.sorted())
        scheduled.insert(e.payload);
    CDP_CHECK_MSG(scheduled.size() == mshrs.size(),
                  check::dumpMshr(mshrs, "mshr"));
    for (const auto &[pa, entry] : check::sortedMshrEntries(mshrs)) {
        (void)entry;
        CDP_CHECK_MSG(scheduled.count(pa) == 1,
                      check::dumpMshr(mshrs, "mshr"));
    }
#endif
}

void
MemorySystem::drainAll(Cycle now)
{
    while (!pendingFills.empty() || !l2Arbiter.empty()) {
        Cycle horizon = now;
        if (!pendingFills.empty())
            horizon = std::max(horizon, pendingFills.nextDue());
        advance(horizon + cfg.mem.drainBudgetCap);
        now = horizon + cfg.mem.drainBudgetCap;
    }
    checkInvariants();
}

void
MemorySystem::drainPrefetches(Cycle now)
{
    // Accumulate L2-arbiter slots at one per elapsed cycle (the L2
    // throughput of Table 1), capped so an idle aeon cannot bank an
    // unbounded burst.
    if (now > lastDrain) {
        drainPool = std::min<Cycle>(
            drainPool + cyclesSince(now, lastDrain),
            cfg.mem.drainBudgetCap);
        lastDrain = now;
    }

    // Reinforcement rescans steal UL2 port slots (Section 4.2.1:
    // "the rescan overhead ... can put a strain on the memory
    // system, specifically the UL2 cache").
    while (drainPool > 0 && rescanDebt > 0) {
        --drainPool;
        --rescanDebt;
    }
    // Strict priority (Section 3.5): prefetches only consume *idle*
    // bus slots, never reserving bandwidth ahead of a later demand.
    // The prefetch hardware runs concurrently with the (possibly
    // stalled) core, so a request issues at the first bus-idle point
    // after it was enqueued -- which may lie anywhere inside the
    // window the core just skipped over.
    while (drainPool > 0 && !l2Arbiter.empty()) {
        auto req = l2Arbiter.dequeue();
        if (!req)
            break;
        const Cycle t = std::max(req->enqueued, bus.freeCycle());
        if (t > now) {
            // Bus stays busy past the current horizon; retry on the
            // next advance.
            l2Arbiter.requeueFront(*req);
            break;
        }
        --drainPool;
        if (trc.active())
            trc.record(obs::EventKind::ArbGrant, t, req->lineVa,
                       req->id, req->root, req->type, req->depth,
                       req->hop);
        issuePrefetch(*req, t);
    }
}

std::optional<Cycle>
MemorySystem::timedWalk(Addr va, Cycle now, bool speculative)
{
    if (speculative)
        ++ctr.prefetchWalks;
    else
        ++ctr.demandWalks;

    const WalkResult wr = walker.walk(va, dataTlb);
    Cycle lat = 0;
    for (Addr pa : wr.accesses) {
        const Addr lpa = lineAlign(pa);
        if (ul2.lookup(lpa)) {
            lat += cfg.mem.l2Latency;
            continue;
        }
        if (const MshrEntry *e = mshrs.find(lpa)) {
            if (e->completion > now + lat)
                lat = cyclesUntil(e->completion, now);
            continue;
        }
        const Cycle comp = bus.service(now + lat);
        MshrEntry fill{};
        fill.linePa = lpa;
        fill.lineVa = 0;
        fill.vaddr = va;
        fill.type = ReqType::PageWalk;
        fill.id = nextReqId++;
        fill.root = fill.id; // walk fills are their own root
        fill.completion = comp;
        if (mshrs.allocate(fill)) {
            pendingFills.schedule(comp, lpa);
            if (trc.active())
                trc.record(obs::EventKind::Issue, now + lat, lpa,
                           fill.id, fill.root, ReqType::PageWalk, 0, 0);
        }
        lat = cyclesSince(comp, now);
    }
    if (!wr.framePa)
        return std::nullopt;
    return lat;
}

std::optional<Addr>
MemorySystem::translate(Addr va, Cycle now, bool speculative,
                        Cycle *extra_latency)
{
    if (auto frame = dataTlb.lookup(va))
        return *frame | pageOffset(va);

    const auto lat = timedWalk(va, now, speculative);
    if (!lat)
        return std::nullopt;
    *extra_latency += *lat;
    const auto frame = dataTlb.probe(va);
    if (!frame)
        return std::nullopt;
    return *frame | pageOffset(va);
}

void
MemorySystem::noteDrop(ReqType type, unsigned depth,
                       obs::DropReason why, Addr addr, ReqId id,
                       ReqId root, unsigned hop, Cycle now)
{
    if (type == ReqType::ContentPrefetch)
        ++ctr.depthDropped[provDepthBucket(depth)];
    if (trc.active())
        trc.record(obs::EventKind::Drop, now, addr, id, root, type,
                   depth, hop, static_cast<std::uint32_t>(why));
}

void
MemorySystem::enqueuePrefetch(ReqType type, Addr vaddr, Addr line_va,
                              unsigned depth, ReqId root, unsigned hop,
                              Cycle now, bool width_line)
{
    if (type == ReqType::ContentPrefetch &&
        depth > cfg.cdp.depthThreshold)
        return; // chain terminated (Section 3.4.1)

    const ReqId id = nextReqId++;
    if (l2Arbiter.contains(line_va)) {
        ++ctr.pfDropQueued;
        noteDrop(type, depth, obs::DropReason::QueuedDup,
                 lineAlign(line_va), id, root, hop, now);
        return;
    }

    MemRequest req{};
    req.id = id;
    req.type = type;
    req.vaddr = vaddr;
    req.lineVa = lineAlign(line_va);
    req.depth = depth;
    req.root = root;
    req.hop = hop;
    req.widthLine = width_line;
    req.enqueued = now;
    if (l2Arbiter.enqueue(req) == EnqueueResult::Rejected) {
        ++ctr.pfDropArbiter;
        noteDrop(type, depth, obs::DropReason::ArbFull, req.lineVa, id,
                 root, hop, now);
        return;
    }
    if (trc.active())
        trc.record(obs::EventKind::ArbEnqueue, now, req.lineVa, id,
                   root, type, depth, hop);
}

bool
MemorySystem::issuePrefetch(MemRequest req, Cycle now)
{
    Cycle extra = 0;
    const auto pa = translate(req.lineVa, now, true, &extra);
    if (!pa) {
        ++ctr.pfDropUnmapped;
        noteDrop(req.type, req.depth, obs::DropReason::Unmapped,
                 req.lineVa, req.id, req.root, req.hop, now);
        return false;
    }
    const Addr line_pa = lineAlign(*pa);

    if (CacheLine *line = ul2.probeMutable(line_pa)) {
        ++ctr.pfDropL2Hit;
        noteDrop(req.type, req.depth, obs::DropReason::L2Hit, line_pa,
                 req.id, req.root, req.hop, now);
        // A shallower prefetch touching a deeper resident line still
        // reinforces the chain (Section 3.4.2: "any memory request").
        reinforceOnHit(*line, line_pa, req.depth, req.vaddr, now);
        return false;
    }
    if (mshrs.find(line_pa)) {
        ++ctr.pfDropInflight;
        noteDrop(req.type, req.depth, obs::DropReason::Inflight,
                 line_pa, req.id, req.root, req.hop, now);
        return false;
    }
    if (prefetchInFlight >= cfg.mem.busQueueSize) {
        ++ctr.pfDropBusFull;
        noteDrop(req.type, req.depth, obs::DropReason::BusFull,
                 line_pa, req.id, req.root, req.hop, now);
        return false;
    }

    MshrEntry e{};
    e.linePa = line_pa;
    e.lineVa = req.lineVa;
    e.vaddr = req.vaddr;
    e.type = req.type;
    e.depth = req.depth;
    e.id = req.id;
    e.root = req.root;
    e.hop = req.hop;
    e.strideOverlap = req.type == ReqType::ContentPrefetch &&
                      baselineRecentlyIssued(req.lineVa);
    e.widthLine = req.widthLine;
    e.completion = bus.service(now + extra);
    if (!mshrs.allocate(e)) {
        ++ctr.pfDropBusFull;
        noteDrop(req.type, req.depth, obs::DropReason::BusFull,
                 line_pa, req.id, req.root, req.hop, now);
        return false;
    }
    ++prefetchInFlight;
    pendingFills.schedule(e.completion, line_pa);
    if (trc.active())
        trc.record(obs::EventKind::Issue, now, line_pa, req.id,
                   req.root, req.type, req.depth, req.hop);

    if (req.type == ReqType::ContentPrefetch) {
        provChainDepth.sample(static_cast<double>(req.depth));
        ++ctr.cdpIssued;
        adaptive.noteIssued();
        if (e.strideOverlap)
            ++ctr.cdpIssuedOverlap;
    } else {
        ++ctr.strideIssued;
    }
    return true;
}

void
MemorySystem::reinforceOnHit(CacheLine &line, Addr line_pa,
                             unsigned req_depth, Addr req_vaddr,
                             Cycle now)
{
    if (!cfg.cdp.enabled || !cfg.cdp.reinforce)
        return;
    if (line.storedDepth <= req_depth)
        return;
    const bool rescan = cdp.shouldRescan(req_depth, line.storedDepth);
    const unsigned old_depth = line.storedDepth;
    line.storedDepth = static_cast<std::uint8_t>(req_depth);
    ++ctr.promotions;
    ++ctr.reinforcePromotions;
    if (trc.active())
        trc.record(obs::EventKind::Reinforce, now, line_pa,
                   line.provRoot, line.provRoot, line.fillType,
                   req_depth, 0, static_cast<std::uint32_t>(old_depth));
    if (rescan) {
        ++ctr.rescans;
        ++rescanDebt;
        scanAndEnqueue(line_pa, req_vaddr, req_depth, line.provRoot,
                       true, now);
    }
}

void
MemorySystem::scanAndEnqueue(Addr line_pa, Addr trigger_ea,
                             unsigned depth, ReqId root, bool is_rescan,
                             Cycle now)
{
    if (!cfg.cdp.enabled)
        return;
    std::uint8_t buf[lineBytes];
    backing.readLine(line_pa, buf);
    const std::vector<CdpCandidate> cands =
        cdp.scanFill(buf, trigger_ea, depth, is_rescan);
    if (trc.active())
        trc.record(obs::EventKind::Scan, now, line_pa, root, root,
                   ReqType::ContentPrefetch, depth, 0,
                   static_cast<std::uint32_t>(cands.size()));
    for (const CdpCandidate &c : cands) {
        enqueuePrefetch(ReqType::ContentPrefetch, c.vaddr, c.lineVa,
                        c.depth, root, c.hop, now, c.widthLine);
    }
}

void
MemorySystem::completeFill(Addr line_pa, Cycle when)
{
    MshrEntry *found = mshrs.find(line_pa);
    // Lifecycle FSM: completion events pair 1:1 with MSHR entries
    // (allocate schedules exactly one event; nothing else releases),
    // and the event must retire the transaction that scheduled it.
    CDP_CHECK(found != nullptr);
    if (!found)
        return; // stale event (entry was serviced another way)
    CDP_CHECK_MSG(found->completion == when,
                  check::dumpMshr(mshrs, "mshr"));
    const MshrEntry entry = *found;
    mshrs.release(line_pa);

    if (isPrefetch(entry.type) || entry.promoted) {
        CDP_CHECK(prefetchInFlight > 0);
        if (prefetchInFlight > 0)
            --prefetchInFlight;
    }

    // No double-fill: the line left the UL2 before its fill was
    // requested and only this path inserts, so it cannot be resident.
    CDP_CHECK_MSG(ul2.probe(line_pa) == nullptr,
                  check::dumpCacheSet(
                      ul2, check::Access::setOf(ul2, line_pa), "ul2"));

    Eviction ev;
    CacheLine &line = ul2.insert(line_pa, &ev);
    if (ev.valid && ev.prefetched)
        ++ctr.prefetchEvictedUnused;
    // Pollution attribution: a content-prefetched line displaced
    // without ever serving a demand, charged to its fill-time depth.
    if (ev.valid && ev.fillType == ReqType::ContentPrefetch &&
        !ev.everUsed) {
        ++ctr.depthPolluting[provDepthBucket(ev.fillDepth)];
    }

    line.prefetched = isPrefetch(entry.type);
    line.fillType = entry.type;
    line.storedDepth =
        static_cast<std::uint8_t>(std::min(entry.depth, 255u));
    line.fillDepth =
        static_cast<std::uint8_t>(std::min(entry.depth, 255u));
    line.provRoot = entry.root;
    line.fillCycle = when;
    line.strideOverlap = entry.strideOverlap;
    line.everUsed = !isPrefetch(entry.type) &&
                    entry.type != ReqType::PageWalk;

    if (trc.active())
        trc.record(obs::EventKind::Fill, when, line_pa, entry.id,
                   entry.root, entry.type, entry.depth, entry.hop);

    if ((entry.type == ReqType::DemandLoad ||
         entry.type == ReqType::DemandStore) &&
        !entry.pollution) {
        dl1.insert(entry.lineVa);
    }

    if (entry.pollution)
        return;
    if (entry.type == ReqType::PageWalk && !cfg.cdp.scanPageWalkFills)
        return; // Section 3.5: page-walk traffic bypasses the scanner
    if (entry.widthLine && !cfg.cdp.scanWidthFills)
        return; // width fills pull in node payload, not chain links
    scanAndEnqueue(line_pa, entry.vaddr, entry.depth, entry.root,
                   false, when);
}

std::vector<Addr>
MemorySystem::baselineObserve(Addr pc, Addr vaddr)
{
    if (nextline)
        return nextline->observeMiss(pc, vaddr);
    return stride.observeMiss(pc, vaddr);
}

bool
MemorySystem::baselineRecentlyIssued(Addr line_va) const
{
    if (nextline)
        return nextline->recentlyIssued(line_va);
    return stride.recentlyIssued(line_va);
}

void
MemorySystem::maybeInjectPollution(Cycle now)
{
    if (!bus.freeAt(now))
        return;
    // Inject on a fraction of idle opportunities; advance() is not
    // called every cycle, so firing on every call would overshoot
    // the paper's "every idle bus cycle" rate substantially.
    if (!pollutionRng.chance(0.3))
        return;
    const Addr line_pa =
        lineAlign(static_cast<Addr>(pollutionRng.below(pollutionSpan)));
    if (ul2.probe(line_pa) || mshrs.find(line_pa))
        return;

    MshrEntry e{};
    e.linePa = line_pa;
    e.type = ReqType::ContentPrefetch;
    e.depth = cfg.cdp.depthThreshold; // never scanned
    e.id = nextReqId++;
    e.root = 0; // injected noise has no provenance root
    e.pollution = true;
    e.completion = bus.service(now);
    if (mshrs.allocate(e)) {
        ++prefetchInFlight;
        pendingFills.schedule(e.completion, line_pa);
        ++ctr.pollutionInjected;
        if (trc.active())
            trc.record(obs::EventKind::Issue, now, line_pa, e.id,
                       e.root, e.type, e.depth, 0);
    }
}

Cycle
MemorySystem::load(Addr pc, Addr vaddr, Cycle now, bool /*pointer_load*/)
{
    advance(now);
    ++ctr.demandLoads;

    if (dl1.lookup(vaddr)) {
        loadLatency.sample(static_cast<double>(cfg.mem.l1Latency));
        return now + cfg.mem.l1Latency;
    }
    ++ctr.l1Misses;

    // Every DL1 miss gets a fresh transaction id up front: it is the
    // provenance root of everything it spawns (its stride prefetches
    // and, on an L2 miss, its own fill).
    const ReqId demandId = nextReqId++;
    if (trc.active())
        trc.record(obs::EventKind::DemandMiss, now, lineAlign(vaddr),
                   demandId, demandId, ReqType::DemandLoad, 0, 0);

    // The baseline prefetcher monitors the L1 miss stream (Fig. 6).
    bool stride_fired = false;
    if (cfg.stride.enabled) {
        unsigned hop = 0;
        for (Addr p : baselineObserve(pc, vaddr)) {
            stride_fired = true;
            enqueuePrefetch(ReqType::StridePrefetch, p, lineAlign(p), 1,
                            demandId, hop++, now);
        }
    }

    Cycle extra = 0;
    const auto pa = translate(vaddr, now, false, &extra);
    if (!pa)
        throw std::runtime_error("demand load to unmapped VA");
    const Addr line_pa = lineAlign(*pa);
    const Addr line_va = lineAlign(vaddr);
    const Cycle t0 = now + extra + 1; // one cycle of L2 queueing

    ++ctr.l2DemandAccesses;
    if (CacheLine *line = ul2.lookup(line_pa)) {
        if (line->prefetched && !line->everUsed) {
            // First demand touch of a prefetched line: fully masked.
            if (now > line->fillCycle)
                prefetchLead.sample(static_cast<double>(
                    cyclesSince(now, line->fillCycle)));
            if (line->fillType == ReqType::ContentPrefetch) {
                ++ctr.maskFullCdp;
                ++ctr.cdpUseful;
                ++ctr.depthAccurate[provDepthBucket(line->fillDepth)];
                adaptive.noteUseful();
                if (line->strideOverlap)
                    ++ctr.cdpUsefulOverlap;
            } else {
                ++ctr.maskFullStride;
                ++ctr.strideUseful;
            }
        }
        line->everUsed = true;
        reinforceOnHit(*line, line_pa, 0, vaddr, now);
        dl1.insert(line_va);
        loadLatency.sample(static_cast<double>(
            cyclesSince(t0 + cfg.mem.l2Latency, now)));
        return t0 + cfg.mem.l2Latency;
    }

    // L2 miss: check in-flight transactions first.
    if (const MshrEntry *e = mshrs.find(line_pa)) {
        const Cycle inflight_done = e->completion;
        if (isPrefetch(e->type)) {
            const bool is_cdp = e->type == ReqType::ContentPrefetch;
            const bool overlap = e->strideOverlap;
            if (is_cdp)
                ++ctr.depthLate[provDepthBucket(e->depth)];
            if (trc.active())
                trc.record(obs::EventKind::Promote, now, line_pa,
                           e->id, e->root, e->type, e->depth, e->hop,
                           static_cast<std::uint32_t>(demandId));
            mshrs.promote(line_pa, 0, vaddr);
            // Promotion must have moved the entry to demand class.
            CDP_CHECK_MSG(!isPrefetch(mshrs.find(line_pa)->type),
                          check::dumpMshr(mshrs, "mshr"));
            if (is_cdp) {
                ++ctr.maskPartialCdp;
                ++ctr.cdpUseful;
                adaptive.noteUseful();
                if (overlap)
                    ++ctr.cdpUsefulOverlap;
            } else {
                ++ctr.maskPartialStride;
                ++ctr.strideUseful;
            }
        } else {
            // Merge with an in-flight demand (secondary miss).
            if (trc.active())
                trc.record(obs::EventKind::Merge, now, line_pa, e->id,
                           e->root, e->type, e->depth, e->hop,
                           static_cast<std::uint32_t>(demandId));
        }
        const Cycle done = std::max(inflight_done,
                                    t0 + cfg.mem.l2Latency);
        loadLatency.sample(static_cast<double>(cyclesSince(done, now)));
        return done;
    }

    // A queued-but-unstarted prefetch for this line is promoted to
    // the demand's priority and issued right now as the demand.
    if (auto queued = l2Arbiter.extractPrefetch(line_va)) {
        ++ctr.promotions;
        if (trc.active())
            trc.record(obs::EventKind::Promote, now, line_va,
                       queued->id, queued->root, queued->type,
                       queued->depth, queued->hop,
                       static_cast<std::uint32_t>(demandId));
    }

    ++ctr.l2DemandMisses;

    // The Markov prefetcher observes the L2 miss stream but is
    // blocked whenever the stride prefetcher fired (Section 5).
    if (markov && !stride_fired) {
        unsigned hop = 0;
        for (Addr p : markov->observeMiss(pc, vaddr)) {
            enqueuePrefetch(ReqType::StridePrefetch, p, lineAlign(p), 1,
                            demandId, hop++, now);
        }
    }

    const Cycle comp = bus.service(t0);
    MshrEntry e{};
    e.linePa = line_pa;
    e.lineVa = line_va;
    e.vaddr = vaddr;
    e.type = ReqType::DemandLoad;
    e.id = demandId;
    e.root = demandId;
    e.completion = comp;
    if (mshrs.allocate(e)) {
        pendingFills.schedule(comp, line_pa);
        if (trc.active())
            trc.record(obs::EventKind::Issue, t0, line_pa, demandId,
                       demandId, ReqType::DemandLoad, 0, 0);
    }
    loadLatency.sample(static_cast<double>(cyclesSince(comp, now)));
    return comp;
}

Cycle
MemorySystem::store(Addr pc, Addr vaddr, Cycle now)
{
    advance(now);

    if (dl1.lookup(vaddr))
        return now + 1;
    ++ctr.l1Misses;

    const ReqId demandId = nextReqId++;
    if (trc.active())
        trc.record(obs::EventKind::DemandMiss, now, lineAlign(vaddr),
                   demandId, demandId, ReqType::DemandStore, 0, 0);

    if (cfg.stride.enabled) {
        unsigned hop = 0;
        for (Addr p : baselineObserve(pc, vaddr)) {
            enqueuePrefetch(ReqType::StridePrefetch, p, lineAlign(p), 1,
                            demandId, hop++, now);
        }
    }

    Cycle extra = 0;
    const auto pa = translate(vaddr, now, false, &extra);
    if (!pa)
        throw std::runtime_error("demand store to unmapped VA");
    const Addr line_pa = lineAlign(*pa);
    const Addr line_va = lineAlign(vaddr);

    if (CacheLine *line = ul2.lookup(line_pa)) {
        if (line->prefetched && !line->everUsed) {
            if (line->fillType == ReqType::ContentPrefetch) {
                ++ctr.cdpUseful;
                ++ctr.depthAccurate[provDepthBucket(line->fillDepth)];
                adaptive.noteUseful();
            } else {
                ++ctr.strideUseful;
            }
        }
        line->everUsed = true;
        reinforceOnHit(*line, line_pa, 0, vaddr, now);
        dl1.insert(line_va);
        return now + 1;
    }

    if (const MshrEntry *e = mshrs.find(line_pa)) {
        if (trc.active())
            trc.record(obs::EventKind::Merge, now, line_pa, e->id,
                       e->root, e->type, e->depth, e->hop,
                       static_cast<std::uint32_t>(demandId));
        return now + 1; // merge; store buffer hides the latency
    }

    const Cycle t0 = now + extra + 1;
    const Cycle comp = bus.service(t0);
    MshrEntry e{};
    e.linePa = line_pa;
    e.lineVa = line_va;
    e.vaddr = vaddr;
    e.type = ReqType::DemandStore;
    e.id = demandId;
    e.root = demandId;
    e.completion = comp;
    if (mshrs.allocate(e)) {
        pendingFills.schedule(comp, line_pa);
        if (trc.active())
            trc.record(obs::EventKind::Issue, t0, line_pa, demandId,
                       demandId, ReqType::DemandStore, 0, 0);
    }
    return now + 1;
}

// Single field list so save, load, and any future diff stay in sync
// (the arrays travel separately below).
#define CDP_FOR_EACH_COUNTER(X)                                        \
    X(demandLoads) X(l1Misses) X(l2DemandAccesses) X(l2DemandMisses)   \
    X(maskFullStride) X(maskPartialStride) X(maskFullCdp)              \
    X(maskPartialCdp) X(strideIssued) X(cdpIssued) X(cdpIssuedOverlap) \
    X(cdpUsefulOverlap) X(strideUseful) X(cdpUseful) X(pfDropL2Hit)    \
    X(pfDropInflight) X(pfDropQueued) X(pfDropBusFull)                 \
    X(pfDropUnmapped) X(pfDropArbiter) X(demandWalks)                  \
    X(prefetchWalks) X(promotions) X(rescans) X(reinforcePromotions)   \
    X(pollutionInjected) X(prefetchEvictedUnused)

void
MemorySystem::saveState(snap::Writer &w) const
{
    if (mshrs.size() != 0)
        throw snap::SnapshotError(
            "cannot checkpoint with " + std::to_string(mshrs.size()) +
            " in-flight MSHR fill(s) — checkpoint only at quiesce "
            "points (drainAll first)");
    if (!pendingFills.empty())
        throw snap::SnapshotError(
            "cannot checkpoint with " +
            std::to_string(pendingFills.size()) +
            " pending fill(s) — checkpoint only at quiesce points");
    if (prefetchInFlight != 0)
        throw snap::SnapshotError(
            "cannot checkpoint with " +
            std::to_string(prefetchInFlight) +
            " prefetch(es) in flight — checkpoint only at quiesce "
            "points");

    dl1.saveState(w);
    ul2.saveState(w);
    dataTlb.saveState(w);
    stride.saveState(w);
    w.boolean(nextline != nullptr);
    if (nextline)
        nextline->saveState(w);
    w.boolean(markov != nullptr);
    if (markov)
        markov->saveState(w);
    // Base (construction-time) cdp config travels ahead of the live
    // one, which the adaptive controller may have tuned: the
    // restoring side uses the base to decide whether the live config
    // applies (same machine resumed) or its own sweep override wins
    // (warm fork). The VAM itself is stateless, so the config is all
    // the content prefetcher carries.
    saveKnobs(w, cfg, isCdpKnob);
    SimConfig live;
    live.cdp = cdp.config();
    saveKnobs(w, live, isCdpKnob);
    adaptive.saveState(w);
    bus.saveState(w);
    l2Arbiter.saveState(w); // throws unless empty
    w.u64(lastDrain);
    w.u64(drainPool);
    w.u64(rescanDebt);
    w.u64(nextReqId);
    w.u64(checkTick);
    w.u64(cdpDepthHighWater);
    w.rng(pollutionRng);

#define CDP_SAVE_COUNTER(f) w.u64(ctr.f);
    CDP_FOR_EACH_COUNTER(CDP_SAVE_COUNTER)
#undef CDP_SAVE_COUNTER
    for (unsigned d = 0; d < provDepthBuckets; ++d) {
        w.u64(ctr.depthAccurate[d]);
        w.u64(ctr.depthLate[d]);
        w.u64(ctr.depthDropped[d]);
        w.u64(ctr.depthPolluting[d]);
    }
}

void
MemorySystem::loadState(snap::Reader &r)
{
    if (mshrs.size() != 0 || !pendingFills.empty() ||
        prefetchInFlight != 0)
        r.fail("restore target is not quiesced");

    dl1.loadState(r);
    ul2.loadState(r);
    dataTlb.loadState(r);
    stride.loadState(r);
    const bool hadNextline = r.boolean();
    if (hadNextline != (nextline != nullptr))
        r.fail("baseline-prefetcher mismatch: checkpoint " +
               std::string(hadNextline ? "has" : "lacks") +
               " a next-line prefetcher, this simulator " +
               std::string(nextline ? "has" : "lacks") + " one");
    if (nextline)
        nextline->loadState(r);
    const bool hadMarkov = r.boolean();
    if (hadMarkov != (markov != nullptr))
        r.fail("Markov-prefetcher mismatch: checkpoint " +
               std::string(hadMarkov ? "has" : "lacks") +
               " one, this simulator " +
               std::string(markov ? "has" : "lacks") + " one");
    if (markov)
        markov->loadState(r);
    SimConfig saved;
    loadKnobs(r, saved, isCdpKnob);
    const bool sameBase = saved.cdp == cfg.cdp;
    loadKnobs(r, saved, isCdpKnob);
    if (sameBase && saved.cdp != cdp.config())
        cdp.reconfigure(saved.cdp);
    adaptive.loadState(r);
    bus.loadState(r);
    l2Arbiter.loadState(r);
    lastDrain = r.u64();
    drainPool = r.u64();
    rescanDebt = static_cast<unsigned>(r.u64());
    nextReqId = static_cast<ReqId>(r.u64());
    checkTick = r.u64();
    // Max-merge rather than overwrite: the live machine may already
    // have configured a deeper threshold than the checkpointed one.
    cdpDepthHighWater = std::max(
        cdpDepthHighWater, static_cast<unsigned>(r.u64()));
    r.rng(pollutionRng);

#define CDP_LOAD_COUNTER(f) ctr.f = r.u64();
    CDP_FOR_EACH_COUNTER(CDP_LOAD_COUNTER)
#undef CDP_LOAD_COUNTER
    for (unsigned d = 0; d < provDepthBuckets; ++d) {
        ctr.depthAccurate[d] = r.u64();
        ctr.depthLate[d] = r.u64();
        ctr.depthDropped[d] = r.u64();
        ctr.depthPolluting[d] = r.u64();
    }
}

#undef CDP_FOR_EACH_COUNTER

} // namespace cdp
