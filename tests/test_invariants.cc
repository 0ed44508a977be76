/**
 * @file
 * Tests for the invariant-checker subsystem (src/check).
 *
 * Two halves:
 *  - positive: healthy components and a fully-wired simulator pass
 *    every audit;
 *  - fault injection: each class of corruption (MSHR lifecycle, depth
 *    tags, arbiter priority order, TLB backing, conservation ledger)
 *    is introduced through check::Access and the matching audit must
 *    abort. These are gtest death tests; they require a build with
 *    CDP_ENABLE_CHECKS=ON and are skipped otherwise.
 */

#include <gtest/gtest.h>

#include "check/access.hh"
#include "check/check.hh"
#include "check/invariants.hh"
#include "mem/backing_store.hh"
#include "mem/frame_allocator.hh"
#include "memsys/cache.hh"
#include "memsys/mshr.hh"
#include "memsys/queued_arbiter.hh"
#include "sim/simulator.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"

using namespace cdp;

namespace
{

MshrEntry
prefetchEntry(Addr line_pa, unsigned depth)
{
    MshrEntry e{};
    e.linePa = lineAlign(line_pa);
    e.lineVa = lineAlign(line_pa);
    e.vaddr = line_pa;
    e.type = ReqType::ContentPrefetch;
    e.depth = depth;
    e.completion = 500;
    return e;
}

MemRequest
request(ReqType type, Addr line_va, ReqId id)
{
    MemRequest r{};
    r.id = id;
    r.type = type;
    r.vaddr = line_va;
    r.lineVa = lineAlign(line_va);
    r.depth = isPrefetch(type) ? 1 : 0;
    return r;
}

/** Skip the current test unless invariant checking is compiled in. */
#define REQUIRE_CHECKED_BUILD()                                         \
    do {                                                                \
        if (!CDP_CHECKS_ENABLED)                                        \
            GTEST_SKIP()                                                \
                << "build has CDP_ENABLE_CHECKS off; death tests "      \
                   "need a checked build";                              \
    } while (false)

} // namespace

// ---------------------------------------------------------------------
// Positive: audits pass on healthy state.
// ---------------------------------------------------------------------

TEST(Invariants, HealthyComponentsPass)
{
    Cache cache(32 * 1024, 8);
    cache.insert(0x1000);
    cache.insert(0x2000);
    check::auditCache(cache, 3, "cache");

    MshrFile mshrs(8);
    ASSERT_TRUE(mshrs.allocate(prefetchEntry(0x4000, 2)));
    check::auditMshr(mshrs, 3, "mshr");

    QueuedArbiter arb(16);
    arb.enqueue(request(ReqType::DemandLoad, 0x1000, 1));
    arb.enqueue(request(ReqType::StridePrefetch, 0x2000, 2));
    arb.enqueue(request(ReqType::ContentPrefetch, 0x3000, 3));
    check::auditArbiter(arb, "arb");

    BackingStore store;
    FrameAllocator frames(0, 256, /*scatter=*/false);
    PageTable pt(store, frames);
    pt.map(0x10000000, 0x00400000);
    Tlb tlb(64, 4);
    tlb.insert(0x10000000, pageAlign(*pt.translate(0x10000000)));
    check::auditTlb(tlb, pt, "tlb");
}

TEST(Invariants, ArbiterConservationAcrossTraffic)
{
    QueuedArbiter arb(4);
    for (ReqId i = 0; i < 12; ++i) {
        // Mix of classes; overflow exercises both squash (prefetch
        // arriving full) and displacement (demand arriving full).
        const ReqType t = i % 3 == 0 ? ReqType::DemandLoad
                          : i % 3 == 1 ? ReqType::StridePrefetch
                                       : ReqType::ContentPrefetch;
        arb.enqueue(request(t, 0x1000 + 0x40 * i, i + 1));
        if (i % 4 == 3)
            (void)arb.dequeue();
    }
    (void)arb.extractPrefetch(0x1000 + 0x40 * 10);
    check::auditArbiter(arb, "arb");
    while (arb.dequeue())
        check::auditArbiter(arb, "arb");
}

TEST(Invariants, EndToEndSimulatorAuditPasses)
{
    SimConfig cfg;
    cfg.warmupUops = 20'000;
    cfg.measureUops = 50'000;
    Simulator sim(cfg);
    (void)sim.run(); // run()/measure() audit at every phase boundary
    sim.memory().checkInvariants();
}

// ---------------------------------------------------------------------
// Fault injection: every corruption class must abort the audit.
// ---------------------------------------------------------------------

TEST(InvariantDeath, MshrIllegalPromotionState)
{
    REQUIRE_CHECKED_BUILD();
    MshrFile mshrs(8);
    ASSERT_TRUE(mshrs.allocate(prefetchEntry(0x4000, 1)));
    // A promoted entry that is still prefetch-class is outside the
    // merge/promotion FSM (promote() reclassifies to demand).
    check::Access::entries(mshrs).find(0x4000)->promoted = true;
    EXPECT_DEATH(check::auditMshr(mshrs, 3, "mshr"), "promoted");
}

TEST(InvariantDeath, MshrLeakedEntriesBeyondCapacity)
{
    REQUIRE_CHECKED_BUILD();
    MshrFile mshrs(1);
    ASSERT_TRUE(mshrs.allocate(prefetchEntry(0x4000, 1)));
    // Inject a second entry behind the allocator's back: occupancy
    // now exceeds the hardware's register count.
    auto leaked = prefetchEntry(0x8000, 1);
    check::Access::entries(mshrs).emplace(leaked.linePa, leaked);
    EXPECT_DEATH(check::auditMshr(mshrs, 3, "mshr"), "capacity");
}

TEST(InvariantDeath, MshrContentChainDepthOverrun)
{
    REQUIRE_CHECKED_BUILD();
    MshrFile mshrs(8);
    ASSERT_TRUE(mshrs.allocate(prefetchEntry(0x4000, 9)));
    EXPECT_DEATH(check::auditMshr(mshrs, 3, "mshr"), "depth");
}

TEST(InvariantDeath, CacheDepthTagExceedsThreshold)
{
    REQUIRE_CHECKED_BUILD();
    Cache cache(32 * 1024, 8);
    cache.insert(0x1000);
    for (auto &l : check::Access::lines(cache)) {
        if (l.valid)
            l.storedDepth = 200; // way past any configured threshold
    }
    EXPECT_DEATH(check::auditCache(cache, 3, "cache"), "storedDepth");
}

TEST(InvariantDeath, CacheDuplicateTagInSet)
{
    REQUIRE_CHECKED_BUILD();
    Cache cache(32 * 1024, 8);
    cache.insert(0x1000);
    auto &lines = check::Access::lines(cache);
    const unsigned set = check::Access::setOf(cache, 0x1000);
    auto *base = &lines[static_cast<std::size_t>(set) * cache.numWays()];
    base[1] = base[0]; // two ways now claim the same line
    base[1].lruStamp = base[0].lruStamp ? base[0].lruStamp - 1 : 1;
    EXPECT_DEATH(check::auditCache(cache, 3, "cache"), "tag");
}

TEST(InvariantDeath, CacheLruStampAheadOfGlobalClock)
{
    REQUIRE_CHECKED_BUILD();
    Cache cache(32 * 1024, 8);
    cache.insert(0x1000);
    for (auto &l : check::Access::lines(cache)) {
        if (l.valid)
            l.lruStamp = check::Access::lruStamp(cache) + 100;
    }
    EXPECT_DEATH(check::auditCache(cache, 3, "cache"), "lruStamp");
}

TEST(InvariantDeath, ArbiterPriorityOrderViolated)
{
    REQUIRE_CHECKED_BUILD();
    QueuedArbiter arb(16);
    arb.enqueue(request(ReqType::DemandLoad, 0x1000, 1));
    arb.enqueue(request(ReqType::ContentPrefetch, 0x2000, 2));
    // Reorder: the demand is moved into the content-prefetch class,
    // so it would be served behind speculative traffic.
    auto &demands = check::Access::classQueue(arb, 0);
    auto &contents = check::Access::classQueue(arb, 2);
    contents.push_back(demands.front());
    demands.pop_front();
    EXPECT_DEATH(check::auditArbiter(arb, "arb"), "priority");
}

TEST(InvariantDeath, ArbiterQueueConservationBroken)
{
    REQUIRE_CHECKED_BUILD();
    QueuedArbiter arb(16);
    arb.enqueue(request(ReqType::DemandLoad, 0x1000, 1));
    arb.enqueue(request(ReqType::StridePrefetch, 0x2000, 2));
    // Vanish a request without going through dequeue/displace/extract:
    // the conservation ledger can no longer balance.
    check::Access::classQueue(arb, 1).pop_back();
    check::Access::totalRef(arb) -= 1;
    EXPECT_DEATH(check::auditArbiter(arb, "arb"), "enqueuedCount");
}

TEST(InvariantDeath, TlbEntryWithoutPageTableBacking)
{
    REQUIRE_CHECKED_BUILD();
    BackingStore store;
    FrameAllocator frames(0, 256, /*scatter=*/false);
    PageTable pt(store, frames);
    pt.map(0x10000000, 0x00400000);
    Tlb tlb(64, 4);
    // Fabricate a translation for a page the table never mapped.
    check::Access::corruptTlbEntry(tlb, 0,
                                   pageNumber(0x30000000), 0x00700000);
    EXPECT_DEATH(check::auditTlb(tlb, pt, "tlb"), "has_value");
}

TEST(InvariantDeath, CycleArithmeticUnderflow)
{
    REQUIRE_CHECKED_BUILD();
    // The typed helper must refuse a reversed subtraction instead of
    // producing a ~2^64-cycle latency.
    EXPECT_DEATH((void)cyclesSince(10, 20), "now >= then");
    EXPECT_DEATH((void)cyclesUntil(10, 20), "deadline >= now");
}
