/** @file
 * Directed tests of the full memory system (Figure 6): hit/miss
 * timing, prefetcher wiring, chaining through real memory content,
 * promotion of in-flight prefetches, path reinforcement, page-walk
 * bypass, and the pollution injector.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/memory_system.hh"
#include "snapshot/ckpt_io.hh"
#include "workloads/heap_allocator.hh"

using namespace cdp;

namespace
{

struct MemSysFixture : ::testing::Test
{
    SimConfig cfg;
    StatGroup stats;
    BackingStore store;
    FrameAllocator frames{0, 8192, true};
    PageTable pt{store, frames};
    HeapAllocator heap{store, pt, frames};
    std::unique_ptr<MemorySystem> mem;

    void
    build()
    {
        mem = std::make_unique<MemorySystem>(cfg, store, pt, &stats);
    }

    /** Allocate a chain of nodes; node[i] holds a pointer to
     *  node[i+1] at offset 8. Nodes land on distinct lines. */
    std::vector<Addr>
    buildChain(unsigned n)
    {
        std::vector<Addr> nodes;
        for (unsigned i = 0; i < n; ++i)
            nodes.push_back(heap.alloc(lineBytes, lineBytes));
        for (unsigned i = 0; i + 1 < n; ++i)
            heap.write32(nodes[i] + 8, nodes[i + 1]);
        heap.write32(nodes[n - 1] + 8, 0);
        return nodes;
    }

    /** Let all in-flight work finish. */
    void
    settle(Cycle now)
    {
        mem->drainAll(now);
        mem->advance(now + 100000);
    }

    /**
     * Advance in small steps across [from, from+span), the way the
     * core does every cycle; chained prefetches need repeated
     * advances (one fill -> scan -> issue round per pass).
     */
    void
    pump(Cycle from, Cycle span)
    {
        for (Cycle t = from; t <= from + span; t += 100)
            mem->advance(t);
    }
};

} // namespace

TEST_F(MemSysFixture, L1HitCostsL1Latency)
{
    cfg.cdp.enabled = false;
    build();
    const Addr va = heap.alloc(64, 64);
    const Cycle first = mem->load(0x400, va, 0, false);
    settle(first);
    const Cycle hit = mem->load(0x400, va, first + 1000, false);
    EXPECT_EQ(hit, first + 1000 + cfg.mem.l1Latency);
}

TEST_F(MemSysFixture, ColdMissPaysBusLatency)
{
    cfg.cdp.enabled = false;
    build();
    const Addr va = heap.alloc(64, 64);
    const Cycle done = mem->load(0x400, va, 0, false);
    // Walk (2 bus accesses on a cold page table) + fill.
    EXPECT_GE(done, cfg.mem.busLatency);
    EXPECT_LT(done, 4 * cfg.mem.busLatency + 200);
}

TEST_F(MemSysFixture, L2HitAfterL1Eviction)
{
    cfg.cdp.enabled = false;
    build();
    const Addr va = heap.alloc(64, 64);
    Cycle t = mem->load(0x400, va, 0, false);
    settle(t);
    // Blow the L1 (32 KB) with 1024 distinct lines, keeping L2 warm.
    for (unsigned i = 0; i < 1024; ++i) {
        const Addr filler = heap.alloc(64, 64);
        t = std::max(t, mem->load(0x500, filler, t + 1, false));
        settle(t);
    }
    const Cycle start = t + 10000;
    const Cycle done = mem->load(0x400, va, start, false);
    // Not an L1 hit, far cheaper than memory.
    EXPECT_GT(done, start + cfg.mem.l1Latency);
    EXPECT_LE(done, start + cfg.mem.l2Latency + 10);
}

TEST_F(MemSysFixture, SecondDemandToSameLineMerges)
{
    cfg.cdp.enabled = false;
    build();
    const Addr va = heap.alloc(64, 64);
    const Cycle d1 = mem->load(0x400, va, 0, false);
    const Cycle d2 = mem->load(0x404, va + 8, 1, false);
    EXPECT_LE(d2, d1); // merged: no second bus trip
    EXPECT_EQ(mem->counters().l2DemandMisses, 1u);
}

TEST_F(MemSysFixture, StrideCoversStream)
{
    cfg.cdp.enabled = false;
    build();
    // Touch a long stream; the stride prefetcher should mask many of
    // the later misses.
    Addr base = heap.alloc(256 * lineBytes, lineBytes);
    Cycle now = 0;
    for (unsigned i = 0; i < 256; ++i) {
        now = mem->load(0x400, base + i * lineBytes, now + 50, false);
        mem->advance(now + 400);
    }
    settle(now);
    const auto &c = mem->counters();
    EXPECT_GT(c.strideIssued, 50u);
    EXPECT_GT(c.maskFullStride + c.maskPartialStride, 20u);
}

TEST_F(MemSysFixture, ContentPrefetcherChainsThroughRealPointers)
{
    cfg.cdp.nextLines = 0;
    build();
    const auto nodes = buildChain(8);
    // Demand-load the first node, then give the prefetcher time.
    Cycle now = mem->load(0x400, nodes[0] + 8, 0, true);
    pump(now, 20000);
    const auto &c = mem->counters();
    // The chain should have prefetched several successors (depth 3
    // threshold bounds the initial burst).
    EXPECT_GE(c.cdpIssued, 2u);
    // The successor lines must now be resident or in flight.
    unsigned covered = 0;
    for (unsigned i = 1; i <= 3; ++i) {
        const auto pa = pt.translate(nodes[i]);
        ASSERT_TRUE(pa.has_value());
        covered += mem->l2().probe(*pa) != nullptr ? 1 : 0;
    }
    EXPECT_GE(covered, 2u);
}

TEST_F(MemSysFixture, DepthTagsStoredInCache)
{
    cfg.cdp.nextLines = 0;
    build();
    const auto nodes = buildChain(8);
    const Cycle t = mem->load(0x400, nodes[0] + 8, 0, true);
    pump(t, 20000);
    const auto pa1 = pt.translate(nodes[1]);
    const CacheLine *l1 = mem->l2().probe(*pa1);
    ASSERT_NE(l1, nullptr);
    EXPECT_TRUE(l1->prefetched);
    EXPECT_EQ(l1->fillType, ReqType::ContentPrefetch);
    EXPECT_EQ(l1->storedDepth, 1u);
    const auto pa2 = pt.translate(nodes[2]);
    const CacheLine *l2 = mem->l2().probe(*pa2);
    ASSERT_NE(l2, nullptr);
    EXPECT_EQ(l2->storedDepth, 2u);
}

TEST_F(MemSysFixture, ChainStopsAtDepthThreshold)
{
    cfg.cdp.nextLines = 0;
    cfg.cdp.reinforce = false;
    cfg.cdp.depthThreshold = 3;
    build();
    const auto nodes = buildChain(10);
    const Cycle t = mem->load(0x400, nodes[0] + 8, 0, true);
    pump(t, 100000);
    // Nodes 1..3 fetched; node 4 requires scanning a depth-3 fill,
    // which the threshold forbids.
    const auto pa4 = pt.translate(nodes[4]);
    EXPECT_EQ(mem->l2().probe(*pa4), nullptr);
    EXPECT_EQ(mem->counters().cdpIssued, 3u);
}

TEST_F(MemSysFixture, ReinforcementExtendsChainOnDemandHit)
{
    cfg.cdp.nextLines = 0;
    cfg.cdp.reinforce = true;
    cfg.cdp.reinforceMinDelta = 1;
    cfg.cdp.depthThreshold = 3;
    build();
    const auto nodes = buildChain(10);
    Cycle now = mem->load(0x400, nodes[0] + 8, 0, true);
    pump(now, 100000);
    // Demand hit on node 1 (stored depth 1) promotes and rescans,
    // extending the chain to node 4.
    now += 100000;
    now = mem->load(0x400, nodes[1] + 8, now, true);
    pump(now, 100000);
    const auto &c = mem->counters();
    EXPECT_GE(c.promotions, 1u);
    EXPECT_GE(c.rescans, 1u);
    const auto pa4 = pt.translate(nodes[4]);
    EXPECT_NE(mem->l2().probe(*pa4), nullptr);
    // And the hit line's stored depth was promoted to 0.
    const auto pa1 = pt.translate(nodes[1]);
    EXPECT_EQ(mem->l2().probe(*pa1)->storedDepth, 0u);
}

TEST_F(MemSysFixture, NoReinforcementMeansNoRescans)
{
    cfg.cdp.nextLines = 0;
    cfg.cdp.reinforce = false;
    build();
    const auto nodes = buildChain(10);
    Cycle now = mem->load(0x400, nodes[0] + 8, 0, true);
    pump(now, 100000);
    now = mem->load(0x400, nodes[1] + 8, now + 100000, true);
    pump(now, 100000);
    EXPECT_EQ(mem->counters().rescans, 0u);
    const auto pa4 = pt.translate(nodes[4]);
    EXPECT_EQ(mem->l2().probe(*pa4), nullptr);
}

TEST_F(MemSysFixture, RescanThrottleDeltaTwo)
{
    // Figure 4(c): with min delta 2, a hit on a depth-1 line promotes
    // without rescanning.
    cfg.cdp.nextLines = 0;
    cfg.cdp.reinforceMinDelta = 2;
    build();
    const auto nodes = buildChain(10);
    Cycle now = mem->load(0x400, nodes[0] + 8, 0, true);
    pump(now, 100000);
    now = mem->load(0x400, nodes[1] + 8, now + 100000, true);
    pump(now, 100000);
    EXPECT_EQ(mem->counters().rescans, 0u);
    EXPECT_GE(mem->counters().promotions, 1u);
}

TEST_F(MemSysFixture, DemandPromotesInflightPrefetch)
{
    cfg.cdp.nextLines = 0;
    build();
    const auto nodes = buildChain(4);
    const Cycle t0 = mem->load(0x400, nodes[0] + 8, 0, true);
    // Let the fill complete and the chain prefetch get onto the bus,
    // then demand node 1 while its prefetch is still in flight.
    mem->advance(t0 + 10);
    const Cycle t1 = mem->load(0x404, nodes[1] + 8, t0 + 10, true);
    mem->advance(t1 + 100000);
    const auto &c = mem->counters();
    EXPECT_EQ(c.maskPartialCdp, 1u);
    EXPECT_EQ(c.cdpUseful, 1u);
    // The demand completed no later than a fresh miss would have.
    EXPECT_LE(t1, t0 + 10 + 2 * cfg.mem.busLatency);
}

TEST_F(MemSysFixture, FullMaskCountedOnDemandHitOfPrefetchedLine)
{
    cfg.cdp.nextLines = 0;
    build();
    const auto nodes = buildChain(4);
    Cycle now = mem->load(0x400, nodes[0] + 8, 0, true);
    pump(now, 100000); // prefetch of node 1 completes
    now = mem->load(0x404, nodes[1] + 8, now + 100000, true);
    EXPECT_EQ(mem->counters().maskFullCdp, 1u);
    EXPECT_EQ(mem->counters().cdpUseful, 1u);
}

TEST_F(MemSysFixture, WidthLinesFetchedButNotScanned)
{
    cfg.cdp.nextLines = 2;
    build();
    // One node whose pointer targets an isolated node; the width
    // lines beyond the target contain further pointers which must
    // NOT be chased (width fills are not chain-scanned).
    const Addr a = heap.alloc(lineBytes, lineBytes);
    const Addr b = heap.alloc(lineBytes, lineBytes); // b = target
    const Addr b1 = heap.alloc(lineBytes, lineBytes); // width line
    heap.alloc(8 * lineBytes, lineBytes); // gap: keep far outside
    const Addr far = heap.alloc(lineBytes, lineBytes);
    heap.write32(a + 8, b);
    heap.write32(b1 + 8, far); // pointer inside a width line
    const Cycle t = mem->load(0x400, a + 8, 0, true);
    pump(t, 200000);
    // b and b+64 fetched...
    EXPECT_NE(mem->l2().probe(*pt.translate(b)), nullptr);
    EXPECT_NE(mem->l2().probe(*pt.translate(b1)), nullptr);
    // ...but far was not chased out of the width line.
    EXPECT_EQ(mem->l2().probe(*pt.translate(far)), nullptr);
}

TEST_F(MemSysFixture, ScanWidthFillsAblationChasesWidthContent)
{
    cfg.cdp.nextLines = 2;
    cfg.cdp.scanWidthFills = true;
    build();
    const Addr a = heap.alloc(lineBytes, lineBytes);
    const Addr b = heap.alloc(lineBytes, lineBytes);
    const Addr b1 = heap.alloc(lineBytes, lineBytes);
    heap.alloc(8 * lineBytes, lineBytes); // gap: keep far outside
    const Addr far = heap.alloc(lineBytes, lineBytes);
    heap.write32(a + 8, b);
    heap.write32(b1 + 8, far);
    const Cycle t = mem->load(0x400, a + 8, 0, true);
    pump(t, 200000);
    EXPECT_NE(mem->l2().probe(*pt.translate(far)), nullptr);
}

TEST_F(MemSysFixture, PageWalkFillsAreNotScanned)
{
    // Page-table lines are full of frame pointers; scanning them
    // would explode (Section 3.5). Verify no content prefetch is
    // triggered by pure walk traffic.
    cfg.stride.enabled = false;
    build();
    // Map many pages and touch one VA per page: every access walks.
    const Addr va = heap.alloc(64, 64);
    const Cycle t = mem->load(0x400, va, 0, false);
    pump(t, 100000);
    const auto &c = mem->counters();
    EXPECT_GE(c.demandWalks, 1u);
    // The walk fills contain pointers into the page-table region but
    // no cdp prefetch was issued for them (heap data line had no
    // pointers either).
    EXPECT_EQ(c.cdpIssued, 0u);
}

TEST_F(MemSysFixture, SpeculativeWalksFillTlb)
{
    cfg.cdp.nextLines = 0;
    build();
    // Nodes on distinct pages, so chain prefetches need their own
    // translations (speculative page walks).
    std::vector<Addr> nodes;
    for (unsigned i = 0; i < 4; ++i)
        nodes.push_back(heap.alloc(pageBytes, pageBytes));
    for (unsigned i = 0; i + 1 < 4; ++i)
        heap.write32(nodes[i] + 8, nodes[i + 1]);
    heap.write32(nodes[3] + 8, 0);
    Cycle now = mem->load(0x400, nodes[0] + 8, 0, true);
    pump(now, 200000);
    EXPECT_GT(mem->counters().prefetchWalks, 0u);
    // The prefetched node's translation is now cached: a demand
    // lookup of that page hits the TLB.
    EXPECT_TRUE(mem->dtlb().probe(nodes[1]).has_value());
}

TEST_F(MemSysFixture, PrefetchToUnmappedTargetDropped)
{
    cfg.cdp.nextLines = 0;
    build();
    const Addr a = heap.alloc(lineBytes, lineBytes);
    // Plant a heap-looking pointer to an unmapped address.
    heap.write32(a + 8, 0x10f00000);
    const Cycle t = mem->load(0x400, a + 8, 0, true);
    pump(t, 100000);
    EXPECT_GE(mem->counters().pfDropUnmapped, 1u);
    EXPECT_EQ(mem->counters().cdpIssued, 0u);
}

TEST_F(MemSysFixture, PrefetchToResidentLineDropped)
{
    cfg.cdp.nextLines = 0;
    build();
    const Addr a = heap.alloc(lineBytes, lineBytes);
    const Addr b = heap.alloc(lineBytes, lineBytes);
    heap.write32(a + 8, b);
    heap.write32(b + 8, 0);
    // Load b first so it is resident, then scan a.
    Cycle now = mem->load(0x400, b, 0, false);
    pump(now, 100000);
    now = mem->load(0x404, a + 8, now + 100000, true);
    pump(now, 100000);
    EXPECT_GE(mem->counters().pfDropL2Hit, 1u);
    EXPECT_EQ(mem->counters().cdpIssued, 0u);
}

TEST_F(MemSysFixture, PollutionInjectorChurnsCache)
{
    cfg.cdp.enabled = false;
    cfg.pollution.enabled = true;
    build();
    const Addr va = heap.alloc(64, 64);
    Cycle now = mem->load(0x400, va, 0, false);
    // Idle bus time lets the injector shovel bad lines into the UL2.
    for (int i = 0; i < 100; ++i)
        mem->advance(now + i * 1000);
    EXPECT_GT(mem->counters().pollutionInjected, 10u);
    EXPECT_GT(mem->l2().residentLines(), 10u);
}

TEST_F(MemSysFixture, StoresFillCacheWithoutBlocking)
{
    cfg.cdp.enabled = false;
    build();
    const Addr va = heap.alloc(64, 64);
    const Cycle done = mem->store(0x400, va, 0);
    EXPECT_EQ(done, 1u); // store buffer hides the fill
    mem->advance(500000);
    EXPECT_NE(mem->l2().probe(*pt.translate(va)), nullptr);
}

TEST_F(MemSysFixture, CountersResetCleanly)
{
    build();
    const Addr va = heap.alloc(64, 64);
    mem->load(0x400, va, 0, false);
    EXPECT_GT(mem->counters().demandLoads, 0u);
    mem->resetCounters();
    EXPECT_EQ(mem->counters().demandLoads, 0u);
    EXPECT_EQ(mem->counters().l2DemandMisses, 0u);
}

TEST_F(MemSysFixture, RestoreRefusesADifferentPrefetcherList)
{
    // MSYS carries the miss-stream prefetcher count and each name
    // ahead of its state; a machine built with another list refuses
    // the checkpoint, naming both sides.
    build(); // stride only (the default)
    std::ostringstream os;
    snap::Writer w(os);
    w.beginSection("MSYS");
    mem->saveState(w);
    w.endSection();
    w.finish();

    const auto restoreError = [&](const SimConfig &c) -> std::string {
        StatGroup group;
        MemorySystem other(c, store, pt, &group);
        std::istringstream is(os.str());
        snap::Reader r(is);
        r.enterSection("MSYS");
        try {
            other.loadState(r);
        } catch (const snap::SnapshotError &e) {
            return e.what();
        }
        return "";
    };

    EXPECT_EQ(restoreError(cfg), "");

    SimConfig nextline = cfg;
    nextline.stride.policy = "nextline";
    EXPECT_NE(restoreError(nextline).find(
                  "miss-stream prefetcher mismatch: checkpoint has "
                  "'stride', this simulator has 'nextline'"),
              std::string::npos)
        << restoreError(nextline);

    SimConfig markovOnly = cfg;
    markovOnly.stride.enabled = false;
    markovOnly.markov.enabled = true;
    EXPECT_NE(restoreError(markovOnly).find(
                  "checkpoint has 'stride', this simulator has 'markov'"),
              std::string::npos)
        << restoreError(markovOnly);

    SimConfig both = cfg;
    both.markov.enabled = true;
    EXPECT_NE(restoreError(both).find(
                  "miss-stream prefetchers mismatch: checkpoint has 1, "
                  "this simulator has 2"),
              std::string::npos)
        << restoreError(both);
}
