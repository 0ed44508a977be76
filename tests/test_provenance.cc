/** @file
 * Directed tests of the provenance/observability layer: chain-depth
 * bounds, provenance survival across MSHR merge and promotion,
 * reinforcement-promotion accounting, per-depth attribution, the
 * tracer ring buffer, and the pure-observer guarantee (tracing never
 * changes statistics).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "sim/memory_system.hh"
#include "sim/simulator.hh"
#include "workloads/heap_allocator.hh"

using namespace cdp;

namespace
{

struct ProvFixture : ::testing::Test
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
        cfg.trace.enabled = true;
        cfg.trace.bufferEvents = 1u << 18;
        mem = std::make_unique<MemorySystem>(cfg, store, pt, &stats);
        if (!mem->tracer().active())
            GTEST_SKIP() << "tracer compiled out (CDP_ENABLE_TRACE=OFF)";
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

    void
    pump(Cycle from, Cycle span)
    {
        for (Cycle t = from; t <= from + span; t += 100)
            mem->advance(t);
    }

    std::vector<obs::TraceEvent>
    eventsOfKind(obs::EventKind k) const
    {
        std::vector<obs::TraceEvent> out;
        for (const obs::TraceEvent &e : mem->tracer().snapshot())
            if (e.kindOf() == k)
                out.push_back(e);
        return out;
    }
};

} // namespace

TEST_F(ProvFixture, ContentChainDepthNeverExceedsThreshold)
{
    cfg.cdp.nextLines = 0;
    cfg.cdp.depthThreshold = 3;
    build();
    const auto nodes = buildChain(10);
    const Cycle t = mem->load(0x400, nodes[0] + 8, 0, true);
    pump(t, 200000);

    unsigned content_events = 0;
    for (const obs::TraceEvent &e : mem->tracer().snapshot()) {
        if (e.typeOf() != ReqType::ContentPrefetch)
            continue;
        ++content_events;
        EXPECT_LE(e.depth, cfg.cdp.depthThreshold)
            << eventKindName(e.kindOf());
        if (e.kindOf() == obs::EventKind::Issue ||
            e.kindOf() == obs::EventKind::ArbEnqueue) {
            EXPECT_GE(e.depth, 1u);
        }
    }
    EXPECT_GT(content_events, 0u);
    // Nothing was ever attributed above the threshold either.
    const auto &c = mem->counters();
    for (unsigned d = cfg.cdp.depthThreshold + 1; d < provDepthBuckets;
         ++d) {
        EXPECT_EQ(c.depthAccurate[d], 0u) << d;
        EXPECT_EQ(c.depthDropped[d], 0u) << d;
    }
}

TEST_F(ProvFixture, WholeChainSharesTheRootDemandId)
{
    cfg.cdp.nextLines = 0;
    cfg.stride.enabled = false; // isolate the content chain
    build();
    const auto nodes = buildChain(8);
    const Cycle t = mem->load(0x400, nodes[0] + 8, 0, true);
    pump(t, 200000);

    const auto misses = eventsOfKind(obs::EventKind::DemandMiss);
    ASSERT_EQ(misses.size(), 1u);
    const ReqId root = misses[0].id;
    EXPECT_EQ(misses[0].root, root); // a demand is its own root

    unsigned content_issues = 0;
    for (const obs::TraceEvent &e : mem->tracer().snapshot()) {
        if (e.typeOf() != ReqType::ContentPrefetch)
            continue;
        EXPECT_EQ(e.root, root) << eventKindName(e.kindOf());
        content_issues += e.kindOf() == obs::EventKind::Issue;
    }
    EXPECT_GE(content_issues, 2u);
}

TEST_F(ProvFixture, EveryIssueFillsExactlyOnceAfterDrain)
{
    cfg.cdp.nextLines = 1;
    build();
    const auto nodes = buildChain(8);
    Cycle now = mem->load(0x400, nodes[0] + 8, 0, true);
    now = mem->load(0x404, nodes[3] + 8, now + 200, true);
    mem->drainAll(now);

    const auto issues = eventsOfKind(obs::EventKind::Issue);
    const auto fills = eventsOfKind(obs::EventKind::Fill);
    ASSERT_EQ(mem->tracer().dropped(), 0u);
    ASSERT_EQ(issues.size(), fills.size());
    for (const obs::TraceEvent &is : issues) {
        unsigned matches = 0;
        for (const obs::TraceEvent &f : fills) {
            if (f.id != is.id)
                continue;
            ++matches;
            EXPECT_GE(f.cycle, is.cycle);
            EXPECT_EQ(f.root, is.root);
        }
        EXPECT_EQ(matches, 1u) << "issue id " << is.id;
    }
}

TEST_F(ProvFixture, ProvenanceSurvivesInflightPromotion)
{
    cfg.cdp.nextLines = 0;
    build();
    const auto nodes = buildChain(4);
    const Cycle t0 = mem->load(0x400, nodes[0] + 8, 0, true);
    mem->advance(t0 + 10);
    // Demand node 1 while its chain prefetch is still in flight.
    const Cycle t1 = mem->load(0x404, nodes[1] + 8, t0 + 10, true);
    mem->advance(t1 + 100000);
    ASSERT_EQ(mem->counters().maskPartialCdp, 1u);

    const auto misses = eventsOfKind(obs::EventKind::DemandMiss);
    ASSERT_GE(misses.size(), 2u);
    const ReqId root = misses[0].id; // the chain's root

    const auto promotes = eventsOfKind(obs::EventKind::Promote);
    ASSERT_EQ(promotes.size(), 1u);
    EXPECT_EQ(promotes[0].root, root);
    EXPECT_EQ(promotes[0].typeOf(), ReqType::ContentPrefetch);
    EXPECT_EQ(promotes[0].depth, 1u);

    // The promoted transaction's fill keeps id and root, but
    // completes at demand class.
    unsigned matched = 0;
    for (const obs::TraceEvent &f : eventsOfKind(obs::EventKind::Fill)) {
        if (f.id != promotes[0].id)
            continue;
        ++matched;
        EXPECT_EQ(f.root, root);
        EXPECT_EQ(f.typeOf(), ReqType::DemandLoad);
    }
    EXPECT_EQ(matched, 1u);
    // And the lateness was charged to the prefetch's chain depth.
    EXPECT_EQ(mem->counters().depthLate[1], 1u);
}

TEST_F(ProvFixture, ProvenanceSurvivesDemandMerge)
{
    cfg.cdp.enabled = false;
    cfg.stride.enabled = false;
    build();
    const Addr va = heap.alloc(64, 64);
    mem->load(0x400, va, 0, false);
    mem->load(0x404, va + 8, 1, false); // merges: same line in flight
    mem->drainAll(1);

    const auto misses = eventsOfKind(obs::EventKind::DemandMiss);
    ASSERT_EQ(misses.size(), 2u);
    const auto merges = eventsOfKind(obs::EventKind::Merge);
    ASSERT_EQ(merges.size(), 1u);
    // The merge is recorded against the first demand's transaction.
    EXPECT_EQ(merges[0].id, misses[0].id);
    EXPECT_EQ(merges[0].root, misses[0].id);
    // The single fill retires the first demand's id, not the second.
    std::vector<obs::TraceEvent> fills;
    for (const obs::TraceEvent &f : eventsOfKind(obs::EventKind::Fill))
        if (f.typeOf() == ReqType::DemandLoad)
            fills.push_back(f);
    ASSERT_EQ(fills.size(), 1u);
    EXPECT_EQ(fills[0].id, misses[0].id);
}

TEST_F(ProvFixture, DemandHitRecordsExactlyOneReinforcePromotion)
{
    cfg.cdp.nextLines = 0;
    cfg.cdp.reinforce = true;
    cfg.cdp.reinforceMinDelta = 2; // promote without rescanning
    cfg.cdp.depthThreshold = 3;
    build();
    const auto nodes = buildChain(10);
    Cycle now = mem->load(0x400, nodes[0] + 8, 0, true);
    pump(now, 100000);
    ASSERT_EQ(mem->counters().reinforcePromotions, 0u);

    now = mem->load(0x400, nodes[1] + 8, now + 100000, true);
    pump(now, 100000);
    const auto &c = mem->counters();
    EXPECT_EQ(c.reinforcePromotions, 1u);
    EXPECT_EQ(c.rescans, 0u); // delta 1 < 2: promotion only

    const auto reinforces = eventsOfKind(obs::EventKind::Reinforce);
    ASSERT_EQ(reinforces.size(), 1u);
    EXPECT_EQ(reinforces[0].addr, lineAlign(*pt.translate(nodes[1])));
    EXPECT_EQ(reinforces[0].aux, 1u);   // old stored depth
    EXPECT_EQ(reinforces[0].depth, 0u); // new (demand) depth
}

TEST_F(ProvFixture, FirstDemandTouchChargesAccurateAtFillDepth)
{
    cfg.cdp.nextLines = 0;
    build();
    const auto nodes = buildChain(4);
    Cycle now = mem->load(0x400, nodes[0] + 8, 0, true);
    pump(now, 100000); // prefetch of node 1 completes
    now = mem->load(0x404, nodes[1] + 8, now + 100000, true);
    const auto &c = mem->counters();
    EXPECT_EQ(c.maskFullCdp, 1u);
    EXPECT_EQ(c.depthAccurate[1], 1u);
    EXPECT_EQ(c.depthAccurate[0] + c.depthAccurate[2] +
                  c.depthAccurate[3],
              0u);
}

TEST_F(ProvFixture, RingWrapRetainsNewestAndCountsOverwrites)
{
    cfg.cdp.enabled = false;
    cfg.trace.enabled = true;
    cfg.trace.bufferEvents = 16; // build() would pick a big buffer
    mem = std::make_unique<MemorySystem>(cfg, store, pt, &stats);
    if (!mem->tracer().active())
        GTEST_SKIP() << "tracer compiled out (CDP_ENABLE_TRACE=OFF)";
    mem->tracer().clear();
    // Generate far more than 16 events via distinct demand misses.
    Cycle now = 0;
    for (unsigned i = 0; i < 64; ++i) {
        const Addr va = heap.alloc(lineBytes, lineBytes);
        now = mem->load(0x400, va, now + 1, false);
        mem->drainAll(now);
    }
    const obs::Tracer &trc = mem->tracer();
    EXPECT_EQ(trc.size(), 16u);
    EXPECT_GT(trc.dropped(), 0u);
    EXPECT_EQ(trc.recorded(), trc.size() + trc.dropped());
    // snapshot() preserves record order across the wrap point.
    const auto snap = trc.snapshot();
    ASSERT_EQ(snap.size(), 16u);
}

TEST_F(ProvFixture, DisabledTracerRecordsNothing)
{
    cfg.cdp.nextLines = 0;
    cfg.trace.enabled = false;
    mem = std::make_unique<MemorySystem>(cfg, store, pt, &stats);
    const auto nodes = buildChain(4);
    const Cycle t = mem->load(0x400, nodes[0] + 8, 0, true);
    pump(t, 100000);
    EXPECT_FALSE(mem->tracer().active());
    EXPECT_EQ(mem->tracer().recorded(), 0u);
    // ...but provenance statistics are always on.
    EXPECT_GT(mem->counters().cdpIssued, 0u);
}

TEST(ProvenanceObserver, TracingNeverChangesStatistics)
{
    SimConfig base;
    base.workload = "xbtree";
    base.warmupUops = 2'000;
    base.measureUops = 10'000;

    SimConfig traced = base;
    traced.trace.enabled = true;

    Simulator a(base), b(traced);
    const RunResult ra = a.run();
    const RunResult rb = b.run();
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.mem.cdpIssued, rb.mem.cdpIssued);
    EXPECT_EQ(ra.mem.reinforcePromotions, rb.mem.reinforcePromotions);

    std::ostringstream da, db;
    a.stats().dump(da);
    b.stats().dump(db);
    EXPECT_EQ(da.str(), db.str());
}
