/** @file
 * Directed timing tests: bus priority between demands and
 * prefetches, retroactive drain of the prefetch queue across core
 * stalls, rescan port contention, and end-of-run draining.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/memory_system.hh"
#include "workloads/heap_allocator.hh"

using namespace cdp;

namespace
{

struct TimingFixture : ::testing::Test
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
    pump(Cycle from, Cycle span, Cycle step = 100)
    {
        for (Cycle t = from; t <= from + span; t += step)
            mem->advance(t);
    }
};

} // namespace

TEST_F(TimingFixture, PrefetchNeverDelaysALaterDemandMuchBeyondOneTransfer)
{
    // Queue a chain that produces prefetches, then issue a demand to
    // an unrelated line: its completion must not be pushed out by
    // more than one in-progress transfer (strict priority means
    // queued prefetches cannot reserve the bus ahead of it).
    cfg.cdp.nextLines = 4;
    build();
    const auto nodes = buildChain(6);
    const Addr unrelated = heap.alloc(lineBytes, lineBytes);

    // Warm the page tables so walk time doesn't blur the bound.
    Cycle t = mem->load(0x400, unrelated, 0, false);
    pump(t, 50000);
    t += 50000;
    // Kick the chain (enqueues several prefetches)...
    const Cycle c1 = mem->load(0x404, nodes[0] + 8, t, true);
    // ...and immediately demand another line.
    const Addr unrelated2 = heap.alloc(lineBytes, lineBytes);
    heap.ensureMapped(unrelated2, lineBytes);
    const Cycle c2 = mem->load(0x408, unrelated2, t + 1, false);
    // A clean miss takes walk + bus latency; allow one extra bus
    // occupancy for an in-progress prefetch transfer, plus walk
    // traffic of this access itself.
    EXPECT_LE(c2, t + 1 + 3 * cfg.mem.busLatency +
                      2 * cfg.mem.busOccupancy);
    (void)c1;
}

TEST_F(TimingFixture, RetroactiveDrainIssuesDuringCoreStalls)
{
    // Enqueue chain prefetches at time T, then jump far ahead as a
    // stalled core would: the prefetches must have been issued *and
    // completed* inside the skipped window.
    cfg.cdp.nextLines = 0;
    build();
    const auto nodes = buildChain(4);
    const Cycle t = mem->load(0x400, nodes[0] + 8, 0, true);
    // One giant skip: fills, scans, chained issues, and their fills
    // all lie inside the window.
    mem->advance(t + 50'000);
    mem->advance(t + 100'000);
    mem->advance(t + 150'000);
    EXPECT_GE(mem->counters().cdpIssued, 2u);
    const auto pa1 = pt.translate(nodes[1]);
    EXPECT_NE(mem->l2().probe(*pa1), nullptr);
}

TEST_F(TimingFixture, DrainAllLeavesNothingInFlight)
{
    cfg.cdp.nextLines = 2;
    build();
    const auto nodes = buildChain(8);
    const Cycle t = mem->load(0x400, nodes[0] + 8, 0, true);
    mem->drainAll(t);
    // After drainAll, another demand to the chained node must be a
    // clean hit or miss -- no stale in-flight state. Just verify the
    // next access completes sanely.
    const Cycle done =
        mem->load(0x404, nodes[1] + 8, t + 1'000'000, true);
    EXPECT_GT(done, t + 1'000'000);
    EXPECT_LT(done, t + 1'000'000 + 3 * cfg.mem.busLatency);
}

TEST_F(TimingFixture, RescansConsumeDrainSlots)
{
    // With reinforcement on and a deep resident chain, rescans add
    // port debt; the system must still make forward progress and the
    // rescan count must be visible.
    cfg.cdp.nextLines = 0;
    cfg.cdp.reinforce = true;
    build();
    const auto nodes = buildChain(16);
    Cycle t = mem->load(0x400, nodes[0] + 8, 0, true);
    pump(t, 100000);
    for (unsigned i = 1; i < 8; ++i) {
        t += 100000;
        t = mem->load(0x400, nodes[i] + 8, t, true);
        pump(t, 100000);
    }
    EXPECT_GT(mem->counters().rescans, 0u);
    // The chain stayed ahead: most of those accesses were masked.
    const auto &c = mem->counters();
    EXPECT_GE(c.maskFullCdp + c.maskPartialCdp, 4u);
}

TEST_F(TimingFixture, NonMonotonicAdvanceIsSafe)
{
    // The core issues loads at register-ready times that are not
    // monotonic; advance() must tolerate going "backwards".
    build();
    const Addr a1 = heap.alloc(lineBytes, lineBytes);
    const Addr a2 = heap.alloc(lineBytes, lineBytes);
    const Cycle c1 = mem->load(0x400, a1, 1000, false);
    const Cycle c2 = mem->load(0x404, a2, 500, false); // earlier now
    EXPECT_GT(c1, 1000u);
    EXPECT_GT(c2, 500u);
    mem->advance(400); // strictly before both
    mem->advance(c1 + c2); // far after
    EXPECT_GE(mem->counters().l2DemandMisses, 2u);
}

TEST_F(TimingFixture, BackToBackMissesRespectBusBandwidth)
{
    cfg.cdp.enabled = false;
    cfg.stride.enabled = false;
    build();
    // N independent demand misses issued at the same instant must
    // serialize at one bus occupancy apart.
    std::vector<Addr> lines;
    for (int i = 0; i < 8; ++i)
        lines.push_back(heap.alloc(lineBytes, lineBytes));
    // Warm translations.
    for (Addr a : lines) {
        const Cycle t = mem->load(0x500, a, 0, false);
        pump(t, 2000);
    }
    // Evict by running far forward and reloading through a cold L2?
    // Simpler: flush both cache levels via new lines mapping to all
    // sets is overkill -- instead check the *first* fill train.
    MemorySystem fresh(cfg, store, pt, &stats);
    std::vector<Cycle> done;
    for (Addr a : lines)
        done.push_back(fresh.load(0x600, a, 100, false));
    for (std::size_t i = 1; i < done.size(); ++i) {
        EXPECT_GE(done[i], done[i - 1] + cfg.mem.busOccupancy)
            << "transfer " << i;
    }
}

TEST_F(TimingFixture, LoadLatencyHistogramPopulated)
{
    cfg.cdp.enabled = false;
    build();
    const Addr va = heap.alloc(64, 64);
    Cycle t = mem->load(0x400, va, 0, false);
    pump(t, 2000);
    mem->load(0x400, va, t + 2000, false); // L1 hit
    const auto *d = stats.find("x"); // no such counter
    EXPECT_EQ(d, nullptr);
    // The histogram is registered on the group and has samples; find
    // it by dumping (count appears in the text).
    std::ostringstream os;
    stats.dump(os);
    EXPECT_NE(os.str().find("mem.load_latency"), std::string::npos);
    EXPECT_NE(os.str().find("mem.prefetch_lead"), std::string::npos);
}

TEST_F(TimingFixture, PrefetchLeadSampledOnFullMask)
{
    cfg.cdp.nextLines = 0;
    build();
    const auto nodes = buildChain(4);
    Cycle now = mem->load(0x400, nodes[0] + 8, 0, true);
    pump(now, 100000);
    now = mem->load(0x404, nodes[1] + 8, now + 100000, true);
    std::ostringstream os;
    stats.dump(os);
    const std::string out = os.str();
    const auto pos = out.find("mem.prefetch_lead count=");
    ASSERT_NE(pos, std::string::npos);
    // At least one lead sample was recorded for the full mask.
    EXPECT_EQ(out.substr(pos + 24, 1) == "0", false);
}
