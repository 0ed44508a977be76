/** @file Unit tests for the tagged next-line prefetcher. */

#include <gtest/gtest.h>

#include "prefetch/nextline_prefetcher.hh"
#include "sim/simulator.hh"

using namespace cdp;

TEST(NextLine, PredictsSequentialLines)
{
    NextLinePrefetcher pf(2);
    const auto preds = pf.observeMiss(0x400, 0x1008);
    ASSERT_EQ(preds.size(), 2u);
    EXPECT_EQ(preds[0], 0x1040u);
    EXPECT_EQ(preds[1], 0x1080u);
}

TEST(NextLine, DegreeOfOne)
{
    NextLinePrefetcher pf(1);
    const auto preds = pf.observeMiss(0x400, 0x2000);
    ASSERT_EQ(preds.size(), 1u);
    EXPECT_EQ(preds[0], 0x2040u);
}

TEST(NextLine, ZeroDegreeClampedToOne)
{
    NextLinePrefetcher pf(0);
    EXPECT_EQ(pf.observeMiss(0x400, 0x2000).size(), 1u);
}

TEST(NextLine, TaggedSuppressesRecentRepeats)
{
    NextLinePrefetcher pf(1);
    EXPECT_EQ(pf.observeMiss(0x400, 0x1000).size(), 1u);
    // Same miss again: the next line was just predicted.
    EXPECT_TRUE(pf.observeMiss(0x400, 0x1010).empty());
    EXPECT_EQ(pf.issuedCount(), 1u);
}

TEST(NextLine, StreamAdvancesThroughTagFilter)
{
    // A sequential miss stream keeps producing fresh predictions.
    NextLinePrefetcher pf(1);
    unsigned issued = 0;
    for (Addr a = 0x1000; a < 0x2000; a += lineBytes)
        issued += pf.observeMiss(0x400, a).size();
    EXPECT_EQ(issued, 0x1000u / lineBytes);
}

TEST(NextLine, RecentlyIssuedTracksPredictions)
{
    NextLinePrefetcher pf(2);
    pf.observeMiss(0x400, 0x1000);
    EXPECT_TRUE(pf.recentlyIssued(0x1040));
    EXPECT_TRUE(pf.recentlyIssued(0x1080));
    EXPECT_FALSE(pf.recentlyIssued(0x10c0));
}

TEST(NextLine, StopsAtAddressSpaceTop)
{
    NextLinePrefetcher pf(4);
    const auto preds = pf.observeMiss(0x400, 0xffffff80);
    // Only one line exists above 0xffffff80's line.
    EXPECT_LE(preds.size(), 1u);
}

TEST(NextLine, PolicyKeyParses)
{
    SimConfig c;
    EXPECT_TRUE(c.applyOverride("stride.policy", "nextline"));
    EXPECT_EQ(c.stride.policy, "nextline");
    EXPECT_TRUE(c.applyOverride("stride.policy", "stride"));
    EXPECT_THROW(c.applyOverride("stride.policy", "markov"),
                 std::invalid_argument);
}

TEST(NextLine, EndToEndNextLineBaselineRuns)
{
    SimConfig c;
    c.workload = "quake";
    c.warmupUops = 50'000;
    c.measureUops = 100'000;
    c.stride.policy = "nextline";
    c.cdp.enabled = false;
    Simulator sim(c);
    const RunResult r = sim.run();
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.mem.strideIssued, 100u); // next-line issues plenty
}

TEST(NextLine, StrideIsMoreBandwidthEfficientThanNextLine)
{
    // Next-line fires on *every* miss; the confidence-gated stride
    // engine fires only on established arithmetic progressions. The
    // stride baseline therefore buys its coverage with far fewer
    // prefetches -- the efficiency that makes it the "standard
    // performance enhancement component" of Section 2.1.
    SimConfig base;
    base.workload = "quake";
    base.warmupUops = 150'000;
    base.measureUops = 300'000;
    base.cdp.enabled = false;

    SimConfig nl = base;
    nl.stride.policy = "nextline";
    Simulator ss(base), ns(nl);
    const RunResult rs = ss.run();
    const RunResult rn = ns.run();
    // Both beat a no-prefetch machine; next-line pays >= 1.5x the
    // prefetch traffic for its coverage.
    EXPECT_GT(rn.mem.strideIssued, rs.mem.strideIssued * 3 / 2);
    EXPECT_GT(rs.ipc, 0.0);
    EXPECT_GT(rn.ipc, 0.0);
}
