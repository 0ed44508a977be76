/** @file Unit tests for the baseline stride prefetcher. */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "prefetch/recent_issues.hh"
#include "prefetch/stride_prefetcher.hh"
#include "snapshot/ckpt_io.hh"

using namespace cdp;

TEST(Stride, NoPredictionOnFirstMisses)
{
    StridePrefetcher pf(256, 2, 2);
    EXPECT_TRUE(pf.observeMiss(0x400, 0x1000).empty());
    EXPECT_TRUE(pf.observeMiss(0x400, 0x1040).empty());
}

TEST(Stride, PredictsAfterConfidenceBuilt)
{
    StridePrefetcher pf(256, 2, 2);
    pf.observeMiss(0x400, 0x1000);
    pf.observeMiss(0x400, 0x1040);
    pf.observeMiss(0x400, 0x1080);
    const auto preds = pf.observeMiss(0x400, 0x10c0);
    ASSERT_EQ(preds.size(), 2u);
    EXPECT_EQ(preds[0], 0x1100u);
    EXPECT_EQ(preds[1], 0x1140u);
}

TEST(Stride, DegreeControlsLookahead)
{
    StridePrefetcher pf(256, 4, 2);
    for (Addr a = 0x1000; a <= 0x1100; a += 0x40)
        pf.observeMiss(0x400, a);
    const auto preds = pf.observeMiss(0x400, 0x1140);
    EXPECT_EQ(preds.size(), 4u);
}

TEST(Stride, NegativeStridesWork)
{
    StridePrefetcher pf(256, 1, 2);
    pf.observeMiss(0x400, 0x5000);
    pf.observeMiss(0x400, 0x4fc0);
    pf.observeMiss(0x400, 0x4f80);
    const auto preds = pf.observeMiss(0x400, 0x4f40);
    ASSERT_EQ(preds.size(), 1u);
    EXPECT_EQ(preds[0], 0x4f00u);
}

TEST(Stride, SmallStridesSkipDuplicateLines)
{
    // Stride 8 with degree 2: both predictions land in the next
    // line; only one line-distinct prefetch is produced.
    StridePrefetcher pf(256, 2, 2);
    for (Addr a = 0x1000; a < 0x1040; a += 8)
        pf.observeMiss(0x400, a);
    const auto preds = pf.observeMiss(0x400, 0x1040);
    // Predictions at 0x1048, 0x1050 -> same line as 0x1040: skipped.
    EXPECT_TRUE(preds.empty());
}

TEST(Stride, IrregularPatternNeverPredicts)
{
    StridePrefetcher pf(256, 2, 2);
    const Addr addrs[] = {0x1000, 0x9940, 0x3300, 0x77c0, 0x2180,
                          0xe000, 0x5540};
    unsigned total = 0;
    for (Addr a : addrs)
        total += pf.observeMiss(0x400, a).size();
    EXPECT_EQ(total, 0u);
}

TEST(Stride, DistinctPcsTrackedIndependently)
{
    StridePrefetcher pf(256, 1, 2);
    for (int i = 0; i < 4; ++i) {
        pf.observeMiss(0x400, 0x1000 + i * 0x40);
        pf.observeMiss(0x404, 0x8000 + i * 0x100);
    }
    const auto p1 = pf.observeMiss(0x400, 0x1100);
    const auto p2 = pf.observeMiss(0x404, 0x8400);
    ASSERT_EQ(p1.size(), 1u);
    ASSERT_EQ(p2.size(), 1u);
    EXPECT_EQ(p1[0], 0x1140u);
    EXPECT_EQ(p2[0], 0x8500u);
}

TEST(Stride, PcAliasingRetrains)
{
    // Two PCs mapping to the same entry evict each other's state.
    StridePrefetcher pf(1, 1, 2); // single entry
    pf.observeMiss(0x400, 0x1000);
    pf.observeMiss(0x404, 0x9000); // retags the entry
    EXPECT_TRUE(pf.observeMiss(0x400, 0x1040).empty()); // retag again
}

TEST(Stride, TableIndexIsPcModuloEntries)
{
    // Direct mapped on (pc >> 2) % entries at any entry count
    // stride.entries allows: pc + 4 * entries shares pc's entry and
    // retags it, pc + 4 has an entry of its own (given two or more).
    for (const unsigned entries :
         {1u, 2u, 3u, 7u, 255u, 256u, 257u, 65535u, 65536u}) {
        for (const Addr pc : {Addr{0x400}, Addr{0x7ffc0}}) {
            for (const Addr other : {pc + 4 * entries, pc + 4}) {
                StridePrefetcher pf(entries, 1, 2);
                pf.observeMiss(pc, 0x1000);
                pf.observeMiss(pc, 0x1040);
                pf.observeMiss(pc, 0x1080); // one short of confident
                pf.observeMiss(other, 0x9000);
                const bool shared =
                    (other >> 2) % entries == (pc >> 2) % entries;
                EXPECT_EQ(pf.observeMiss(pc, 0x10c0).empty(), shared)
                    << entries << " entries, pc " << pc << " and "
                    << other;
            }
        }
    }
}

TEST(Stride, ConfidenceLostOnBrokenPattern)
{
    StridePrefetcher pf(256, 1, 2);
    for (Addr a = 0x1000; a <= 0x10c0; a += 0x40)
        pf.observeMiss(0x400, a);
    EXPECT_FALSE(pf.observeMiss(0x400, 0x1100).empty());
    // Break the pattern twice: confidence drains, no predictions.
    pf.observeMiss(0x400, 0x9000);
    pf.observeMiss(0x400, 0x2000);
    pf.observeMiss(0x400, 0xc000);
    EXPECT_TRUE(pf.observeMiss(0x400, 0xd000).empty());
}

TEST(Stride, RecentlyIssuedTracksLineAddresses)
{
    StridePrefetcher pf(256, 2, 2);
    for (Addr a = 0x1000; a <= 0x10c0; a += 0x40)
        pf.observeMiss(0x400, a);
    const auto preds = pf.observeMiss(0x400, 0x1100);
    ASSERT_FALSE(preds.empty());
    for (Addr p : preds)
        EXPECT_TRUE(pf.recentlyIssued(p));
    EXPECT_FALSE(pf.recentlyIssued(0xdead0000));
}

TEST(Stride, IssuedCountMatches)
{
    StridePrefetcher pf(256, 2, 2);
    for (Addr a = 0x1000; a <= 0x1080; a += 0x40)
        pf.observeMiss(0x400, a);
    pf.observeMiss(0x400, 0x10c0);
    EXPECT_EQ(pf.issuedCount(), 2u);
}

/** Property: strided streams of any line-multiple stride converge to
 *  predictions that exactly lead the stream. */
class StrideSweep : public ::testing::TestWithParam<std::int32_t>
{
};

TEST_P(StrideSweep, ConvergesAndLeads)
{
    const std::int32_t stride = GetParam();
    StridePrefetcher pf(256, 1, 2);
    Addr a = 0x100000;
    PrefetchList preds;
    for (int i = 0; i < 12; ++i) {
        preds = pf.observeMiss(0x400, a);
        a += static_cast<Addr>(stride);
    }
    ASSERT_EQ(preds.size(), 1u);
    // The last observation was at a-stride; prediction leads by one.
    EXPECT_EQ(preds[0], a);
}

INSTANTIATE_TEST_SUITE_P(Strides, StrideSweep,
                         ::testing::Values(64, 128, 256, -64, -128,
                                           192, 1024));

namespace
{

/**
 * Restore the bytes @p fill writes (one section) into @p target.
 * @return the SnapshotError message, or "" when the restore passed
 */
template <typename Target, typename Fill>
std::string
restoreError(Target &target, Fill fill)
{
    std::ostringstream os;
    snap::Writer w(os);
    w.beginSection("TEST");
    fill(w);
    w.endSection();
    w.finish();
    std::istringstream is(os.str());
    snap::Reader r(is);
    r.enterSection("TEST");
    try {
        target.loadState(r);
    } catch (const snap::SnapshotError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(Stride, RestoreRefusesABadRecentRing)
{
    // The recent-issue window (shared by stride and next-line) indexes
    // a line set: an unaligned or repeated line in a checkpoint must
    // fail the restore, not corrupt the set.
    for (const Addr bad : {Addr{0x2001}, Addr{0x1000}}) {
        RecentIssueWindow win;
        const std::string err = restoreError(win, [&](snap::Writer &w) {
            w.u64(2);
            w.u32(0x1000);
            w.u32(bad);
        });
        EXPECT_NE(err.find("unaligned or repeated"), std::string::npos)
            << bad << ": " << err;
    }
    // More entries than the window holds: refused before any is read.
    RecentIssueWindow win;
    const std::string err = restoreError(win, [](snap::Writer &w) {
        w.u64(RecentIssueWindow::capacity + 1);
        for (std::size_t i = 0; i <= RecentIssueWindow::capacity; ++i)
            w.u32(static_cast<Addr>(i * lineBytes));
    });
    EXPECT_NE(err.find("holds 4097 entries, capacity is 4096"),
              std::string::npos)
        << err;
}

TEST(Stride, RestoreRefusesConfidenceAboveThree)
{
    // The two-bit confidence counter saves as a u64: a value no save
    // can produce (4, or 2^32 + 1, which a narrowing read would take
    // as 1) is refused, naming the field.
    for (const std::uint64_t bad :
         {std::uint64_t{4}, (std::uint64_t{1} << 32) + 1}) {
        StridePrefetcher pf(1, 2, 2);
        const std::string err = restoreError(pf, [&](snap::Writer &w) {
            w.u64(1); // RPT entries
            w.u32(0x400);
            w.u32(0x1000);
            w.u32(0x40);
            w.u64(bad);
            w.boolean(true);
            w.u64(0); // empty recent-issue window
        });
        EXPECT_NE(err.find("stride RPT confidence " + std::to_string(bad)),
                  std::string::npos)
            << err;
    }
}
