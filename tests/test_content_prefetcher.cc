/** @file
 * Unit tests for the content prefetcher policy engine: chaining
 * depth, width emission, and the reinforcement predicate.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <unordered_set>
#include <vector>

#include "common/rng.hh"
#include "core/content_prefetcher.hh"

using namespace cdp;

namespace
{

/** Build a line with pointers planted at the given offsets. */
std::array<std::uint8_t, lineBytes>
lineWith(std::initializer_list<std::pair<unsigned, std::uint32_t>> ptrs)
{
    std::array<std::uint8_t, lineBytes> line{};
    for (const auto &[off, v] : ptrs)
        std::memcpy(line.data() + off, &v, 4);
    return line;
}

CdpConfig
baseConfig()
{
    CdpConfig c;
    c.depthThreshold = 3;
    c.nextLines = 0;
    c.prevLines = 0;
    return c;
}

} // namespace

TEST(ContentPf, FindsCandidateAndAssignsChildDepth)
{
    ContentPrefetcher pf(baseConfig());
    const auto line = lineWith({{8, 0x10345678}});
    const auto out = pf.scanFill(line.data(), 0x10000008, 0);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].vaddr, 0x10345678u);
    EXPECT_EQ(out[0].lineVa, lineAlign(0x10345678u));
    EXPECT_EQ(out[0].depth, 1u);
    EXPECT_FALSE(out[0].widthLine);
}

TEST(ContentPf, ChainedDepthIncrements)
{
    ContentPrefetcher pf(baseConfig());
    const auto line = lineWith({{8, 0x10345678}});
    EXPECT_EQ(pf.scanFill(line.data(), 0x10000008, 1)[0].depth, 2u);
    EXPECT_EQ(pf.scanFill(line.data(), 0x10000008, 2)[0].depth, 3u);
}

TEST(ContentPf, FillAtThresholdNotScanned)
{
    ContentPrefetcher pf(baseConfig());
    const auto line = lineWith({{8, 0x10345678}});
    EXPECT_TRUE(pf.scanFill(line.data(), 0x10000008, 3).empty());
    EXPECT_TRUE(pf.scanFill(line.data(), 0x10000008, 7).empty());
    EXPECT_EQ(pf.linesScanned(), 0u);
}

TEST(ContentPf, DisabledScansNothing)
{
    CdpConfig c = baseConfig();
    c.enabled = false;
    ContentPrefetcher pf(c);
    const auto line = lineWith({{8, 0x10345678}});
    EXPECT_TRUE(pf.scanFill(line.data(), 0x10000008, 0).empty());
}

TEST(ContentPf, NextLinesEmittedAfterCandidate)
{
    CdpConfig c = baseConfig();
    c.nextLines = 3;
    ContentPrefetcher pf(c);
    const auto line = lineWith({{8, 0x10345678}});
    const auto out = pf.scanFill(line.data(), 0x10000008, 0);
    ASSERT_EQ(out.size(), 4u);
    const Addr base = lineAlign(0x10345678u);
    EXPECT_EQ(out[0].lineVa, base);
    EXPECT_FALSE(out[0].widthLine);
    for (unsigned n = 1; n <= 3; ++n) {
        EXPECT_EQ(out[n].lineVa, base + n * lineBytes);
        EXPECT_TRUE(out[n].widthLine);
        EXPECT_EQ(out[n].depth, 1u);
    }
}

TEST(ContentPf, PrevLinesEmitted)
{
    CdpConfig c = baseConfig();
    c.prevLines = 1;
    ContentPrefetcher pf(c);
    const auto line = lineWith({{8, 0x10345678}});
    const auto out = pf.scanFill(line.data(), 0x10000008, 0);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[1].lineVa, lineAlign(0x10345678u) - lineBytes);
    EXPECT_TRUE(out[1].widthLine);
}

TEST(ContentPf, DuplicateLinesSuppressedWithinScan)
{
    // Two pointers into the same line produce one line request.
    CdpConfig c = baseConfig();
    ContentPrefetcher pf(c);
    const auto line = lineWith({{8, 0x10345678}, {16, 0x10345670}});
    const auto out = pf.scanFill(line.data(), 0x10000008, 0);
    EXPECT_EQ(out.size(), 1u);
}

TEST(ContentPf, TriggerLineNeverReRequested)
{
    // A self-pointer (pointer into the line being scanned) is not
    // worth a prefetch.
    ContentPrefetcher pf(baseConfig());
    const auto line = lineWith({{8, 0x10000010}});
    EXPECT_TRUE(pf.scanFill(line.data(), 0x10000008, 0).empty());
}

TEST(ContentPf, WidthDoesNotWrapBelowZero)
{
    CdpConfig c = baseConfig();
    c.prevLines = 2;
    ContentPrefetcher pf(c);
    // Candidate in the first line of the address space: prev lines
    // would wrap; they must be suppressed.
    const auto line = lineWith({{8, 0x00500000}});
    const auto out = pf.scanFill(line.data(), 0x00500fc8, 0);
    // candidate line 0x500000 is the line at the trigger? no:
    // trigger line = 0x500fc0, candidate line = 0x500000.
    ASSERT_GE(out.size(), 1u);
    for (const auto &cand : out)
        EXPECT_LE(cand.lineVa, lineAlign(0x00500000u));
}

TEST(ContentPf, ShouldRescanRequiresReinforcementOn)
{
    CdpConfig c = baseConfig();
    c.reinforce = false;
    ContentPrefetcher pf(c);
    EXPECT_FALSE(pf.shouldRescan(0, 3));
}

TEST(ContentPf, ShouldRescanDeltaOne)
{
    CdpConfig c = baseConfig();
    c.reinforce = true;
    c.reinforceMinDelta = 1;
    ContentPrefetcher pf(c);
    EXPECT_TRUE(pf.shouldRescan(0, 1));
    EXPECT_TRUE(pf.shouldRescan(0, 3));
    EXPECT_TRUE(pf.shouldRescan(1, 2));
    EXPECT_FALSE(pf.shouldRescan(1, 1));
    EXPECT_FALSE(pf.shouldRescan(2, 1)); // deeper request, no rescan
}

TEST(ContentPf, ShouldRescanDeltaTwoHalvesRescans)
{
    // Figure 4(c): rescan only when the incoming depth is at least
    // two below the stored depth.
    CdpConfig c = baseConfig();
    c.reinforceMinDelta = 2;
    ContentPrefetcher pf(c);
    EXPECT_FALSE(pf.shouldRescan(0, 1));
    EXPECT_TRUE(pf.shouldRescan(0, 2));
    EXPECT_TRUE(pf.shouldRescan(1, 3));
    EXPECT_FALSE(pf.shouldRescan(2, 3));
}

TEST(ContentPf, StatsCountScansAndCandidates)
{
    CdpConfig c = baseConfig();
    c.nextLines = 2;
    ContentPrefetcher pf(c);
    const auto line = lineWith({{8, 0x10345678}});
    pf.scanFill(line.data(), 0x10000008, 0);
    pf.scanFill(line.data(), 0x10000008, 0, /*is_rescan=*/true);
    EXPECT_EQ(pf.linesScanned(), 2u);
    EXPECT_EQ(pf.rescanCount(), 1u);
    EXPECT_EQ(pf.candidatesFound(), 2u);
}

/** Property: across depth thresholds, scans occur iff depth is below
 *  the threshold, and emitted depths never exceed threshold. */
class ContentPfDepth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ContentPfDepth, DepthInvariants)
{
    CdpConfig c = baseConfig();
    c.depthThreshold = GetParam();
    c.nextLines = 2;
    ContentPrefetcher pf(c);
    const auto line = lineWith({{8, 0x10345678}, {24, 0x10899000}});
    for (unsigned fill_depth = 0; fill_depth < 12; ++fill_depth) {
        const auto out = pf.scanFill(line.data(), 0x10000008,
                                     fill_depth);
        if (fill_depth >= c.depthThreshold) {
            EXPECT_TRUE(out.empty());
        } else {
            EXPECT_FALSE(out.empty());
            for (const auto &cand : out) {
                EXPECT_EQ(cand.depth, fill_depth + 1);
                EXPECT_LE(cand.depth, c.depthThreshold);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ContentPfDepth,
                         ::testing::Values(1u, 2u, 3u, 5u, 9u));

/** Property: emitted line set = dedup of candidate lines plus their
 *  width neighbourhoods, minus the trigger line. */
TEST(ContentPfProperty, EmittedSetMatchesSpec)
{
    CdpConfig c = baseConfig();
    c.nextLines = 3;
    c.prevLines = 1;
    ContentPrefetcher pf(c);
    const auto line = lineWith(
        {{0, 0x10100000}, {8, 0x10100040}, {32, 0x10900000}});
    const auto out = pf.scanFill(line.data(), 0x10000008, 0);

    std::set<Addr> expect;
    for (Addr cand : {0x10100000u, 0x10100040u, 0x10900000u}) {
        const Addr base = lineAlign(cand);
        expect.insert(base - lineBytes);
        for (unsigned n = 0; n <= 3; ++n)
            expect.insert(base + n * lineBytes);
    }
    expect.erase(lineAlign(0x10000008u));

    std::set<Addr> got;
    for (const auto &cand : out)
        EXPECT_TRUE(got.insert(cand.lineVa).second)
            << "duplicate line emitted";
    EXPECT_EQ(got, expect);
}

namespace
{

/**
 * Reference scanFill: the original allocating algorithm, with a fresh
 * std::unordered_set per scan, kept here as the oracle for the
 * member-buffer implementation.
 */
std::vector<CdpCandidate>
referenceScan(const CdpConfig &c, const std::uint8_t *line, Addr ea,
              unsigned fill_depth, bool is_rescan)
{
    std::vector<CdpCandidate> out;
    if (!c.enabled || fill_depth >= c.depthThreshold)
        return out;
    const Vam vam(c.vam);
    const Addr trigger_line = lineAlign(ea);
    const unsigned child = fill_depth + 1;
    const bool emit_width = !is_rescan || c.widthOnRescan;
    std::unordered_set<Addr> seen{trigger_line};
    unsigned hop = 0;
    for (Addr target : vam.scanLine(line, ea)) {
        const Addr t = lineAlign(target);
        if (seen.insert(t).second)
            out.push_back({target, t, child, false, hop++});
        if (!emit_width)
            continue;
        for (unsigned p = 1; p <= c.prevLines; ++p) {
            const Addr l = t - p * lineBytes;
            if (l < t && seen.insert(l).second)
                out.push_back({target, l, child, true, hop++});
        }
        for (unsigned n = 1; n <= c.nextLines; ++n) {
            const Addr l = t + n * lineBytes;
            if (l > t && seen.insert(l).second)
                out.push_back({target, l, child, true, hop++});
        }
    }
    return out;
}

} // namespace

TEST(ContentPfProperty, KnobCornerMatchesReferenceDedupe)
{
    // cdp.scan_step=1 cdp.prev_lines=64 cdp.next_lines=64: up to
    // 61 words x 129 lines per scan. Every scan must equal the
    // reference, and the reused buffer and dedupe set must carry
    // nothing from one scan into the next.
    CdpConfig c = baseConfig();
    c.vam = VamConfig{4, 0, 0, 1};
    c.prevLines = maxWidthLines;
    c.nextLines = maxWidthLines;
    c.widthOnRescan = true;
    ContentPrefetcher pf(c);
    Rng rng(2002);
    std::size_t largest = 0;
    for (int t = 0; t < 200; ++t) {
        std::uint8_t line[lineBytes];
        // High nibble 1 in every byte: every word at every byte
        // offset shares the trigger's top 4 bits (the maximal scan);
        // every fourth line is plain noise instead.
        for (auto &b : line)
            b = static_cast<std::uint8_t>(
                t % 4 == 3 ? rng.next32() : 0x10 | (rng.next32() & 0xf));
        const Addr ea = 0x10000000 | (rng.next32() & 0x0fffffff);
        const unsigned depth = static_cast<unsigned>(rng.below(4));
        const bool rescan = rng.chance(0.25);
        const auto got = pf.scanFill(line, ea, depth, rescan);
        const auto want = referenceScan(c, line, ea, depth, rescan);
        ASSERT_EQ(got.size(), want.size()) << "scan " << t;
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got[i].vaddr, want[i].vaddr) << t << "/" << i;
            ASSERT_EQ(got[i].lineVa, want[i].lineVa) << t << "/" << i;
            ASSERT_EQ(got[i].depth, want[i].depth) << t << "/" << i;
            ASSERT_EQ(got[i].widthLine, want[i].widthLine)
                << t << "/" << i;
            ASSERT_EQ(got[i].hop, want[i].hop) << t << "/" << i;
        }
        largest = std::max(largest, got.size());
    }
    // The corner was really exercised: most of 61 x 129 lines.
    EXPECT_GT(largest, 61u * 129u / 2);
}

TEST(ContentPf, WidthBeyondTheKnobMaximumIsRefused)
{
    CdpConfig c = baseConfig();
    c.nextLines = maxWidthLines + 1;
    EXPECT_THROW(ContentPrefetcher pf(c), std::invalid_argument);
    ContentPrefetcher pf(baseConfig());
    c = baseConfig();
    c.prevLines = maxWidthLines + 1;
    EXPECT_THROW(pf.reconfigure(c), std::invalid_argument);
}
