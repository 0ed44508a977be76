/** @file
 * Unit and property tests for the Virtual Address Matching predictor
 * — the paper's pointer-recognition heuristic (Section 3.3).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hh"
#include "core/vam.hh"

using namespace cdp;

namespace
{

/** The paper's chosen configuration: 8.4.1.2. */
VamConfig
paperConfig()
{
    return VamConfig{8, 4, 1, 2};
}

} // namespace

TEST(VamConfig, Label)
{
    EXPECT_EQ(paperConfig().label(), "8.4.1.2");
    EXPECT_EQ((VamConfig{12, 0, 2, 4}.label()), "12.0.2.4");
}

TEST(VamConfig, Validation)
{
    EXPECT_THROW(Vam(VamConfig{0, 4, 1, 2}), std::invalid_argument);
    EXPECT_THROW(Vam(VamConfig{32, 4, 1, 2}), std::invalid_argument);
    EXPECT_THROW(Vam(VamConfig{30, 4, 1, 2}), std::invalid_argument);
    EXPECT_THROW(Vam(VamConfig{8, 4, 9, 2}), std::invalid_argument);
    EXPECT_THROW(Vam(VamConfig{8, 4, 1, 0}), std::invalid_argument);
}

TEST(Vam, HeapPointerMatchesHeapTrigger)
{
    Vam vam(paperConfig());
    // Trigger EA and candidate share the upper 8 bits (0x10).
    EXPECT_EQ(vam.classify(0x10345678 & ~1u, 0x10000008),
              VamVerdict::Candidate);
}

TEST(Vam, DifferentRegionRejected)
{
    Vam vam(paperConfig());
    EXPECT_EQ(vam.classify(0x20345678, 0x10000008),
              VamVerdict::CompareMismatch);
}

TEST(Vam, MisalignedRejected)
{
    Vam vam(paperConfig());
    EXPECT_EQ(vam.classify(0x10345679, 0x10000008),
              VamVerdict::Misaligned);
}

TEST(Vam, AlignBitsZeroAcceptsOddValues)
{
    Vam vam(VamConfig{8, 4, 0, 2});
    EXPECT_EQ(vam.classify(0x10345679, 0x10000008),
              VamVerdict::Candidate);
}

TEST(Vam, AlignBitsTwoRequiresFourByteAlignment)
{
    Vam vam(VamConfig{8, 4, 2, 4});
    EXPECT_EQ(vam.classify(0x10345678, 0x10000008),
              VamVerdict::Candidate);
    EXPECT_EQ(vam.classify(0x1034567a, 0x10000008),
              VamVerdict::Misaligned);
}

TEST(Vam, SmallIntegerFilteredInZeroRegion)
{
    Vam vam(paperConfig());
    // Trigger in the low region: upper 8 bits zero. A small value
    // (e.g. 42) has zero filter bits -> data, not address.
    EXPECT_EQ(vam.classify(42 & ~1u, 0x00001000),
              VamVerdict::FilteredZero);
}

TEST(Vam, LargeLowRegionValueAccepted)
{
    Vam vam(paperConfig());
    // Filter bits are [23:20] for 8.4; a value with a bit there is a
    // likely address even though the compare bits are all zero.
    EXPECT_EQ(vam.classify(0x00500000, 0x00001000),
              VamVerdict::Candidate);
}

TEST(Vam, SmallNegativeFilteredInOnesRegion)
{
    Vam vam(paperConfig());
    // -2 = 0xfffffffe: upper 8 all ones, filter bits all ones.
    EXPECT_EQ(vam.classify(0xfffffffe, 0xff001000),
              VamVerdict::FilteredOne);
}

TEST(Vam, StackPointerInOnesRegionAccepted)
{
    Vam vam(paperConfig());
    // 0xff4ff000: upper 8 ones, but filter nibble (0x4) not all ones.
    EXPECT_EQ(vam.classify(0xff4ff000, 0xff001000),
              VamVerdict::Candidate);
}

TEST(Vam, ZeroFilterBitsDisablePredictionInExtremeRegions)
{
    Vam vam(VamConfig{8, 0, 1, 2});
    // With zero filter bits, nothing in the all-zero region predicts
    // (the filter field is empty -> always "all zero").
    EXPECT_EQ(vam.classify(0x00500000, 0x00001000),
              VamVerdict::FilteredZero);
    EXPECT_EQ(vam.classify(0xff4ff000, 0xff001000),
              VamVerdict::FilteredOne);
    // Normal regions still predict.
    EXPECT_EQ(vam.classify(0x10345678, 0x10000008),
              VamVerdict::Candidate);
}

TEST(Vam, NullPointerNeverCandidate)
{
    for (unsigned cb : {8u, 10u, 12u}) {
        for (unsigned fb : {0u, 2u, 4u, 6u}) {
            Vam vam(VamConfig{cb, fb, 1, 2});
            EXPECT_NE(vam.classify(0, 0x00000100),
                      VamVerdict::Candidate)
                << cb << "." << fb;
        }
    }
}

TEST(Vam, MoreCompareBitsShrinkPrefetchableRange)
{
    // 0x10345678 vs trigger 0x10000008: upper 8 match, upper 12 do
    // not (0x103 vs 0x100).
    Vam vam8(VamConfig{8, 4, 1, 2});
    Vam vam12(VamConfig{12, 4, 1, 2});
    EXPECT_EQ(vam8.classify(0x10345678 & ~1u, 0x10000008),
              VamVerdict::Candidate);
    EXPECT_EQ(vam12.classify(0x10345678 & ~1u, 0x10000008),
              VamVerdict::CompareMismatch);
}

TEST(Vam, ScanLineFindsPlantedPointer)
{
    Vam vam(paperConfig());
    std::uint8_t line[lineBytes] = {};
    const std::uint32_t ptr = 0x10345678 & ~1u;
    std::memcpy(line + 8, &ptr, 4);
    const auto found = vam.scanLine(line, 0x10000008);
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0], ptr);
}

TEST(Vam, ScanLineFindsMultiplePointers)
{
    Vam vam(paperConfig());
    std::uint8_t line[lineBytes] = {};
    const std::uint32_t p1 = 0x10100000, p2 = 0x10200000;
    std::memcpy(line + 0, &p1, 4);
    std::memcpy(line + 60, &p2, 4);
    const auto found = vam.scanLine(line, 0x10000008);
    ASSERT_EQ(found.size(), 2u);
    EXPECT_EQ(found[0], p1);
    EXPECT_EQ(found[1], p2);
}

TEST(Vam, ScanStepFourMissesTwoByteAlignedPointer)
{
    // A pointer at offset 6 is visible to a 2-byte scan step but not
    // to a 4-byte step -- the coverage/accuracy trade of Figure 8.
    std::uint8_t line[lineBytes] = {};
    const std::uint32_t ptr = 0x10345678 & ~1u;
    std::memcpy(line + 6, &ptr, 4);
    Vam step2(VamConfig{8, 4, 1, 2});
    Vam step4(VamConfig{8, 4, 1, 4});
    EXPECT_EQ(step2.scanLine(line, 0x10000008).size(), 1u);
    EXPECT_EQ(step4.scanLine(line, 0x10000008).size(), 0u);
}

TEST(Vam, WordsPerLineMatchesScanStep)
{
    EXPECT_EQ(Vam(VamConfig{8, 4, 1, 1}).wordsPerLine(), 61u);
    EXPECT_EQ(Vam(VamConfig{8, 4, 1, 2}).wordsPerLine(), 31u);
    EXPECT_EQ(Vam(VamConfig{8, 4, 1, 4}).wordsPerLine(), 16u);
}

TEST(Vam, ScanLineOfZerosFindsNothing)
{
    Vam vam(paperConfig());
    std::uint8_t line[lineBytes] = {};
    EXPECT_TRUE(vam.scanLine(line, 0x10000008).empty());
}

/**
 * Property sweep over the Figure 7 configurations: for every
 * compare/filter combination, (a) genuine same-region heap pointers
 * are always candidates, (b) small integers never are, and (c) the
 * false-positive rate on uniform random words shrinks as compare
 * bits grow.
 */
class VamCompareFilter
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(VamCompareFilter, HeapPointersAlwaysMatch)
{
    const auto [cb, fb] = GetParam();
    Vam vam(VamConfig{cb, fb, 1, 2});
    Rng rng(17);
    const Addr heap_base = 0x10000000;
    for (int i = 0; i < 500; ++i) {
        // Pointer and trigger inside a 1-MB heap slab: upper 12 bits
        // match, so every swept compare width must accept.
        const Addr ptr =
            (heap_base + static_cast<Addr>(rng.below(1 << 20))) & ~3u;
        const Addr ea =
            heap_base + (static_cast<Addr>(rng.below(1 << 20)) & ~3u);
        EXPECT_EQ(vam.classify(ptr, ea), VamVerdict::Candidate)
            << std::hex << ptr << " vs " << ea;
    }
}

TEST_P(VamCompareFilter, SmallIntegersNeverMatch)
{
    const auto [cb, fb] = GetParam();
    Vam vam(VamConfig{cb, fb, 1, 2});
    Rng rng(18);
    for (int i = 0; i < 500; ++i) {
        // Values below 2^16 with a low-region trigger: the filter
        // bits (at [31-cb-fb, 31-cb]) are zero for every swept
        // config, so these must be rejected.
        const auto v =
            static_cast<std::uint32_t>(rng.below(1 << 16)) & ~1u;
        EXPECT_NE(vam.classify(v, 0x00001000), VamVerdict::Candidate);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Fig7Configs, VamCompareFilter,
    ::testing::Values(std::make_pair(8u, 0u), std::make_pair(8u, 2u),
                      std::make_pair(8u, 4u), std::make_pair(8u, 6u),
                      std::make_pair(8u, 8u), std::make_pair(9u, 0u),
                      std::make_pair(9u, 3u), std::make_pair(9u, 5u),
                      std::make_pair(10u, 0u), std::make_pair(10u, 4u),
                      std::make_pair(11u, 1u), std::make_pair(11u, 5u),
                      std::make_pair(12u, 0u), std::make_pair(12u, 4u)));

TEST(VamProperty, FalsePositiveRateShrinksWithCompareBits)
{
    Rng rng(29);
    std::vector<std::uint32_t> words(20000);
    for (auto &w : words)
        w = rng.next32();

    double prev_rate = 1.0;
    for (unsigned cb : {8u, 10u, 12u, 14u}) {
        Vam vam(VamConfig{cb, 4, 1, 2});
        unsigned fp = 0;
        for (auto w : words)
            fp += vam.isCandidate(w, 0x10000008) ? 1 : 0;
        const double rate = static_cast<double>(fp) / words.size();
        EXPECT_LE(rate, prev_rate + 1e-4);
        prev_rate = rate;
    }
    // At 14 compare bits the random match rate is ~2^-15.
    EXPECT_LT(prev_rate, 0.01);
}

TEST(VamProperty, FilterBitsTradeAccuracyForCoverageInLowRegion)
{
    // With a low-region trigger, growing the filter width accepts
    // strictly more values (relaxed requirement), never fewer.
    Rng rng(31);
    std::vector<std::uint32_t> words(20000);
    for (auto &w : words)
        w = rng.next32() >> 9; // low-region values (< 2^23)

    unsigned prev_accepted = 0;
    for (unsigned fb : {0u, 2u, 4u, 6u, 8u}) {
        Vam vam(VamConfig{8, fb, 1, 2});
        unsigned accepted = 0;
        for (auto w : words)
            accepted += vam.isCandidate(w & ~1u, 0x00001000) ? 1 : 0;
        EXPECT_GE(accepted, prev_accepted) << "filter bits " << fb;
        prev_accepted = accepted;
    }
}

TEST(VamProperty, ClassifyAgreesWithScanLine)
{
    // scanLine must report exactly the words classify() accepts at
    // each scan-step offset.
    Vam vam(VamConfig{8, 4, 1, 2});
    Rng rng(37);
    for (int t = 0; t < 200; ++t) {
        std::uint8_t line[lineBytes];
        for (auto &b : line)
            b = static_cast<std::uint8_t>(rng.next32());
        const Addr ea = 0x10000000 + (rng.next32() & 0xffff);
        VamHits expect;
        for (unsigned off = 0; off + 4 <= lineBytes; off += 2) {
            std::uint32_t w;
            std::memcpy(&w, line + off, 4);
            if (vam.isCandidate(w, ea))
                expect.push_back(w);
        }
        EXPECT_EQ(vam.scanLine(line, ea), expect);
    }
}
