/** @file Unit tests for the 1-history Markov prefetcher (Section 5). */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "prefetch/markov_prefetcher.hh"
#include "snapshot/ckpt_io.hh"

using namespace cdp;

TEST(Markov, NoPredictionUntilTrained)
{
    MarkovPrefetcher pf(0);
    EXPECT_TRUE(pf.observeMiss(0, 0x1000).empty());
    EXPECT_TRUE(pf.observeMiss(0, 0x2000).empty());
}

TEST(Markov, PredictsSeenSuccessor)
{
    MarkovPrefetcher pf(0);
    pf.observeMiss(0, 0x1000);
    pf.observeMiss(0, 0x2000); // trains 0x1000 -> 0x2000
    pf.observeMiss(0, 0x9000);
    const auto preds = pf.observeMiss(0, 0x1000);
    ASSERT_EQ(preds.size(), 1u);
    EXPECT_EQ(preds[0], 0x2000u);
}

TEST(Markov, TrainingIsLineGranular)
{
    MarkovPrefetcher pf(0);
    pf.observeMiss(0, 0x1008);
    pf.observeMiss(0, 0x2010);
    const auto preds = pf.observeMiss(0, 0x1030); // same line as 0x1008
    ASSERT_EQ(preds.size(), 1u);
    EXPECT_EQ(preds[0], 0x2000u);
}

TEST(Markov, FanoutBoundsSuccessors)
{
    MarkovPrefetcher pf(0, 16, 2); // fanout 2
    for (Addr succ : {0x2000u, 0x3000u, 0x4000u, 0x5000u}) {
        pf.observeMiss(0, 0x1000);
        pf.observeMiss(0, succ);
    }
    const auto preds = pf.observeMiss(0, 0x1000);
    EXPECT_EQ(preds.size(), 2u);
    // MRU first: the most recent successor leads.
    EXPECT_EQ(preds[0], 0x5000u);
    EXPECT_EQ(preds[1], 0x4000u);
}

TEST(Markov, RepeatedTransitionMovesToFront)
{
    MarkovPrefetcher pf(0, 16, 4);
    pf.observeMiss(0, 0x1000);
    pf.observeMiss(0, 0x2000);
    pf.observeMiss(0, 0x1000);
    pf.observeMiss(0, 0x3000);
    pf.observeMiss(0, 0x1000);
    pf.observeMiss(0, 0x2000); // 0x2000 becomes MRU again
    const auto preds = pf.observeMiss(0, 0x1000);
    ASSERT_GE(preds.size(), 2u);
    EXPECT_EQ(preds[0], 0x2000u);
    EXPECT_EQ(preds[1], 0x3000u);
}

TEST(Markov, SelfTransitionIgnored)
{
    MarkovPrefetcher pf(0);
    pf.observeMiss(0, 0x1000);
    pf.observeMiss(0, 0x1020); // same line: no self edge
    pf.observeMiss(0, 0x2000);
    const auto preds = pf.observeMiss(0, 0x1000);
    ASSERT_EQ(preds.size(), 1u);
    EXPECT_EQ(preds[0], 0x2000u);
}

TEST(Markov, UnboundedTableGrows)
{
    MarkovPrefetcher pf(0);
    EXPECT_EQ(pf.capacityEntries(), 0u);
    for (Addr a = 0; a < 100 * lineBytes; a += lineBytes)
        pf.observeMiss(0, a);
    EXPECT_EQ(pf.population(), 99u); // 99 transitions trained
}

TEST(Markov, BoundedCapacityFromBytes)
{
    // 512 KB at 20 B/entry ~ 26214 entries -> floor pow2 sets * 16.
    MarkovPrefetcher pf(512 * 1024, 16, 4);
    EXPECT_GT(pf.capacityEntries(), 0u);
    EXPECT_LE(pf.capacityEntries() * MarkovPrefetcher::bytesPerEntry,
              512u * 1024 * 2); // within 2x of budget (pow2 rounding)
    EXPECT_EQ(pf.capacityEntries() % 16, 0u);
}

TEST(Markov, BoundedTableEvictsLru)
{
    // Tiny STAB: 16 ways x 1 set = 16 entries (320 bytes).
    MarkovPrefetcher pf(320, 16, 4);
    ASSERT_EQ(pf.capacityEntries(), 16u);
    // Train 17 distinct predecessors; the first should be evicted.
    for (unsigned i = 0; i < 17; ++i) {
        pf.observeMiss(0, (2 * i) * lineBytes * 1024);
        pf.observeMiss(0, (2 * i + 1) * lineBytes * 1024);
    }
    EXPECT_LE(pf.population(), 16u);
}

TEST(Markov, PopulationNeverExceedsCapacity)
{
    MarkovPrefetcher pf(128 * 1024, 16, 4);
    unsigned seed = 5;
    for (int i = 0; i < 50000; ++i) {
        seed = seed * 1664525u + 1013904223u;
        pf.observeMiss(0, (seed % (1u << 24)) & ~63u);
    }
    EXPECT_LE(pf.population(), pf.capacityEntries());
}

TEST(Markov, StatsCount)
{
    MarkovPrefetcher pf(0);
    pf.observeMiss(0, 0x1000);
    pf.observeMiss(0, 0x2000);
    pf.observeMiss(0, 0x1000);
    EXPECT_EQ(pf.issuedCount(), 1u);
}

namespace
{

/** One serialized STAB entry: tag, LRU stamp, valid, no successors. */
void
writeEntry(snap::Writer &w, Addr tag, bool valid)
{
    w.u32(tag);
    w.u64(0);
    w.boolean(valid);
    w.u64(0);
}

/**
 * Restore a Markov section into @p pf: the header of @p pf's own
 * geometry (@p slots bounded slots, all invalid), then one unbounded
 * entry stored under @p key with tag @p tag.
 * @return the SnapshotError message, or "" when the restore passed
 */
std::string
restoreWithOneUnboundedEntry(MarkovPrefetcher &pf, std::uint64_t slots,
                             std::uint64_t sets, Addr key, Addr tag)
{
    std::ostringstream os;
    snap::Writer w(os);
    w.beginSection("MRKV");
    w.u64(pf.capacityEntries());
    w.u64(16); // ways
    w.u64(4);  // fan-out
    w.u64(sets);
    w.u64(0);        // LRU stamp
    w.u32(0);        // previous miss line
    w.boolean(false); // no previous miss
    w.u64(slots);
    for (std::uint64_t i = 0; i < slots; ++i)
        writeEntry(w, 0, false);
    w.u64(1);
    w.u32(key);
    writeEntry(w, tag, true);
    w.endSection();
    w.finish();

    std::istringstream is(os.str());
    snap::Reader r(is);
    r.enterSection("MRKV");
    try {
        pf.loadState(r);
    } catch (const snap::SnapshotError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(Markov, RestoreAcceptsAWellFormedUnboundedEntry)
{
    MarkovPrefetcher pf(0);
    EXPECT_EQ(restoreWithOneUnboundedEntry(pf, 0, 0, 0x1000, 0x1000), "");
    EXPECT_EQ(pf.population(), 1u);
}

TEST(Markov, RestoreRefusesUnboundedEntriesInABoundedStab)
{
    // No lookup of a bounded STAB consults the unbounded map, yet the
    // next save would write its entries back: refuse them.
    MarkovPrefetcher pf(320, 16, 4); // one 16-way set
    ASSERT_EQ(pf.capacityEntries(), 16u);
    const std::string err =
        restoreWithOneUnboundedEntry(pf, 16, 1, 0x1000, 0x1000);
    EXPECT_NE(err.find("Markov unbounded-STAB entries: 1 in a bounded "
                       "STAB"),
              std::string::npos)
        << err;
}

TEST(Markov, RestoreRefusesAnEntryTagThatDiffersFromItsKey)
{
    // allocEntry always stores an unbounded entry under its own tag.
    MarkovPrefetcher pf(0);
    const std::string err =
        restoreWithOneUnboundedEntry(pf, 0, 0, 0x1000, 0x2000);
    EXPECT_NE(err.find("Markov unbounded-STAB entry tag 8192 differs "
                       "from its key 4096"),
              std::string::npos)
        << err;
}

/** Property: a repeating miss cycle is fully predicted once seen. */
class MarkovCycle : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MarkovCycle, CycleFullyLearnedAfterOnePass)
{
    const unsigned len = GetParam();
    MarkovPrefetcher pf(0);
    std::vector<Addr> cycle;
    for (unsigned i = 0; i < len; ++i)
        cycle.push_back(0x100000 + i * 0x1000);
    // Pass 1: training.
    for (Addr a : cycle)
        pf.observeMiss(0, a);
    pf.observeMiss(0, cycle[0]); // closes the loop
    // Pass 2: every miss predicts its successor.
    for (unsigned i = 1; i < len; ++i) {
        const auto preds = pf.observeMiss(0, cycle[i]);
        ASSERT_FALSE(preds.empty()) << "at " << i;
        EXPECT_EQ(preds[0], lineAlign(cycle[(i + 1) % len]));
    }
}

INSTANTIATE_TEST_SUITE_P(Lengths, MarkovCycle,
                         ::testing::Values(2u, 3u, 8u, 64u, 500u));
