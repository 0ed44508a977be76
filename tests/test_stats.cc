/** @file Unit tests for the statistics package. */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "snapshot/ckpt_io.hh"
#include "stats/stat.hh"

using namespace cdp;

TEST(Scalar, StartsAtZero)
{
    StatGroup g;
    Scalar s(g, "s", "d");
    EXPECT_EQ(s.value(), 0u);
}

TEST(Scalar, IncrementAndAdd)
{
    StatGroup g;
    Scalar s(g, "s", "d");
    ++s;
    s += 41;
    EXPECT_EQ(s.value(), 42u);
}

TEST(Scalar, SetOverwrites)
{
    StatGroup g;
    Scalar s(g, "s", "d");
    s += 10;
    s.set(3);
    EXPECT_EQ(s.value(), 3u);
}

TEST(Scalar, ResetZeroes)
{
    StatGroup g;
    Scalar s(g, "s", "d");
    s += 7;
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Scalar, NameAndDescStored)
{
    StatGroup g;
    Scalar s(g, "core.loads", "demand loads");
    s += 3;
    std::ostringstream os;
    g.dump(os);
    const std::string line = os.str();
    EXPECT_EQ(line.rfind("core.loads ", 0), 0u) << line;
    EXPECT_NE(line.find(" 3  # demand loads\n"), std::string::npos) << line;
}

TEST(StatGroup, ResetAllCoversEveryScalar)
{
    StatGroup g;
    Scalar a(g, "a", ""), b(g, "b", "");
    a += 1;
    b += 2;
    g.resetAll();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(b.value(), 0u);
}

TEST(StatGroup, FindScalarByName)
{
    StatGroup g;
    Scalar a(g, "alpha", ""), b(g, "beta", "");
    b += 9;
    const std::uint64_t *f = g.find("beta");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(*f, 9u);
    EXPECT_EQ(g.find("gamma"), nullptr);
}

TEST(StatGroup, DumpContainsNamesSorted)
{
    StatGroup g;
    Scalar z(g, "zeta", ""), a(g, "alpha", "");
    z += 1;
    std::ostringstream os;
    g.dump(os);
    const std::string out = os.str();
    const auto pos_a = out.find("alpha");
    const auto pos_z = out.find("zeta");
    ASSERT_NE(pos_a, std::string::npos);
    ASSERT_NE(pos_z, std::string::npos);
    EXPECT_LT(pos_a, pos_z);
}

TEST(StatGroup, RegisteredWordIsDumpedResetAndFound)
{
    StatGroup g;
    std::uint64_t word = 5;
    Scalar b(g, "b", "");
    g.add("a", "a counter kept elsewhere", &word);
    std::ostringstream os;
    g.dump(os);
    // Registered words sort among the scalars and print as integers.
    EXPECT_EQ(os.str().rfind("a ", 0), 0u) << os.str();
    EXPECT_NE(os.str().find(" 5  # a counter kept elsewhere\n"),
              std::string::npos)
        << os.str();
    ASSERT_EQ(g.find("a"), &word);
    g.resetAll();
    EXPECT_EQ(word, 0u);
}

namespace
{

/** A STAT section listing the counters @p names, each with value 7. */
std::string
statSection(const std::vector<std::string> &names)
{
    std::ostringstream os;
    snap::Writer w(os);
    w.beginSection("STAT");
    w.u64(names.size());
    for (const std::string &n : names) {
        w.str(n);
        w.u64(7);
    }
    w.u64(0); // no distributions
    w.endSection();
    w.finish();
    return os.str();
}

/** The SnapshotError message of loading @p bytes into @p g. */
std::string
loadError(StatGroup &g, const std::string &bytes)
{
    std::istringstream is(bytes);
    snap::Reader r(is);
    r.enterSection("STAT");
    try {
        g.loadValues(r);
    } catch (const snap::SnapshotError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(StatGroup, LoadValuesRoundTrips)
{
    StatGroup g;
    Scalar a(g, "a", ""), b(g, "b", "");
    std::istringstream is(statSection({"a", "b"}));
    snap::Reader r(is);
    r.enterSection("STAT");
    g.loadValues(r);
    r.leaveSection();
    EXPECT_EQ(a.value(), 7u);
    EXPECT_EQ(b.value(), 7u);
}

TEST(StatGroup, LoadValuesRejectsARepeatedName)
{
    // The count matches, but "a" twice would leave "b" unrestored.
    StatGroup g;
    Scalar a(g, "a", ""), b(g, "b", "");
    const std::string err = loadError(g, statSection({"a", "a"}));
    EXPECT_NE(err.find("stat 'a' appears twice"), std::string::npos)
        << err;
}

TEST(StatGroup, LoadValuesRejectsNamesOutOfOrder)
{
    StatGroup g;
    Scalar a(g, "a", ""), b(g, "b", ""), c(g, "c", "");
    const std::string err = loadError(g, statSection({"a", "b", "a"}));
    EXPECT_NE(err.find("stat 'a' is out of order"), std::string::npos)
        << err;
}

TEST(StatGroup, LoadValuesNamesAnUnknownOrMissingStat)
{
    StatGroup g;
    Scalar a(g, "a", ""), c(g, "c", "");
    EXPECT_NE(loadError(g, statSection({"a", "b"})).find("'b' is unknown"),
              std::string::npos);
    EXPECT_NE(loadError(g, statSection({"a", "d"}))
                  .find("'c' is missing from the checkpoint"),
              std::string::npos);
}

TEST(Distribution, CountsMeanMinMax)
{
    StatGroup g;
    Distribution d(g, "d", "", 0, 10, 10);
    d.sample(1);
    d.sample(3);
    d.sample(8);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 4.0);
    EXPECT_EQ(d.min(), 1u);
    EXPECT_EQ(d.max(), 8u);
}

TEST(Distribution, UnderflowOverflowBuckets)
{
    StatGroup g;
    Distribution d(g, "d", "", 2, 12, 5);
    d.sample(1);
    d.sample(12); // hi is exclusive
    d.sample(99);
    EXPECT_EQ(d.underflow(), 1u);
    EXPECT_EQ(d.overflow(), 2u);
    EXPECT_EQ(d.count(), 3u);
}

TEST(Distribution, BucketPlacement)
{
    StatGroup g;
    Distribution d(g, "d", "", 0, 20, 10);
    d.sample(0);
    d.sample(1);
    d.sample(19);
    EXPECT_EQ(d.buckets()[0], 2u);
    EXPECT_EQ(d.buckets()[9], 1u);

    // Every value of [0, 700) lands in bucket v / 7.
    Distribution e(g, "e", "", 0, 700, 100);
    for (std::uint64_t v = 0; v < 700; ++v)
        e.sample(v);
    for (const std::uint64_t b : e.buckets())
        EXPECT_EQ(b, 7u);
}

TEST(Distribution, ResetClearsEverything)
{
    StatGroup g;
    Distribution d(g, "d", "", 0, 4, 4);
    d.sample(2);
    d.sample(5);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.overflow(), 0u);
    for (auto b : d.buckets())
        EXPECT_EQ(b, 0u);
}

TEST(Distribution, DumpLineIsPinned)
{
    // mem.load_latency's geometry: 16 buckets of 50 cycles. The line
    // is the one the double-valued histogram printed, so every stats
    // dump and golden keeps its bytes.
    StatGroup g;
    Distribution d(g, "mem.load_latency", "", 0, 800, 16);
    for (const std::uint64_t v : {0, 3, 16, 799, 800, 2000})
        d.sample(v);
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(),
              "mem.load_latency count=6 mean=603.000000 min=0.000000 "
              "max=2000.000000 buckets=[3 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1] "
              "under=0 over=2\n");
}

TEST(Distribution, PrintMentionsNameAndCount)
{
    StatGroup g;
    Distribution d(g, "lat", "", 0, 4, 2);
    d.sample(1);
    std::ostringstream os;
    d.print(os);
    EXPECT_NE(os.str().find("lat"), std::string::npos);
    EXPECT_NE(os.str().find("count=1"), std::string::npos);
}
