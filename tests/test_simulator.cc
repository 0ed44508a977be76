/** @file Unit tests for the Simulator driver. */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>

#include "fuzz_config.hh"
#include "sim/simulator.hh"

using namespace cdp;

namespace
{

SimConfig
smallConfig(const std::string &workload = "b2c")
{
    SimConfig c;
    c.workload = workload;
    c.warmupUops = 5'000;
    c.measureUops = 20'000;
    return c;
}

/** Every counter in @p sim's stats dump: name -> printed value. */
std::map<std::string, std::string>
dumpedCounters(Simulator &sim)
{
    std::ostringstream os;
    sim.stats().dump(os);
    std::map<std::string, std::string> dumped;
    std::istringstream is(os.str());
    for (std::string name, value, rest; is >> name >> value;
         std::getline(is, rest))
        dumped[name] = value;
    return dumped;
}

} // namespace

TEST(Simulator, RunsAndReportsBasicNumbers)
{
    Simulator sim(smallConfig());
    const RunResult r = sim.run();
    EXPECT_EQ(r.workload, "b2c");
    EXPECT_GE(r.uops, 20'000u);
    EXPECT_LE(r.uops, 20'002u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_LE(r.ipc, 3.0); // bounded by issue width
}

TEST(Simulator, MptuMetric)
{
    RunResult r;
    r.uops = 1000;
    r.mem.l2DemandMisses = 5;
    EXPECT_DOUBLE_EQ(r.mptu(), 5.0);
    r.uops = 0;
    EXPECT_DOUBLE_EQ(r.mptu(), 0.0);
}

TEST(Simulator, SpeedupOver)
{
    RunResult fast, slow;
    fast.ipc = 1.2;
    slow.ipc = 1.0;
    EXPECT_DOUBLE_EQ(fast.speedupOver(slow), 1.2);
    slow.ipc = 0.0;
    EXPECT_DOUBLE_EQ(fast.speedupOver(slow), 0.0);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    const SimConfig c = smallConfig("specjbb-vsnet");
    Simulator a(c), b(c);
    const RunResult ra = a.run();
    const RunResult rb = b.run();
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.mem.l2DemandMisses, rb.mem.l2DemandMisses);
    EXPECT_EQ(ra.mem.cdpIssued, rb.mem.cdpIssued);
}

TEST(Simulator, SeedChangesTheRun)
{
    SimConfig c1 = smallConfig("specjbb-vsnet");
    SimConfig c2 = c1;
    c2.workloadSeed = 999;
    Simulator a(c1), b(c2);
    EXPECT_NE(a.run().cycles, b.run().cycles);
}

TEST(Simulator, MeasureFollowsWarmupCounters)
{
    Simulator sim(smallConfig());
    sim.warmup(5'000);
    const RunResult r = sim.measure(10'000);
    EXPECT_GE(r.uops, 10'000u);
    EXPECT_LE(r.uops, 10'002u);
    // Counter deltas, not cumulative totals.
    EXPECT_LE(r.mem.demandLoads, 10'000u);
}

TEST(Simulator, RunChunkReportsDeltas)
{
    Simulator sim(smallConfig());
    const RunResult c1 = sim.runChunk(5'000);
    const RunResult c2 = sim.runChunk(5'000);
    EXPECT_GE(c1.uops, 5'000u);
    EXPECT_GE(c2.uops, 5'000u);
    // Chunks report deltas, not cumulative totals.
    EXPECT_LE(c1.mem.demandLoads, c1.uops);
    EXPECT_LE(c2.mem.demandLoads, c2.uops);
    EXPECT_GT(c1.mem.demandLoads, 0u);
    // Nothing was reset, so the two deltas sum to the cumulative
    // counters, field by field.
    const MemorySystem::Counters &total = sim.memory().counters();
#define CDP_EXPECT_SUM(field, key, desc)                                     \
    EXPECT_EQ(c1.mem.field + c2.mem.field, total.field) << key;
#define CDP_EXPECT_SUM_DEPTH(field, key, desc)                               \
    for (unsigned d = 0; d < provDepthBuckets; ++d)                          \
        EXPECT_EQ(c1.mem.field[d] + c2.mem.field[d], total.field[d])         \
            << key << " depth " << d;
    CDP_MEM_COUNTERS(CDP_EXPECT_SUM, CDP_EXPECT_SUM_DEPTH)
#undef CDP_EXPECT_SUM_DEPTH
#undef CDP_EXPECT_SUM
}

TEST(Simulator, EveryCounterTableRowIsInTheDump)
{
    for (const std::uint64_t seed : {1u, 7u, 23u, 42u}) {
        const SimConfig c = testcfg::randomConfig(seed);
        SCOPED_TRACE("workload=" + c.workload + " seed=" +
                     std::to_string(seed));
        Simulator sim(c);
        sim.warmup(c.warmupUops);
        const RunResult r = sim.measure(c.measureUops);
        const auto dumped = dumpedCounters(sim);
        const auto dumpOf = [&](const std::string &key) {
            const auto it = dumped.find(key);
            return it == dumped.end() ? "<missing>" : it->second;
        };
        const MemorySystem::Counters &ctr = sim.memory().counters();
#define CDP_EXPECT_DUMPED(field, key, desc)                                  \
    EXPECT_EQ(dumpOf(key), std::to_string(ctr.field)) << key;              \
    EXPECT_EQ(r.mem.field, ctr.field) << key;
#define CDP_EXPECT_DUMPED_DEPTH(field, key, desc)                            \
    for (unsigned d = 0; d < provDepthBuckets; ++d) {                        \
        const std::string k = "prov.d" + std::to_string(d) + "." + key;      \
        EXPECT_EQ(dumpOf(k), std::to_string(ctr.field[d])) << k;             \
        EXPECT_EQ(r.mem.field[d], ctr.field[d]) << k;                        \
    }
        CDP_MEM_COUNTERS(CDP_EXPECT_DUMPED, CDP_EXPECT_DUMPED_DEPTH)
#undef CDP_EXPECT_DUMPED_DEPTH
#undef CDP_EXPECT_DUMPED
    }
}

TEST(Simulator, CdpOffMatchesCdpOffBitForBit)
{
    // Two identical configs with cdp disabled: identical timing.
    SimConfig c = smallConfig("verilog-func");
    c.cdp.enabled = false;
    Simulator a(c), b(c);
    EXPECT_EQ(a.run().cycles, b.run().cycles);
}

TEST(Simulator, WorkloadAccessibleComponents)
{
    Simulator sim(smallConfig());
    EXPECT_EQ(std::string(sim.workload().name()), "b2c");
    EXPECT_EQ(sim.memory().l2().sizeBytes(), 1024u * 1024);
    EXPECT_EQ(sim.config().workload, "b2c");
}

TEST(Simulator, UnknownWorkloadThrows)
{
    SimConfig c = smallConfig("not-a-benchmark");
    EXPECT_THROW(Simulator{c}, std::invalid_argument);
}

TEST(Simulator, MarkovConfigurationsConstruct)
{
    SimConfig c = smallConfig();
    c.markov.enabled = true;
    c.markov.stabBytes = 128 * 1024;
    c.mem.l2Bytes = 896 * 1024;
    c.mem.l2Ways = 7;
    c.cdp.enabled = false;
    Simulator sim(c);
    const RunResult r = sim.run();
    EXPECT_GT(r.ipc, 0.0);
    const auto dumped = dumpedCounters(sim);
    ASSERT_TRUE(dumped.contains("markov.observed"));
    EXPECT_GT(std::stoull(dumped.at("markov.observed")), 0u);
}

TEST(Simulator, OnlyListedPrefetchersAreDumped)
{
    // A miss-stream prefetcher the configuration switches off is not
    // built, so none of its stats reach the dump.
    struct Case
    {
        bool stride;
        const char *policy;
        bool markov;
        std::set<std::string> dumped; //!< stats prefixes expected
    };
    const Case cases[] = {
        {true, "stride", false, {"stride"}},
        {false, "stride", false, {}},
        {true, "nextline", false, {"nextline"}},
        {false, "nextline", false, {}},
        {true, "stride", true, {"stride", "markov"}},
        {true, "nextline", true, {"nextline", "markov"}},
        {false, "stride", true, {"markov"}},
    };
    for (const Case &k : cases) {
        SimConfig c = smallConfig();
        c.stride.enabled = k.stride;
        c.stride.policy = k.policy;
        c.markov.enabled = k.markov;
        SCOPED_TRACE(std::string("stride.enabled=") +
                     (k.stride ? "1" : "0") + " stride.policy=" +
                     k.policy + " markov.enabled=" +
                     (k.markov ? "1" : "0"));
        Simulator sim(c);
        sim.run();
        std::set<std::string> prefixes;
        for (const auto &[name, value] : dumpedCounters(sim)) {
            const std::string prefix = name.substr(0, name.find('.'));
            if (prefix == "stride" || prefix == "nextline" ||
                prefix == "markov")
                prefixes.insert(prefix);
        }
        EXPECT_EQ(prefixes, k.dumped);
    }
}
