/** @file
 * Configuration-fuzz property tests: short simulations across
 * randomized machine/prefetcher configurations must never crash,
 * hang, or violate basic accounting invariants; configurations with
 * one knob out of range must fail fast with an error naming it.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "fuzz_config.hh"
#include "sim/memory_system.hh"
#include "sim/simulator.hh"

using namespace cdp;
using cdp::testcfg::randomConfig;

namespace
{

void
checkInvariants(const RunResult &r, const SimConfig &c)
{
    // Retired what was asked (within retire-width slop).
    EXPECT_GE(r.uops, c.measureUops);
    EXPECT_LE(r.uops, c.measureUops + c.core.retireWidth);
    // IPC bounded by the machine width.
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_LE(r.ipc, static_cast<double>(c.core.issueWidth) + 0.01);
    const auto &m = r.mem;
    // Masks cannot exceed demand L2 activity.
    EXPECT_LE(m.maskFullCdp + m.maskPartialCdp + m.maskFullStride +
                  m.maskPartialStride,
              m.l2DemandAccesses);
    // Adjusted subsets are subsets.
    EXPECT_LE(m.cdpIssuedOverlap, m.cdpIssued);
    EXPECT_LE(m.cdpUsefulOverlap, m.cdpUseful);
    // Misses cannot exceed accesses; L1 misses bound L2 accesses
    // from above only when stores are excluded, so just sanity-check
    // ordering of the big counters.
    EXPECT_LE(m.l2DemandMisses, m.l2DemandAccesses);
    // A disabled content prefetcher issues nothing.
    if (!c.cdp.enabled) {
        EXPECT_EQ(m.cdpIssued, 0u);
        EXPECT_EQ(m.rescans, 0u);
    }
    // strideIssued aggregates both history prefetchers (the Markov
    // prefetcher issues in the stride priority class).
    if (!c.stride.enabled && !c.markov.enabled) {
        EXPECT_EQ(m.strideIssued, 0u);
    }
    if (!c.pollution.enabled) {
        EXPECT_EQ(m.pollutionInjected, 0u);
    }
}

} // namespace

class ConfigFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ConfigFuzz, ShortRunHoldsInvariants)
{
    const SimConfig c = randomConfig(GetParam());
    SCOPED_TRACE("workload=" + c.workload + " seed=" +
                 std::to_string(GetParam()));
    Simulator sim(c);
    const RunResult r = sim.run();
    checkInvariants(r, c);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigFuzz,
                         ::testing::Range<std::uint64_t>(1, 25));

class ConfigFuzzTrace : public ::testing::TestWithParam<std::uint64_t>
{
};

/**
 * Randomized pass with the lifecycle tracer enabled: whatever the
 * configuration, the captured event stream must be well formed —
 * every issued transaction either fills exactly once (at or after its
 * issue cycle, with the same provenance root) or, for arbiter grants,
 * is explicitly dropped. Tracing must also leave results untouched.
 */
TEST_P(ConfigFuzzTrace, TraceIsWellFormed)
{
    SimConfig c = randomConfig(GetParam());
    SCOPED_TRACE("workload=" + c.workload + " seed=" +
                 std::to_string(GetParam()));

    SimConfig traced = c;
    traced.trace.enabled = true;
    traced.trace.bufferEvents = 1u << 20;
    Simulator sim(traced);
    const RunResult r = sim.run();
    if (!sim.memory().tracer().active())
        GTEST_SKIP() << "tracer compiled out (CDP_ENABLE_TRACE=OFF)";

    // Pure observer: identical results to the untraced twin.
    {
        Simulator plain(c);
        const RunResult rp = plain.run();
        ASSERT_EQ(r.cycles, rp.cycles);
        ASSERT_EQ(r.mem.cdpIssued, rp.mem.cdpIssued);
    }

    // Settle outstanding transactions so every issue can complete.
    sim.memory().drainAll(sim.core().currentCycle());
    const obs::Tracer &trc = sim.memory().tracer();
    ASSERT_EQ(trc.dropped(), 0u) << "event buffer too small";
    const std::vector<obs::TraceEvent> events = trc.snapshot();
    ASSERT_FALSE(events.empty());

    std::unordered_map<ReqId, const obs::TraceEvent *> issues;
    std::unordered_set<ReqId> filledIds, dropIds;
    std::vector<ReqId> grants;
    for (const obs::TraceEvent &e : events) {
        switch (e.kindOf()) {
        case obs::EventKind::Issue:
            EXPECT_TRUE(issues.emplace(e.id, &e).second)
                << "duplicate issue id " << e.id;
            break;
        case obs::EventKind::Fill: {
            const auto it = issues.find(e.id);
            ASSERT_NE(it, issues.end())
                << "fill without issue, id " << e.id;
            EXPECT_GE(e.cycle, it->second->cycle);
            EXPECT_EQ(e.root, it->second->root);
            EXPECT_TRUE(filledIds.insert(e.id).second)
                << "double fill, id " << e.id;
            break;
        }
        case obs::EventKind::Drop:
            dropIds.insert(e.id);
            break;
        case obs::EventKind::ArbGrant:
            grants.push_back(e.id);
            break;
        default:
            break;
        }
    }
    // After the drain, every issue has its matching completion.
    EXPECT_EQ(filledIds.size(), issues.size());
    // Every grant either issued or was explicitly dropped.
    for (const ReqId id : grants) {
        EXPECT_TRUE(issues.count(id) || dropIds.count(id))
            << "granted id " << id << " vanished silently";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigFuzzTrace,
                         ::testing::Range<std::uint64_t>(1, 9));

class ConfigFuzzCheckpoint
    : public ::testing::TestWithParam<std::uint64_t>
{
};

/**
 * The differential-equivalence net over random configurations: for
 * any valid machine, (warm → quiesce → measure) straight through must
 * be byte-identical to (warm → quiesce → checkpoint → restore into a
 * fresh machine → measure). Both the pre-measure state (full stats
 * dump, current cycle) and everything measured afterwards have to
 * agree exactly.
 */
TEST_P(ConfigFuzzCheckpoint, RestoredRunIsByteIdentical)
{
    const SimConfig c = randomConfig(GetParam());
    SCOPED_TRACE("workload=" + c.workload + " seed=" +
                 std::to_string(GetParam()));

    const auto dump = [](Simulator &sim) {
        std::ostringstream os;
        sim.stats().dump(os);
        return os.str();
    };

    Simulator straight(c);
    straight.warmup(c.warmupUops);
    straight.quiesce();
    std::stringstream bytes;
    straight.saveCheckpoint(bytes);
    // measure() resets the stats, so capture the warm state now.
    const std::string preStraight = dump(straight);

    Simulator forked(c);
    forked.restoreCheckpoint(bytes);
    ASSERT_EQ(preStraight, dump(forked));
    ASSERT_EQ(straight.core().currentCycle(),
              forked.core().currentCycle());

    const RunResult rs = straight.measure(c.measureUops);
    const RunResult rf = forked.measure(c.measureUops);
    EXPECT_EQ(rs.cycles, rf.cycles);
    EXPECT_EQ(rs.uops, rf.uops);
    EXPECT_EQ(rs.mem.l2DemandMisses, rf.mem.l2DemandMisses);
    EXPECT_EQ(rs.mem.cdpIssued, rf.mem.cdpIssued);
    EXPECT_EQ(rs.mem.cdpUseful, rf.mem.cdpUseful);
    EXPECT_EQ(rs.mem.strideIssued, rf.mem.strideIssued);
    EXPECT_EQ(rs.mem.rescans, rf.mem.rescans);
    EXPECT_EQ(rs.mem.pollutionInjected, rf.mem.pollutionInjected);
    EXPECT_EQ(dump(straight), dump(forked));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigFuzzCheckpoint,
                         ::testing::Range<std::uint64_t>(1, 52));

class ConfigFuzzCheckpointTrace
    : public ::testing::TestWithParam<std::uint64_t>
{
};

/**
 * Traced variant of the differential net: with the lifecycle tracer
 * on, the measured phase's event stream — ids, cycles, provenance
 * roots, everything — must be byte-identical between the straight
 * and the restored leg. The straight machine's buffer is cleared at
 * the checkpoint boundary so both legs trace from the same point.
 */
TEST_P(ConfigFuzzCheckpointTrace, MeasuredEventStreamIsByteIdentical)
{
    SimConfig c = randomConfig(GetParam());
    c.trace.enabled = true;
    c.trace.bufferEvents = 1u << 20;
    SCOPED_TRACE("workload=" + c.workload + " seed=" +
                 std::to_string(GetParam()));

    Simulator straight(c);
    straight.warmup(c.warmupUops);
    straight.quiesce();
    if (!straight.memory().tracer().active())
        GTEST_SKIP() << "tracer compiled out (CDP_ENABLE_TRACE=OFF)";
    std::stringstream bytes;
    straight.saveCheckpoint(bytes);
    straight.memory().tracer().clear();

    Simulator forked(c);
    forked.restoreCheckpoint(bytes);

    const RunResult rs = straight.measure(c.measureUops);
    const RunResult rf = forked.measure(c.measureUops);
    ASSERT_EQ(rs.cycles, rf.cycles);
    straight.memory().drainAll(straight.core().currentCycle());
    forked.memory().drainAll(forked.core().currentCycle());

    ASSERT_EQ(straight.memory().tracer().dropped(), 0u);
    ASSERT_EQ(forked.memory().tracer().dropped(), 0u);
    const std::vector<obs::TraceEvent> es =
        straight.memory().tracer().snapshot();
    const std::vector<obs::TraceEvent> ef =
        forked.memory().tracer().snapshot();
    ASSERT_EQ(es.size(), ef.size());
    // TraceEvent is a 40-byte POD with explicit zero padding, so the
    // streams can be compared as raw bytes.
    EXPECT_EQ(0, std::memcmp(es.data(), ef.data(),
                             es.size() * sizeof(obs::TraceEvent)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigFuzzCheckpointTrace,
                         ::testing::Range<std::uint64_t>(1, 9));

class ConfigFuzzInvalid : public ::testing::TestWithParam<std::uint64_t>
{
};

/**
 * The invalid-config axis: one knob-table row pushed out of range must
 * end in a ConfigError naming that row — from validate() and from the
 * Simulator constructor, before any machine is built — never in a
 * hang, a crash, or a run with values nobody asked for.
 */
TEST_P(ConfigFuzzInvalid, OutOfRangeKnobIsNamed)
{
    const testcfg::InvalidConfig bad = testcfg::invalidConfig(GetParam());
    SCOPED_TRACE("key=" + bad.key + " seed=" + std::to_string(GetParam()));
    try {
        bad.cfg.validate();
        FAIL() << "validate() accepted an out-of-range knob";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.key(), bad.key) << e.what();
    }
    try {
        Simulator sim(bad.cfg);
        FAIL() << "Simulator accepted an out-of-range knob";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.key(), bad.key) << e.what();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigFuzzInvalid,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(ConfigFuzzDeterminism, SameSeedSameResult)
{
    for (std::uint64_t seed : {3u, 11u, 19u}) {
        const SimConfig c = randomConfig(seed);
        Simulator a(c), b(c);
        const RunResult ra = a.run();
        const RunResult rb = b.run();
        EXPECT_EQ(ra.cycles, rb.cycles) << "seed " << seed;
        EXPECT_EQ(ra.mem.cdpIssued, rb.mem.cdpIssued) << "seed "
                                                      << seed;
    }
}
