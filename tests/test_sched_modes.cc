/** @file
 * Scheduler-mode tests: the differential-equivalence net between the
 * wheel (idle-skipping) and legacy (tick-every-cycle) simulation
 * modes. The two modes must produce byte-identical statistics on any
 * valid configuration — that is the entire correctness argument for
 * skipping cycles (DESIGN.md §12). Also pins the bus order the
 * pending-fill FIFO relies on.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_map>

#include "fuzz_config.hh"
#include "sim/memory_system.hh"
#include "sim/simulator.hh"

using namespace cdp;
using cdp::testcfg::randomConfig;

namespace
{

std::string
dumpStats(Simulator &sim)
{
    std::ostringstream os;
    sim.stats().dump(os);
    return os.str();
}

} // namespace

/**
 * The differential net: for every fuzzed configuration, a full
 * warm-up + measurement under the wheel scheduler must be
 * byte-identical — the complete stats dump, including the per-depth
 * provenance histograms — to the same run under the legacy
 * tick-every-cycle loop.
 */
class WheelVsLegacy : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(WheelVsLegacy, StatsDumpsAreByteIdentical)
{
    SimConfig c = randomConfig(GetParam());
    SCOPED_TRACE("workload=" + c.workload + " seed=" +
                 std::to_string(GetParam()));

    c.sched.mode = "wheel";
    Simulator wheel(c);
    const RunResult rw = wheel.run();

    c.sched.mode = "legacy";
    Simulator legacy(c);
    const RunResult rl = legacy.run();

    EXPECT_EQ(rw.cycles, rl.cycles);
    EXPECT_EQ(rw.uops, rl.uops);
    EXPECT_EQ(dumpStats(wheel), dumpStats(legacy));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WheelVsLegacy,
                         ::testing::Range<std::uint64_t>(1, 52));

/**
 * Directed idle-skip stress: a workload dominated by non-memory uops
 * leaves the memory system idle for long stretches, which is exactly
 * where the wheel must (a) skip work and (b) change nothing. The
 * legacy loop calls advance() every core cycle; the wheel must do
 * strictly less while producing an identical dump.
 */
TEST(WheelIdleSkip, SkipsAdvanceCallsWithoutChangingStats)
{
    SimConfig c;
    c.workload = "speech"; // lowest-MPTU workload in the suite
    c.warmupUops = 5'000;
    c.measureUops = 50'000;

    c.sched.mode = "wheel";
    Simulator wheel(c);
    const RunResult rw = wheel.run();

    c.sched.mode = "legacy";
    Simulator legacy(c);
    const RunResult rl = legacy.run();

    EXPECT_EQ(rw.cycles, rl.cycles);
    EXPECT_EQ(dumpStats(wheel), dumpStats(legacy));

    // The whole point: the wheel does strictly fewer full advances.
    EXPECT_LT(wheel.memory().fullAdvanceCount(),
              legacy.memory().fullAdvanceCount());
    // And the legacy loop never takes the skip path.
    EXPECT_EQ(legacy.memory().skippedAdvanceCount(), 0u);
}

/**
 * Cross-mode checkpoint equivalence: a checkpoint written by a
 * wheel-mode machine restores into a legacy-mode machine (and vice
 * versa) and both measure byte-identically afterwards. The scheduler
 * mode is a host-side policy, not architectural state, so it lives
 * outside the checkpoint's config-compatibility guard.
 */
class WheelCheckpointCross
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(WheelCheckpointCross, RestoreAcrossSchedulerModes)
{
    SimConfig c = randomConfig(GetParam());
    SCOPED_TRACE("workload=" + c.workload + " seed=" +
                 std::to_string(GetParam()));

    c.sched.mode = "wheel";
    Simulator wheel(c);
    wheel.warmup(c.warmupUops);
    wheel.quiesce();
    std::stringstream bytes;
    wheel.saveCheckpoint(bytes);

    SimConfig cl = c;
    cl.sched.mode = "legacy";
    Simulator legacy(cl);
    legacy.restoreCheckpoint(bytes);

    const RunResult rw = wheel.measure(c.measureUops);
    const RunResult rl = legacy.measure(c.measureUops);
    EXPECT_EQ(rw.cycles, rl.cycles);
    EXPECT_EQ(rw.uops, rl.uops);
    EXPECT_EQ(dumpStats(wheel), dumpStats(legacy));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WheelCheckpointCross,
                         ::testing::Range<std::uint64_t>(1, 9));

/**
 * The order the pending-fill FIFO depends on (DESIGN.md §12): every
 * fill is minted by the single front-side bus, so fills complete in
 * strictly increasing cycles, each after its own issue. Fuzzed
 * machines with pollution injection, Markov and a small DTLB (so
 * page-walk fills interleave with demand and prefetch fills) must
 * show exactly that in the lifecycle trace.
 */
class FillOrder : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FillOrder, FillsCompleteInStrictBusOrder)
{
    SimConfig c = randomConfig(GetParam());
    SCOPED_TRACE("workload=" + c.workload + " seed=" +
                 std::to_string(GetParam()));
    c.pollution.enabled = true;
    c.markov.enabled = true;
    c.mem.dtlbEntries = 32;
    c.trace.enabled = true;
    c.trace.bufferEvents = 1u << 20;

    Simulator sim(c);
    (void)sim.run();
    if (!sim.memory().tracer().active())
        GTEST_SKIP() << "tracer compiled out (CDP_ENABLE_TRACE=OFF)";
    sim.memory().drainAll(sim.core().currentCycle());
    const obs::Tracer &trc = sim.memory().tracer();
    ASSERT_EQ(trc.dropped(), 0u) << "event buffer too small";

    std::unordered_map<ReqId, Cycle> issued;
    std::size_t fills = 0, walkFills = 0;
    Cycle lastFill = 0;
    for (const obs::TraceEvent &e : trc.snapshot()) {
        if (e.kindOf() == obs::EventKind::Issue) {
            issued.emplace(e.id, e.cycle);
            continue;
        }
        if (e.kindOf() != obs::EventKind::Fill)
            continue;
        if (fills++ != 0) {
            EXPECT_LT(lastFill, e.cycle) << "fill id " << e.id;
        }
        lastFill = e.cycle;
        const auto it = issued.find(e.id);
        ASSERT_NE(it, issued.end()) << "fill before its issue, id "
                                    << e.id;
        EXPECT_LT(it->second, e.cycle) << "fill id " << e.id;
        walkFills += e.typeOf() == ReqType::PageWalk;
    }
    // The run exercised every fill source the FIFO interleaves.
    EXPECT_GT(fills, 0u);
    EXPECT_GT(walkFills, 0u);
    EXPECT_GT(sim.memory().counters().pollutionInjected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FillOrder,
                         ::testing::Range<std::uint64_t>(1, 9));
