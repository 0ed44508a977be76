/** @file Unit tests for SimConfig parsing, validation, and the knob
 *  table. */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <type_traits>
#include <vector>

#include "sim/config.hh"
#include "sim/simulator.hh"
#include "snapshot/ckpt_io.hh"

using namespace cdp;

TEST(Config, DefaultsMatchTable1)
{
    const SimConfig c;
    EXPECT_EQ(c.core.issueWidth, 3u);
    EXPECT_EQ(c.core.retireWidth, 3u);
    EXPECT_EQ(c.core.robEntries, 128u);
    EXPECT_EQ(c.core.loadBuffer, 48u);
    EXPECT_EQ(c.core.storeBuffer, 32u);
    EXPECT_EQ(c.core.mispredictPenalty, 28u);
    EXPECT_EQ(c.core.bpEntries, 16384u);
    EXPECT_EQ(c.mem.l1Bytes, 32u * 1024);
    EXPECT_EQ(c.mem.l1Ways, 8u);
    EXPECT_EQ(c.mem.l1Latency, 3u);
    EXPECT_EQ(c.mem.l2Bytes, 1024u * 1024);
    EXPECT_EQ(c.mem.l2Ways, 8u);
    EXPECT_EQ(c.mem.l2Latency, 16u);
    EXPECT_EQ(c.mem.dtlbEntries, 64u);
    EXPECT_EQ(c.mem.dtlbWays, 4u);
    EXPECT_EQ(c.mem.busLatency, 460u);
    EXPECT_EQ(c.mem.busQueueSize, 32u);
    EXPECT_EQ(c.mem.l2QueueSize, 128u);
}

TEST(Config, DefaultsMatchBestCdpConfig)
{
    const SimConfig c;
    EXPECT_TRUE(c.cdp.enabled);
    EXPECT_EQ(c.cdp.vam.compareBits, 8u);
    EXPECT_EQ(c.cdp.vam.filterBits, 4u);
    EXPECT_EQ(c.cdp.vam.alignBits, 1u);
    EXPECT_EQ(c.cdp.vam.scanStep, 2u);
    EXPECT_EQ(c.cdp.depthThreshold, 3u);
    EXPECT_EQ(c.cdp.nextLines, 3u);
    EXPECT_EQ(c.cdp.prevLines, 0u);
    EXPECT_TRUE(c.cdp.reinforce);
    EXPECT_TRUE(c.stride.enabled); // baseline always has stride
    EXPECT_FALSE(c.markov.enabled);
}

TEST(Config, OverridesApply)
{
    SimConfig c;
    EXPECT_TRUE(c.applyOverride("cdp.depth", "5"));
    EXPECT_TRUE(c.applyOverride("cdp.next_lines", "1"));
    EXPECT_TRUE(c.applyOverride("cdp.reinforce", "false"));
    EXPECT_TRUE(c.applyOverride("mem.l2_kb", "512"));
    EXPECT_TRUE(c.applyOverride("markov.enabled", "true"));
    EXPECT_TRUE(c.applyOverride("markov.stab_kb", "128"));
    EXPECT_TRUE(c.applyOverride("workload", "tpcc-2"));
    EXPECT_EQ(c.cdp.depthThreshold, 5u);
    EXPECT_EQ(c.cdp.nextLines, 1u);
    EXPECT_FALSE(c.cdp.reinforce);
    EXPECT_EQ(c.mem.l2Bytes, 512u * 1024);
    EXPECT_TRUE(c.markov.enabled);
    EXPECT_EQ(c.markov.stabBytes, 128u * 1024);
    EXPECT_EQ(c.workload, "tpcc-2");
}

TEST(Config, UnknownKeyReturnsFalse)
{
    SimConfig c;
    EXPECT_FALSE(c.applyOverride("no.such.key", "1"));
}

namespace
{

/** The key of the ConfigError that setting @p key to @p value and
 *  validating throws; empty when nothing throws. */
std::string
rejectedKey(const std::string &key, const std::string &value)
{
    SimConfig c;
    try {
        c.applyOverride(key, value);
        c.validate();
    } catch (const ConfigError &e) {
        EXPECT_EQ(std::string(e.what()).rfind(e.key(), 0), 0u) << e.what();
        return e.key();
    }
    return "";
}

} // namespace

TEST(Config, BoolParsingVariants)
{
    SimConfig c;
    for (const char *t : {"1", "true", "on", "yes"}) {
        c.cdp.enabled = false;
        c.applyOverride("cdp.enabled", t);
        EXPECT_TRUE(c.cdp.enabled) << t;
    }
    for (const char *f : {"0", "false", "off", "no"}) {
        c.cdp.enabled = true;
        c.applyOverride("cdp.enabled", f);
        EXPECT_FALSE(c.cdp.enabled) << f;
    }
    // The vocabulary is closed: a typo is an error, not "false".
    for (const char *bad : {"treu", "", "TRUE", "2"})
        EXPECT_EQ(rejectedKey("cdp.enabled", bad), "cdp.enabled") << bad;
}

TEST(Config, ParseArgsAcceptsKeyValueVector)
{
    SimConfig c;
    const char *argv[] = {"prog", "cdp.depth=9", "seed=42"};
    c.parseArgs(3, const_cast<char **>(argv));
    EXPECT_EQ(c.cdp.depthThreshold, 9u);
    EXPECT_EQ(c.workloadSeed, 42u);
}

TEST(Config, ParseArgsRejectsMalformed)
{
    SimConfig c;
    const char *bad1[] = {"prog", "cdp.depth"};
    EXPECT_THROW(c.parseArgs(2, const_cast<char **>(bad1)),
                 std::invalid_argument);
    const char *bad2[] = {"prog", "bogus.key=1"};
    EXPECT_THROW(c.parseArgs(2, const_cast<char **>(bad2)),
                 std::invalid_argument);
}

TEST(Config, ScaleRunLength)
{
    SimConfig c;
    c.warmupUops = 1000;
    c.measureUops = 2000;
    c.scaleRunLength(2.5);
    EXPECT_EQ(c.warmupUops, 2500u);
    EXPECT_EQ(c.measureUops, 5000u);
    EXPECT_THROW(c.scaleRunLength(0.0), std::invalid_argument);
}

TEST(Config, ScaleNeverReachesZero)
{
    SimConfig c;
    c.warmupUops = 10;
    c.measureUops = 10;
    c.scaleRunLength(0.001);
    EXPECT_GE(c.warmupUops, 1u);
    EXPECT_GE(c.measureUops, 1u);
}

namespace
{

/** Parse summary() output back into a default config. */
SimConfig
parseSummary(const std::string &summary)
{
    SimConfig parsed;
    std::istringstream lines(summary);
    for (std::string line; std::getline(lines, line);) {
        const auto eq = line.find('=');
        EXPECT_NE(eq, std::string::npos) << line;
        EXPECT_TRUE(parsed.applyOverride(line.substr(0, eq),
                                         line.substr(eq + 1)))
            << line;
    }
    return parsed;
}

/** Values to try, in order, when moving @p k off its value in @p c. */
std::vector<std::string>
candidates(const Knob &k, SimConfig &c)
{
    return std::visit(
        [&k](auto *f) -> std::vector<std::string> {
            using T = std::remove_pointer_t<decltype(f)>;
            if constexpr (std::is_same_v<T, bool>) {
                return {*f ? "false" : "true"};
            } else if constexpr (std::is_same_v<T, double>) {
                return {std::to_string(*f / 2), std::to_string(*f * 2)};
            } else if constexpr (std::is_same_v<T, std::string>) {
                if (!k.choices)
                    return {"b2c"};
                std::vector<std::string> out;
                std::istringstream words(k.choices);
                for (std::string w; std::getline(words, w, '|');)
                    out.push_back(w);
                return out;
            } else {
                const std::uint64_t d = *f / k.scale;
                std::vector<std::string> out;
                for (const std::uint64_t v :
                     {d / 2, d * 2, d + 1, d - 1, k.min, k.max})
                    out.push_back(std::to_string(v));
                return out;
            }
        },
        k.field(c));
}

} // namespace

TEST(Config, IntegersParseStrictly)
{
    for (const char *bad : {"-1", "+3", "12abc", "", " 3", "3 ", "0x10",
                            "1e3", "99999999999999999999"})
        EXPECT_EQ(rejectedKey("core.issue_width", bad), "core.issue_width")
            << "'" << bad << "'";
    EXPECT_EQ(rejectedKey("cdp.depth", "-1"), "cdp.depth");
    EXPECT_EQ(rejectedKey("adaptive.low_accuracy", "0.1x"),
              "adaptive.low_accuracy");
    EXPECT_EQ(rejectedKey("adaptive.low_accuracy", "nan"),
              "adaptive.low_accuracy");
    EXPECT_EQ(rejectedKey("scale", "0"), "scale");
    EXPECT_EQ(rejectedKey("sched.mode", "Wheel"), "sched.mode");
}

TEST(Config, RangesAreCheckedAtParseTime)
{
    for (const char *key : {"core.rob", "core.load_buffer",
                            "core.issue_width", "core.retire_width",
                            "mem.bus_occupancy", "mem.l1_ways",
                            "stride.entries", "cdp.scan_step"})
        EXPECT_EQ(rejectedKey(key, "0"), key);
    EXPECT_EQ(rejectedKey("cdp.align_bits", "5"), "cdp.align_bits");
    EXPECT_EQ(rejectedKey("adaptive.high_accuracy", "1.5"),
              "adaptive.high_accuracy");
    // Guarded knobs the CLI could not reach before are settable.
    SimConfig c;
    EXPECT_TRUE(c.applyOverride("core.retire_width", "2"));
    EXPECT_TRUE(c.applyOverride("mem.l1_ways", "4"));
    EXPECT_NO_THROW(c.validate());
    EXPECT_EQ(c.core.retireWidth, 2u);
    EXPECT_EQ(c.mem.l1Ways, 4u);
}

TEST(Config, CrossKnobRulesNameTheKnob)
{
    EXPECT_EQ(rejectedKey("mem.l2_kb", "1000"), "mem.l2_kb");
    EXPECT_EQ(rejectedKey("mem.l1_ways", "3"), "mem.l1_kb");
    EXPECT_EQ(rejectedKey("mem.dtlb_ways", "3"), "mem.dtlb_entries");
    EXPECT_EQ(rejectedKey("core.bp_entries", "1000"), "core.bp_entries");
    EXPECT_EQ(rejectedKey("cdp.filter_bits", "30"), "cdp.filter_bits");
    EXPECT_EQ(rejectedKey("adaptive.low_accuracy", "0.9"),
              "adaptive.low_accuracy");
    EXPECT_EQ(rejectedKey("adaptive.min_next_lines", "9"),
              "adaptive.min_next_lines");
    // Simulator construction runs the same check before building.
    SimConfig c;
    c.mem.l2Bytes = 1000 * 1024;
    try {
        Simulator sim(c);
        FAIL() << "bad geometry accepted";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.key(), "mem.l2_kb");
    }
}

TEST(Config, EveryFieldHasOneRow)
{
    SimConfig c;
    std::set<std::string> keys;
    std::set<const void *> fields;
    for (const Knob &k : knobTable()) {
        EXPECT_TRUE(keys.insert(k.key).second) << k.key;
        EXPECT_TRUE(fields.insert(std::visit([](auto *f) {
                                      return static_cast<const void *>(f);
                                  }, k.field(c)))
                        .second)
            << k.key;
        EXPECT_EQ(findKnob(k.key), &k);
        EXPECT_NE(knobHelp().find(k.key), std::string::npos) << k.key;
    }
    EXPECT_EQ(findKnob("no.such.key"), nullptr);
}

TEST(Config, SummaryRoundTripsEveryKnob)
{
    // Move every row off its default by key, one at a time, keeping
    // the accumulated config valid.
    SimConfig all;
    for (const Knob &k : knobTable()) {
        SCOPED_TRACE(k.key);
        bool moved = false;
        for (const std::string &v : candidates(k, all)) {
            SimConfig trial = all;
            try {
                trial.applyOverride(k.key, v);
                trial.validate();
            } catch (const ConfigError &) {
                continue;
            }
            if (trial == all)
                continue;
            EXPECT_EQ(parseSummary(trial.summary()), trial);
            all = trial;
            moved = true;
            break;
        }
        EXPECT_TRUE(moved) << "no in-range non-default value";
    }
    EXPECT_EQ(parseSummary(all.summary()), all);

    // The same config survives a checkpoint: CFG! agrees on every
    // guarded knob and MSYS carries the live cdp knobs.
    Simulator a(all);
    a.warmup(2'000);
    a.quiesce();
    std::stringstream bytes;
    a.saveCheckpoint(bytes);
    Simulator b(all);
    b.restoreCheckpoint(bytes);
    EXPECT_EQ(b.memory().contentPf().config(),
              a.memory().contentPf().config());

    // ... and refuses a machine that differs in any one guarded knob.
    for (const Knob &k : knobTable()) {
        if (!k.guarded)
            continue;
        SCOPED_TRACE(k.key);
        SimConfig other = all;
        k.set(other, k.get(SimConfig{}));
        Simulator c(other);
        std::istringstream is(bytes.str());
        try {
            c.restoreCheckpoint(is);
            ADD_FAILURE() << "guarded knob mismatch accepted";
        } catch (const snap::SnapshotError &e) {
            EXPECT_NE(std::string(e.what()).find(k.key),
                      std::string::npos)
                << e.what();
        }
    }
}
