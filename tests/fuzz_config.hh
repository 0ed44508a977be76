/** @file
 * Shared configuration fuzzer for the property-test nets.
 *
 * randomConfig(seed) maps a seed to a random-but-valid SimConfig.
 * Multiple test binaries (test_fuzz, test_sched_modes) draw from the
 * same distribution so a seed reported by one net reproduces in the
 * others. invalidConfig(seed) derives a config with one knob out of
 * range from it, for the invalid-config axis.
 *
 * Draw-order contract: new knobs must be drawn AFTER all existing
 * ones. Every draw consumes RNG state, so inserting one in the middle
 * silently reshuffles every configuration behind existing seeds and
 * invalidates triaged repro seeds.
 */

#ifndef CDP_TESTS_FUZZ_CONFIG_HH
#define CDP_TESTS_FUZZ_CONFIG_HH

#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/rng.hh"
#include "sim/config.hh"

namespace cdp::testcfg
{

/** Random-but-valid configuration from a seed. */
inline SimConfig
randomConfig(std::uint64_t seed)
{
    Rng rng(seed);
    SimConfig c;

    const char *workloads[] = {"b2c", "quake", "tpcc-2",
                               "verilog-gate", "specjbb-vsnet",
                               "xgraph", "xbtree", "speech"};
    c.workload = workloads[rng.below(std::size(workloads))];
    c.workloadSeed = 1 + rng.below(5);
    c.warmupUops = 2'000 + rng.below(10'000);
    c.measureUops = 10'000 + rng.below(30'000);

    // Machine geometry (kept valid: pow2 sets everywhere).
    const std::uint64_t l2_opts[] = {256, 512, 1024, 2048};
    c.mem.l2Bytes = l2_opts[rng.below(4)] * 1024;
    const unsigned tlb_opts[] = {32, 64, 128, 256};
    c.mem.dtlbEntries = tlb_opts[rng.below(4)];
    c.mem.busLatency = 100 + rng.below(600);
    c.mem.busOccupancy = 10 + rng.below(100);
    c.core.robEntries = 32 + static_cast<unsigned>(rng.below(4)) * 32;

    // Prefetchers.
    c.stride.enabled = rng.chance(0.8);
    c.stride.degree = 1 + rng.below(4);
    c.cdp.enabled = rng.chance(0.8);
    c.cdp.vam.compareBits = 8 + rng.below(7);
    c.cdp.vam.filterBits = rng.below(7);
    c.cdp.vam.alignBits = rng.below(3);
    const unsigned steps[] = {1, 2, 4};
    c.cdp.vam.scanStep = steps[rng.below(3)];
    c.cdp.depthThreshold = 1 + rng.below(9);
    c.cdp.nextLines = rng.below(5);
    c.cdp.prevLines = rng.below(2);
    c.cdp.reinforce = rng.chance(0.7);
    c.cdp.reinforceMinDelta = 1 + rng.below(2);
    c.cdp.scanPageWalkFills = rng.chance(0.1);
    c.cdp.scanWidthFills = rng.chance(0.1);
    c.adaptive.enabled = rng.chance(0.3);
    c.adaptive.epochPrefetches = 128 + rng.below(2048);
    c.markov.enabled = rng.chance(0.3);
    c.markov.stabBytes = rng.chance(0.5) ? 0 : 128 * 1024;
    c.pollution.enabled = rng.chance(0.15);

    // Appended after every pre-existing draw (see header comment):
    // exercise the legacy tick-every-cycle scheduler on a quarter of
    // the configurations so the fuzz nets cover both advance paths.
    c.sched.mode = rng.chance(0.25) ? "legacy" : "wheel";
    // Appended after sched.mode: the next-line baseline on a fifth of
    // the configurations, so the nets cover both L1-stream prefetchers.
    c.stride.policy = rng.chance(0.2) ? "nextline" : "stride";
    return c;
}

/** A configuration with exactly one knob-table row out of range. */
struct InvalidConfig
{
    SimConfig cfg;
    std::string key; //!< the row pushed out of range
};

/**
 * randomConfig(seed) with one row pushed just past its range (or out
 * of its vocabulary). A separate generator on its own RNG stream, so
 * randomConfig's draw order — and every existing seed — is untouched.
 */
inline InvalidConfig
invalidConfig(std::uint64_t seed)
{
    InvalidConfig out{randomConfig(seed), ""};
    Rng rng(seed ^ 0x0bad'c0f1'9000'0001ULL);

    // Every row that has an out-of-range value, with that value.
    std::vector<std::pair<const Knob *, std::function<void(SimConfig &)>>>
        pushes;
    SimConfig probe;
    for (const Knob &k : knobTable()) {
        std::visit(
            [&](auto *f) {
                using T = std::remove_pointer_t<decltype(f)>;
                if constexpr (std::is_same_v<T, double>) {
                    pushes.emplace_back(&k, [&k](SimConfig &c) {
                        *std::get<double *>(k.field(c)) = k.max + 0.5;
                    });
                } else if constexpr (std::is_same_v<T, std::string>) {
                    if (k.choices)
                        pushes.emplace_back(&k, [&k](SimConfig &c) {
                            *std::get<std::string *>(k.field(c)) = "bogus";
                        });
                } else if constexpr (!std::is_same_v<T, bool>) {
                    if (k.min > 0)
                        pushes.emplace_back(&k, [&k](SimConfig &c) {
                            *std::get<T *>(k.field(c)) =
                                static_cast<T>((k.min - 1) * k.scale);
                        });
                    if (k.max < std::numeric_limits<T>::max() / k.scale)
                        pushes.emplace_back(&k, [&k](SimConfig &c) {
                            *std::get<T *>(k.field(c)) =
                                static_cast<T>((k.max + 1) * k.scale);
                        });
                }
            },
            k.field(probe));
    }
    const auto &[knob, push] = pushes[rng.below(pushes.size())];
    push(out.cfg);
    out.key = knob->key;
    return out;
}

} // namespace cdp::testcfg

#endif // CDP_TESTS_FUZZ_CONFIG_HH
