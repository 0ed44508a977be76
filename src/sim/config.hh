/**
 * @file
 * Complete configuration of one simulation: Table 1 machine
 * parameters, prefetcher knobs, and workload/run control.
 *
 * Defaults reproduce the paper's 4-GHz system configuration and the
 * best content-prefetcher configuration (compare.filter.align.step =
 * 8.4.1.2, depth threshold 3, p0.n3, path reinforcement on).
 */

#ifndef CDP_SIM_CONFIG_HH
#define CDP_SIM_CONFIG_HH

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>

#include "common/types.hh"
#include "core/adaptive_vam.hh"
#include "core/content_prefetcher.hh"
#include "cpu/ooo_core.hh"
#include "obs/tracer.hh"
#include "snapshot/ckpt_io.hh"

namespace cdp
{

/** Memory-hierarchy geometry and timing (Table 1). */
struct MemConfig
{
    // DL1: 32 KB, 8-way, virtually indexed, 3-cycle load-to-use.
    std::uint64_t l1Bytes = 32 * 1024;
    unsigned l1Ways = 8;
    Cycle l1Latency = 3;

    // UL2: 1 MB, 8-way, physically indexed, 16-cycle load-to-use.
    std::uint64_t l2Bytes = 1024 * 1024;
    unsigned l2Ways = 8;
    Cycle l2Latency = 16;

    // DTLB: 64-entry, 4-way (swept to 1024 in Section 4.2.2).
    unsigned dtlbEntries = 64;
    unsigned dtlbWays = 4;

    // Bus: 460-cycle round trip; 64 B at 4.26 GB/s at 4 GHz ~= 60
    // cycles of occupancy per line.
    Cycle busLatency = 460;
    Cycle busOccupancy = 60;
    unsigned busQueueSize = 32;
    unsigned l2QueueSize = 128;

    /**
     * Cap on banked prefetch-drain slots (L2 throughput is one
     * request per cycle; the bank covers core stalls, during which
     * the prefetch engine keeps running).
     */
    unsigned drainBudgetCap = 512;

    bool operator==(const MemConfig &) const = default;
};

/** Baseline (history) prefetcher knobs. */
struct StrideConfig
{
    bool enabled = true;
    /**
     * Which miss-driven baseline drives the machine: "stride"
     * (PC-indexed RPT, the paper's baseline) or "nextline" (tagged
     * sequential prefetch — see bench_baselines for why the paper
     * prefers stride).
     */
    std::string policy = "stride";
    unsigned tableEntries = 256;
    unsigned degree = 2;
    unsigned confThreshold = 2;

    bool operator==(const StrideConfig &) const = default;
};

/** Markov prefetcher (Section 5) knobs. */
struct MarkovConfig
{
    bool enabled = false;
    /** STAB budget in bytes; 0 = unbounded ("markov_big"). */
    std::uint64_t stabBytes = 0;
    unsigned ways = 16;
    unsigned fanout = 4;

    bool operator==(const MarkovConfig &) const = default;
};

/** Section 3.5 limit study: inject bad prefetches on idle bus slots. */
struct PollutionConfig
{
    bool enabled = false;
    std::uint64_t seed = 7777;

    bool operator==(const PollutionConfig &) const = default;
};

/**
 * Simulation-scheduler selection — a host-side execution knob, never
 * part of the modeled machine (and therefore deliberately outside the
 * checkpoint's guarded configuration, like trace.*).
 */
struct SchedConfig
{
    /**
     * "wheel"  — event-wheel mode: MemorySystem::advance() returns
     *            through a fast path on provably idle calls and the
     *            core skips calls the wheel proves idle entirely.
     *            Stats stay byte-identical to legacy mode; the
     *            differential test net in tests/test_event_wheel.cc
     *            pins this (DESIGN.md §12).
     * "legacy" — the original tick-every-cycle contract: advance()
     *            runs its full body on every call.
     */
    std::string mode = "wheel";

    bool operator==(const SchedConfig &) const = default;
};

/** Everything that defines one simulation run. */
struct SimConfig
{
    CoreConfig core{};
    MemConfig mem{};
    StrideConfig stride{};
    MarkovConfig markov{};
    CdpConfig cdp{};
    AdaptiveVamConfig adaptive{};
    PollutionConfig pollution{};
    SchedConfig sched{};
    /**
     * Lifecycle-event tracer (src/obs). A pure observer: enabling it
     * never changes timing, counters, or stats dumps. No-op unless
     * the build compiles tracing in (CDP_ENABLE_TRACE).
     */
    obs::TraceConfig trace{};

    /** Workload name from the Table 2 suite (see workloads/suite.hh). */
    std::string workload = "specjbb-vsnet";
    std::uint64_t workloadSeed = 1;

    /**
     * Uops executed before statistics start (Section 2.2). The paper
     * warms for 7.5 M uops out of ~45 M; we default to a proportional
     * prefix of our shorter runs (Figure 1's MPTU trace justifies the
     * choice — see bench_fig1_mptu).
     */
    std::uint64_t warmupUops = 600'000;
    /** Uops measured after warm-up. */
    std::uint64_t measureUops = 1'000'000;

    /** Physical memory frames available to the run. */
    std::uint32_t physFrames = 48 * 1024; // 192 MB

    /**
     * Scale warmup/measure lengths (CDP_SCALE env or CLI); the paper
     * runs 30 M instructions per LIT, we default to shorter runs.
     */
    void scaleRunLength(double factor);

    /**
     * Apply a "key=value" override: a knob-table key (see knobTable()),
     * or "scale" for scaleRunLength. The value is parsed strictly.
     * @return false when the key is unknown
     * @throws ConfigError naming the key when the value is bad
     */
    bool applyOverride(const std::string &key, const std::string &value);

    /** Parse argv-style overrides, apply CDP_SCALE, then validate();
     *  throws ConfigError (a std::invalid_argument) naming the key. */
    void parseArgs(int argc, char **argv);

    /** Check every knob's range and the cross-knob rules (geometry,
     *  VAM bit budget, adaptive bounds); throws ConfigError. */
    void validate() const;

    /** One key=value line per knob; the lines parse back into an
     *  equal config. */
    std::string summary() const;

    bool operator==(const SimConfig &) const = default;
};

/** A bad knob; what() starts with the key. */
class ConfigError : public std::invalid_argument
{
  public:
    ConfigError(const std::string &key, const std::string &problem)
        : std::invalid_argument(key + ": " + problem), knob(key)
    {
    }
    const std::string &key() const { return knob; }

  private:
    std::string knob;
};

/** The SimConfig field of a knob; its type picks the parser. */
using KnobField = std::variant<unsigned *, std::uint64_t *, bool *,
                               double *, std::string *>;

/**
 * One row of the knob table: a SimConfig field described once.
 * applyOverride, summary(), validate(), the checkpoint and cdpsim
 * --help all iterate the table.
 */
struct Knob
{
    const char *key;
    KnobField (*field)(SimConfig &c);
    std::uint64_t min, max; //!< inclusive range, as written
    std::uint64_t scale;    //!< field = written value * scale
    /** Shapes machine state: the checkpoint's CFG! section records it
     *  and restore refuses a mismatch (DESIGN.md §11). */
    bool guarded;
    const char *doc;
    const char *choices = nullptr; //!< "a|b" vocabulary of a text knob

    /** The field's value as written in a key=value pair. */
    std::string get(const SimConfig &c) const;
    /** Parse @p value strictly into the field; throws ConfigError. */
    void set(SimConfig &c, const std::string &value) const;
};

/** Every SimConfig field, one row each, in summary order. */
std::span<const Knob> knobTable();
const Knob *findKnob(std::string_view key);
/** "key range doc" per row, for cdpsim --help. */
std::string knobHelp();

/** Write the rows @p pick selects as key/value string pairs. */
void saveKnobs(snap::Writer &w, const SimConfig &c,
               bool (*pick)(const Knob &));
/** Read what saveKnobs wrote into @p c; a bad key or value fails the
 *  read with a SnapshotError. */
void loadKnobs(snap::Reader &r, SimConfig &c, bool (*pick)(const Knob &));

} // namespace cdp

#endif // CDP_SIM_CONFIG_HH
