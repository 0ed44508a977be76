#include "sim/config.hh"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <type_traits>

#include "core/vam.hh"
#include "cpu/gshare.hh"
#include "memsys/cache.hh"
#include "prefetch/prefetcher.hh"
#include "vm/tlb.hh"

namespace cdp
{

namespace
{

constexpr std::uint64_t u64Max = ~std::uint64_t{0};
constexpr std::uint64_t maxUops = 1'000'000'000'000;

#define F(member) [](SimConfig &c) -> KnobField { return &c.member; }

// The knob table, one row per SimConfig field: key, field, min, max
// (as written), unit scale, guarded?, doc[, vocabulary].
const Knob knobs[] = {
    {"workload", F(workload), 0, 0, 1, true,
     "Table 2 workload (src/workloads/suite.cc)"},
    {"seed", F(workloadSeed), 0, u64Max, 1, true, "workload seed"},
    {"warmup_uops", F(warmupUops), 0, maxUops, 1, false,
     "uops run before statistics start"},
    {"measure_uops", F(measureUops), 0, maxUops, 1, false,
     "uops measured after warm-up"},
    {"phys_frames", F(physFrames), 1, 1u << 19, 1, true,
     "4 KB physical frames"},
    {"core.issue_width", F(core.issueWidth), 1, 64, 1, true,
     "uops fetched and issued per cycle"},
    {"core.retire_width", F(core.retireWidth), 1, 64, 1, true,
     "uops retired per cycle"},
    {"core.rob", F(core.robEntries), 1, 65536, 1, true, "ROB entries"},
    {"core.load_buffer", F(core.loadBuffer), 1, 65536, 1, true,
     "loads in flight"},
    {"core.store_buffer", F(core.storeBuffer), 1, 65536, 1, true,
     "stores in flight"},
    {"core.mispredict_penalty", F(core.mispredictPenalty), 0, 10000, 1, true,
     "mispredict fetch bubble (cycles)"},
    {"core.bp_entries", F(core.bpEntries), 1, 1u << 24, 1, true,
     "gshare entries (power of two)"},
    {"core.alu_latency", F(core.aluLatency), 1, 1000, 1, true,
     "ALU and branch latency (cycles)"},
    {"core.fp_latency", F(core.fpLatency), 1, 1000, 1, true,
     "FP latency (cycles)"},
    {"mem.l1_kb", F(mem.l1Bytes), 1, 65536, 1024, true, "DL1 size"},
    {"mem.l1_ways", F(mem.l1Ways), 1, 1024, 1, true, "DL1 ways"},
    {"mem.l1_latency", F(mem.l1Latency), 1, 1000, 1, true,
     "DL1 load-to-use (cycles)"},
    {"mem.l2_kb", F(mem.l2Bytes), 1, 262144, 1024, true, "UL2 size"},
    {"mem.l2_ways", F(mem.l2Ways), 1, 1024, 1, true, "UL2 ways"},
    {"mem.l2_latency", F(mem.l2Latency), 1, 1000, 1, true,
     "UL2 load-to-use (cycles)"},
    {"mem.dtlb_entries", F(mem.dtlbEntries), 1, 65536, 1, true,
     "DTLB entries"},
    {"mem.dtlb_ways", F(mem.dtlbWays), 1, 65536, 1, true, "DTLB ways"},
    {"mem.bus_latency", F(mem.busLatency), 1, 100000, 1, true,
     "memory round trip (cycles)"},
    {"mem.bus_occupancy", F(mem.busOccupancy), 1, 100000, 1, true,
     "bus cycles per line (DESIGN.md §12)"},
    {"mem.bus_queue", F(mem.busQueueSize), 1, 65536, 1, true,
     "prefetches in flight on the bus"},
    {"mem.l2_queue", F(mem.l2QueueSize), 1, 65536, 1, true,
     "UL2 arbiter queue entries"},
    {"mem.drain_budget_cap", F(mem.drainBudgetCap), 1, 1u << 20, 1, true,
     "banked prefetch-drain slots"},
    {"stride.enabled", F(stride.enabled), 0, 1, 1, true,
     "miss-stream baseline prefetcher"},
    {"stride.policy", F(stride.policy), 0, 0, 1, true, "baseline prefetcher",
     "stride|nextline"},
    {"stride.entries", F(stride.tableEntries), 1, 65536, 1, true,
     "stride table entries"},
    {"stride.degree", F(stride.degree), 1, maxPrefetchesPerMiss, 1, true,
     "lines prefetched per trigger"},
    {"stride.conf_threshold", F(stride.confThreshold), 0, 3, 1, true,
     "confidence needed to prefetch"},
    {"markov.enabled", F(markov.enabled), 0, 1, 1, true,
     "Markov prefetcher (Section 5)"},
    {"markov.stab_kb", F(markov.stabBytes), 0, 1u << 20, 1024, true,
     "STAB budget; 0 = unbounded"},
    {"markov.ways", F(markov.ways), 1, 1024, 1, true, "STAB ways"},
    {"markov.fanout", F(markov.fanout), 1, maxPrefetchesPerMiss, 1, true,
     "successors per STAB entry"},
    {"cdp.enabled", F(cdp.enabled), 0, 1, 1, false,
     "content-directed prefetcher"},
    {"cdp.compare_bits", F(cdp.vam.compareBits), 1, 31, 1, false,
     "VAM bits matched against the trigger"},
    {"cdp.filter_bits", F(cdp.vam.filterBits), 0, 31, 1, false,
     "VAM bits checked near 0 and ~0"},
    {"cdp.align_bits", F(cdp.vam.alignBits), 0, 4, 1, false,
     "VAM low bits that must be zero"},
    {"cdp.scan_step", F(cdp.vam.scanStep), 1, lineBytes - wordBytes, 1, false,
     "VAM scan step (bytes)"},
    {"cdp.depth", F(cdp.depthThreshold), 1, 64, 1, false,
     "request depth where chains stop"},
    {"cdp.next_lines", F(cdp.nextLines), 0, maxWidthLines, 1, false,
     "lines fetched after each candidate"},
    {"cdp.prev_lines", F(cdp.prevLines), 0, maxWidthLines, 1, false,
     "lines fetched before each candidate"},
    {"cdp.reinforce", F(cdp.reinforce), 0, 1, 1, false,
     "path reinforcement (UL2 depth tags)"},
    {"cdp.reinforce_min_delta", F(cdp.reinforceMinDelta), 1, 64, 1, false,
     "depth gain that rescans"},
    {"cdp.scan_page_walks", F(cdp.scanPageWalkFills), 0, 1, 1, false,
     "scan page-walk fills"},
    {"cdp.scan_width", F(cdp.scanWidthFills), 0, 1, 1, false,
     "scan next/prev-line fills"},
    {"cdp.width_on_rescan", F(cdp.widthOnRescan), 0, 1, 1, false,
     "width lines on rescans"},
    {"adaptive.enabled", F(adaptive.enabled), 0, 1, 1, false,
     "adaptive VAM controller"},
    {"adaptive.epoch", F(adaptive.epochPrefetches), 1, 1u << 30, 1, false,
     "content prefetches per epoch"},
    {"adaptive.low_accuracy", F(adaptive.lowAccuracy), 0, 1, 1, false,
     "tighten below this accuracy"},
    {"adaptive.high_accuracy", F(adaptive.highAccuracy), 0, 1, 1, false,
     "loosen above this accuracy"},
    {"adaptive.min_compare_bits", F(adaptive.minCompareBits), 1, 31, 1, false,
     "compare-bit floor"},
    {"adaptive.max_compare_bits", F(adaptive.maxCompareBits), 1, 31, 1, false,
     "compare-bit ceiling"},
    {"adaptive.adjust_width", F(adaptive.adjustWidth), 0, 1, 1, false,
     "may trade next-line width"},
    {"adaptive.min_next_lines", F(adaptive.minNextLines), 0, maxWidthLines,
     1, false, "next-line floor"},
    {"adaptive.max_next_lines", F(adaptive.maxNextLines), 0, maxWidthLines,
     1, false, "next-line ceiling"},
    {"pollution.enabled", F(pollution.enabled), 0, 1, 1, true,
     "bad prefetches on idle bus slots"},
    {"pollution.seed", F(pollution.seed), 0, u64Max, 1, true,
     "pollution address seed"},
    {"sched.mode", F(sched.mode), 0, 0, 1, false,
     "idle skipping and event-driven core, or every cycle",
     "wheel|legacy"},
    {"trace.enabled", F(trace.enabled), 0, 1, 1, false,
     "lifecycle-event tracer"},
    {"trace.buffer", F(trace.bufferEvents), 0, 1u << 24, 1, false,
     "tracer ring capacity (events)"},
};

#undef F

std::string
numericRange(const Knob &k)
{
    return "[" + std::to_string(k.min) + ", " + std::to_string(k.max) +
           "]" + (k.scale == 1024 ? " KB" : "");
}

/** All of @p text as a T within @p k's range, or ConfigError. */
template <typename T>
T
parseNumber(const Knob &k, const std::string &text)
{
    T v{};
    const char *end = text.data() + text.size();
    const auto [p, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || ec != std::errc{} || p != end ||
        !(v >= static_cast<T>(k.min) && v <= static_cast<T>(k.max)))
        throw ConfigError(k.key, "'" + text + "' is not " +
                                     (std::is_integral_v<T> ? "an integer"
                                                            : "a number") +
                                     " in " + numericRange(k));
    return v;
}

/** Is @p word one of the '|'-separated @p choices? */
bool
inVocabulary(const char *choices, const std::string &word)
{
    std::istringstream words(choices);
    for (std::string w; std::getline(words, w, '|');)
        if (w == word)
            return true;
    return false;
}

/** A run-length factor for key @p key: a number in (0, 1000]. */
double
parseScale(const char *key, const std::string &text)
{
    const double f =
        parseNumber<double>(Knob{key, nullptr, 0, 1000, 1, false, ""}, text);
    if (f == 0.0)
        throw ConfigError(key, "must be > 0");
    return f;
}

} // namespace

std::string
Knob::get(const SimConfig &c) const
{
    // field() only forms a pointer; nothing is written through it.
    return std::visit(
        [this](auto *f) -> std::string {
            using T = std::remove_pointer_t<decltype(f)>;
            if constexpr (std::is_same_v<T, bool>) {
                return *f ? "true" : "false";
            } else if constexpr (std::is_same_v<T, std::string>) {
                return *f;
            } else if constexpr (std::is_same_v<T, double>) {
                char buf[32]; // shortest text that parses back exactly
                return std::string(
                    buf, std::to_chars(buf, buf + sizeof(buf), *f).ptr);
            } else {
                return std::to_string(*f / scale);
            }
        },
        field(const_cast<SimConfig &>(c)));
}

void
Knob::set(SimConfig &c, const std::string &value) const
{
    std::visit(
        [this, &value](auto *f) {
            using T = std::remove_pointer_t<decltype(f)>;
            if constexpr (std::is_same_v<T, bool>) {
                if (value == "1" || value == "true" || value == "on" ||
                    value == "yes")
                    *f = true;
                else if (value == "0" || value == "false" ||
                         value == "off" || value == "no")
                    *f = false;
                else
                    throw ConfigError(key, "'" + value +
                                               "' is not a boolean "
                                               "(1/true/on/yes, "
                                               "0/false/off/no)");
            } else if constexpr (std::is_same_v<T, std::string>) {
                if (choices && !inVocabulary(choices, value))
                    throw ConfigError(key, "'" + value +
                                               "' is not one of " + choices);
                *f = value;
            } else if constexpr (std::is_same_v<T, double>) {
                *f = parseNumber<double>(*this, value);
            } else {
                *f = static_cast<T>(
                    parseNumber<std::uint64_t>(*this, value) * scale);
            }
        },
        field(c));
}

std::span<const Knob>
knobTable()
{
    return knobs;
}

const Knob *
findKnob(std::string_view key)
{
    for (const Knob &k : knobs)
        if (key == k.key)
            return &k;
    return nullptr;
}

std::string
knobHelp()
{
    SimConfig scratch;
    std::string out;
    for (const Knob &k : knobs) {
        const KnobField f = k.field(scratch);
        const std::string range =
            std::holds_alternative<bool *>(f) ? "bool"
            : !std::holds_alternative<std::string *>(f) ? numericRange(k)
            : k.choices                                 ? k.choices
                                                        : "name";
        char line[160];
        std::snprintf(line, sizeof(line), "  %-26s%c %-26s %s\n", k.key,
                      k.guarded ? '*' : ' ', range.c_str(), k.doc);
        out += line;
    }
    return out;
}

void
saveKnobs(snap::Writer &w, const SimConfig &c, bool (*pick)(const Knob &))
{
    for (const Knob &k : knobs) {
        if (pick(k)) {
            w.str(k.key);
            w.str(k.get(c));
        }
    }
}

void
loadKnobs(snap::Reader &r, SimConfig &c, bool (*pick)(const Knob &))
{
    for (const Knob &k : knobs) {
        if (!pick(k))
            continue;
        r.expectStr(k.key, "knob key");
        try {
            k.set(c, r.str());
        } catch (const ConfigError &e) {
            r.fail(e.what());
        }
    }
}

void
SimConfig::scaleRunLength(double factor)
{
    if (factor <= 0.0)
        throw std::invalid_argument("scaleRunLength: factor must be > 0");
    warmupUops = static_cast<std::uint64_t>(warmupUops * factor);
    measureUops = static_cast<std::uint64_t>(measureUops * factor);
    if (warmupUops == 0)
        warmupUops = 1;
    if (measureUops == 0)
        measureUops = 1;
}

bool
SimConfig::applyOverride(const std::string &key, const std::string &value)
{
    if (key == "scale") {
        scaleRunLength(parseScale("scale", value));
        return true;
    }
    const Knob *k = findKnob(key);
    if (k)
        k->set(*this, value);
    return k != nullptr;
}

void
SimConfig::parseArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        if (eq == std::string::npos) {
            throw std::invalid_argument(
                "expected key=value argument, got: " + arg);
        }
        if (!applyOverride(arg.substr(0, eq), arg.substr(eq + 1)))
            throw ConfigError(arg.substr(0, eq), "unknown config key");
    }
    // cdplint: allow(nondeterminism) -- CDP_SCALE is an explicit
    // host-side knob; its value is captured into the config and
    // echoed in the config summary, so runs remain reproducible.
    if (const char *scale = std::getenv("CDP_SCALE"))
        scaleRunLength(parseScale("CDP_SCALE", scale));
    validate();
}

void
SimConfig::validate() const
{
    // Re-parse every row's printed value: the CLI's range and
    // vocabulary checks, and proof that summary() parses back.
    for (const Knob &k : knobs) {
        SimConfig reparsed = *this;
        k.set(reparsed, k.get(*this));
        if (!(reparsed == *this))
            throw ConfigError(k.key, "not a whole number of KB");
    }
    const auto rule = [](const char *key, const std::string &problem) {
        if (!problem.empty())
            throw ConfigError(key, problem);
    };
    rule("mem.l1_kb", Cache::geometryError(mem.l1Bytes, mem.l1Ways,
                                           "mem.l1_kb", "mem.l1_ways"));
    rule("mem.l2_kb", Cache::geometryError(mem.l2Bytes, mem.l2Ways,
                                           "mem.l2_kb", "mem.l2_ways"));
    rule("mem.dtlb_entries",
         Tlb::geometryError(mem.dtlbEntries, mem.dtlbWays,
                            "mem.dtlb_entries", "mem.dtlb_ways"));
    rule("core.bp_entries",
         Gshare::geometryError(core.bpEntries, "core.bp_entries"));
    rule("cdp.filter_bits", Vam::configError(cdp.vam, "cdp.compare_bits",
                                             "cdp.filter_bits"));
    // The VAM must also accept every tightening the controller makes.
    VamConfig tightest = cdp.vam;
    tightest.compareBits = adaptive.maxCompareBits;
    if (adaptive.enabled)
        rule("adaptive.max_compare_bits",
             Vam::configError(tightest, "adaptive.max_compare_bits",
                              "cdp.filter_bits"));
    if (adaptive.lowAccuracy > adaptive.highAccuracy)
        rule("adaptive.low_accuracy", "exceeds adaptive.high_accuracy");
    if (adaptive.minCompareBits > adaptive.maxCompareBits)
        rule("adaptive.min_compare_bits", "exceeds the max");
    if (adaptive.minNextLines > adaptive.maxNextLines)
        rule("adaptive.min_next_lines", "exceeds the max");
}

std::string
SimConfig::summary() const
{
    std::string out;
    for (const Knob &k : knobs) {
        if (!out.empty())
            out += '\n';
        out.append(k.key).append("=").append(k.get(*this));
    }
    return out;
}

} // namespace cdp
