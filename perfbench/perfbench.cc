/**
 * @file
 * The repository benchmark. Runs one named workload for a fixed host
 * time, checks every simulated result, and prints its metrics as the
 * last line of stdout, one JSON object:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1
 * they are the per-layer ones, measured by timing calls into each
 * layer's public functions from here (no profiling hooks inside the
 * simulator). README.md documents the workloads and every metric.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 */

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "common/rng.hh"
#include "core/vam.hh"
#include "runner/sim_runner.hh"
#include "sim/simulator.hh"

using namespace cdp;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** Quantile @p q of @p v, taken at the nearest rank (0 when empty). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(idx, v.size() - 1)];
}

double median(const std::vector<double> &v) { return quantile(v, 0.5); }

/**
 * Host-time figures are taken at the fast end of a run's operations:
 * the 10th percentile of times, the 90th of rates. On a shared host,
 * a vCPU runs either uncontended or next to a busy neighbour, about
 * 1.5x slower, in phases of seconds; the share of slow phases differs
 * from run to run and moves the median by up to a third. The fast end
 * measures the program; the share measures the neighbours (README.md).
 */
constexpr double fastEnd = 0.1;

double fastTime(const std::vector<double> &v) { return quantile(v, fastEnd); }

double
fastRate(const std::vector<double> &v)
{
    return quantile(v, 1.0 - fastEnd);
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** FNV-1a, 64 bit: the stats digest a perf change must leave alone. */
class Digest
{
  public:
    void
    add(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }
    void add(std::uint64_t v) { add(&v, sizeof v); }
    void add(const std::string &s) { add(s.data(), s.size()); }
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * The stats dump as a name -> value map. Scalars and formulas are
 * "name value # desc"; distributions are "name count=.. mean=.. ..."
 * and land under "name.count", "name.mean", ...
 */
std::map<std::string, double>
parseDump(const std::string &dump)
{
    std::map<std::string, double> out;
    std::istringstream is(dump);
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string name, tok;
        if (!(ls >> name))
            continue;
        while (ls >> tok && tok != "#") {
            const auto eq = tok.find('=');
            const std::string key =
                eq == std::string::npos ? name : name + "." + tok.substr(0, eq);
            const std::string val =
                eq == std::string::npos ? tok : tok.substr(eq + 1);
            try {
                out[key] = std::stod(val);
            } catch (const std::exception &) {
                // bucket lists and the like: not a single number
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** One named workload; see README.md for why each was chosen. */
struct WorkloadSpec
{
    const char *name;
    const char *benchmark;   //!< suite workload (workloads/suite.cc)
    std::uint64_t warmupUops;
    std::uint64_t measureUops;
    bool sweep;              //!< warm once, fork across cdpSweepGrid()
};

constexpr std::array<WorkloadSpec, 3> workloads{{
    {"pointer-chase", "verilog-gate", 500'000, 1'500'000, false},
    {"compute-resident", "b2c", 500'000, 4'000'000, false},
    {"warm-fork-sweep", "tpcc-2", 1'000'000, 500'000, true},
}};

/** Fig. 9-style depth x width grid the sweep forks across. */
std::vector<CdpConfig>
cdpSweepGrid(const CdpConfig &base)
{
    std::vector<CdpConfig> grid;
    for (unsigned depth : {1u, 2u, 3u, 4u}) {
        for (auto [prev, next] : {std::pair{0u, 1u}, std::pair{0u, 3u},
                                  std::pair{1u, 3u}}) {
            CdpConfig c = base;
            c.depthThreshold = depth;
            c.prevLines = prev;
            c.nextLines = next;
            grid.push_back(c);
        }
    }
    return grid;
}

/** The sweep config that also runs cold, as the fork's control. */
constexpr std::size_t controlConfig = 11; // depth 4, p1.n3

// ---------------------------------------------------------------------
// Timing decorators (traced run only)
// ---------------------------------------------------------------------

/**
 * Times every samplePeriod-th call to one layer entry point. A
 * steady_clock read costs about as much as a whole compute-bound uop,
 * so timing every call would measure mostly the clock.
 */
class CallSampler
{
  public:
    static constexpr std::uint64_t samplePeriod = 32;

    bool due() { return (++calls & (samplePeriod - 1)) == 0; }

    void
    record(Clock::time_point t0, Clock::time_point t1)
    {
        samples.push_back(nsBetween(t0, t1));
    }

    /** Per-call samples with the clock's own cost @p clock_ns removed. */
    std::vector<double>
    netSamples(double clock_ns) const
    {
        std::vector<double> out;
        out.reserve(samples.size());
        for (double s : samples)
            out.push_back(std::max(0.0, s - clock_ns));
        return out;
    }

    /** Estimated host seconds in this entry point over all calls. */
    double
    estimatedSeconds(double clock_ns) const
    {
        return mean(netSamples(clock_ns)) * static_cast<double>(calls) *
               1e-9;
    }

    std::uint64_t calls = 0;
    std::vector<double> samples;
};

/** UopSource decorator: the `workloads` layer's hot entry point. */
class TimedSource final : public UopSource
{
  public:
    explicit TimedSource(UopSource &inner) : inner(inner) {}

    Uop
    next() override
    {
        if (!sampler.due())
            return inner.next();
        const auto t0 = Clock::now();
        const Uop u = inner.next();
        sampler.record(t0, Clock::now());
        return u;
    }

    const char *name() const override { return inner.name(); }

    CallSampler sampler;

  private:
    UopSource &inner;
};

/** CoreMemIf decorator: the `sim` layer as the core sees it. */
class TimedMem final : public CoreMemIf
{
  public:
    explicit TimedMem(CoreMemIf &inner) : inner(inner) {}

    Cycle
    load(Addr pc, Addr vaddr, Cycle now, bool pointer_load) override
    {
        if (!loads.due())
            return inner.load(pc, vaddr, now, pointer_load);
        const auto t0 = Clock::now();
        const Cycle c = inner.load(pc, vaddr, now, pointer_load);
        loads.record(t0, Clock::now());
        return c;
    }

    Cycle
    store(Addr pc, Addr vaddr, Cycle now) override
    {
        if (!stores.due())
            return inner.store(pc, vaddr, now);
        const auto t0 = Clock::now();
        const Cycle c = inner.store(pc, vaddr, now);
        stores.record(t0, Clock::now());
        return c;
    }

    void
    advance(Cycle now) override
    {
        if (!advances.due()) {
            inner.advance(now);
            return;
        }
        const auto t0 = Clock::now();
        inner.advance(now);
        advances.record(t0, Clock::now());
    }

    // Must be forwarded: the CoreMemIf default (0) reverts the core to
    // calling advance() every cycle, which is a different program.
    Cycle nextEventCycle() const override { return inner.nextEventCycle(); }

    CallSampler loads;
    CallSampler stores;
    CallSampler advances;

  private:
    CoreMemIf &inner;
};

/**
 * A simulated machine wired from public constructors in exactly the
 * order Simulator::Simulator uses, with the uop source and the memory
 * system wrapped in timing decorators. Its stats digest must equal a
 * plain Simulator's for the same config; a mismatch is a failed
 * operation (and means the wiring here has drifted from simulator.cc).
 */
class TracedMachine
{
  public:
    explicit TracedMachine(const SimConfig &c)
        : cfg(c),
          frames(/*base_pa=*/0, cfg.physFrames, /*scatter=*/true,
                 cfg.workloadSeed ^ 0xabcdef),
          pageTable(store, frames),
          heap(store, pageTable, frames, defaultHeapBase,
               /*align_noise=*/0.05, cfg.workloadSeed ^ 0x5eed),
          source(buildSource()),
          mem(cfg, store, pageTable, &statGroup),
          timedSource(*source),
          timedMem(mem),
          cpu(cfg.core, timedSource, timedMem, &statGroup)
    {
    }

    void
    warmup(std::uint64_t uops)
    {
        timedRun(uops);
        mem.checkInvariants();
    }

    /** Same steps as Simulator::measure. */
    RunResult
    measure(std::uint64_t uops)
    {
        statGroup.resetAll();
        mem.resetCounters();
        cpu.resetMeasurement();
        const std::uint64_t u0 = cpu.retiredUops();
        const Cycle cycles = timedRun(uops);
        mem.checkInvariants();
        RunResult r;
        r.workload = cfg.workload;
        r.cycles = cycles;
        r.uops = cpu.retiredUops() - u0;
        r.ipc = cycles ? static_cast<double>(r.uops) / cycles : 0.0;
        r.mem = mem.counters();
        return r;
    }

    void quiesce() { mem.drainAll(cpu.currentCycle()); }
    MemorySystem &memory() { return mem; }
    const StatGroup &stats() const { return statGroup; }

    SimConfig cfg;
    StatGroup statGroup;
    BackingStore store;
    FrameAllocator frames;
    PageTable pageTable;
    HeapAllocator heap;
    double buildSeconds = 0.0;  //!< makeBenchmark host time
    double runSeconds = 0.0;    //!< host time inside OooCore::run
    std::uint64_t ranUops = 0;  //!< uops requested from OooCore::run
    std::unique_ptr<UopSource> source;
    MemorySystem mem;
    TimedSource timedSource;
    TimedMem timedMem;
    OooCore cpu;

  private:
    std::unique_ptr<UopSource>
    buildSource()
    {
        const auto t0 = Clock::now();
        auto s = makeBenchmark(findBenchmark(cfg.workload), heap,
                               cfg.workloadSeed);
        buildSeconds = secondsBetween(t0, Clock::now());
        return s;
    }

    Cycle
    timedRun(std::uint64_t uops)
    {
        const auto t0 = Clock::now();
        const Cycle c = cpu.run(uops);
        runSeconds += secondsBetween(t0, Clock::now());
        ranUops += uops;
        return c;
    }
};

/** Host cost of one steady_clock read, subtracted from every sample. */
double
clockCostNs()
{
    std::vector<double> v;
    for (int i = 0; i < 2000; ++i) {
        const auto a = Clock::now();
        const auto b = Clock::now();
        v.push_back(nsBetween(a, b));
    }
    return median(v);
}

// ---------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------

using MetricMap = std::map<std::string, double>;

/** One finished simulation: its measure-phase result and stats. */
struct Leg
{
    RunResult result;
    std::string dump;
    std::uint64_t digest = 0;
    double dumpSeconds = 0.0;
    std::string error; //!< empty when every output check passed
};

/**
 * Dump the stats, digest dump + counters, and run the output checks:
 * the retired uops equal the requested count (retirement is in groups
 * of up to retire_width, so the last group may overshoot the target
 * by at most retire_width - 1), and the dump agrees.
 */
Leg
finishLeg(const StatGroup &stats, const RunResult &r,
          std::uint64_t requested, const CoreConfig &core)
{
    Leg leg;
    leg.result = r;
    const auto t0 = Clock::now();
    std::ostringstream os;
    stats.dump(os);
    leg.dump = os.str();
    leg.dumpSeconds = secondsBetween(t0, Clock::now());

    Digest d;
    d.add(leg.dump);
    d.add(&r.mem, sizeof r.mem);
    d.add(r.cycles);
    d.add(r.uops);
    leg.digest = d.value();

    if (r.uops < requested || r.uops >= requested + core.retireWidth)
        leg.error = "retired " + std::to_string(r.uops) +
                    " uops, requested " + std::to_string(requested);
    const auto stat = parseDump(leg.dump);
    const auto it = stat.find("core.retired_uops");
    if (it == stat.end() || it->second != static_cast<double>(r.uops))
        leg.error = "core.retired_uops disagrees with the run result";
    return leg;
}

/** Simulated per-layer counts of one measure phase (README.md). */
void
simulatedLayerMetrics(const Leg &leg, MetricMap &m)
{
    const auto s = parseDump(leg.dump);
    const auto get = [&](const std::string &k) {
        const auto it = s.find(k);
        return it == s.end() ? 0.0 : it->second;
    };
    const auto sumProv = [&](const char *kind) {
        double t = 0.0;
        for (unsigned d = 0; d < provDepthBuckets; ++d)
            t += get("prov.d" + std::to_string(d) + "." + kind);
        return t;
    };
    const RunResult &r = leg.result;
    const double kuops = static_cast<double>(r.uops) / 1000.0;
    const double cycles = static_cast<double>(r.cycles);
    const double issued = static_cast<double>(r.mem.cdpIssued);
    const double dropped = sumProv("dropped");

    m["cpu.rob_full_frac"] = ratio(get("core.rob_full_cycles"), cycles);
    m["memsys.dl1_miss_per_kuop"] = ratio(get("dl1.misses"), kuops);
    m["memsys.ul2_mptu"] = r.mptu();
    m["memsys.bus_util"] = ratio(get("bus.busy_cycles"), cycles);
    m["memsys.mshr_promotions_per_kuop"] =
        ratio(get("mshr.promotions"), kuops);
    m["memsys.load_latency_mean_cyc"] = get("mem.load_latency.mean");
    m["core.scans_per_kuop"] = ratio(get("cdp.scans"), kuops);
    m["core.candidates_per_scan"] =
        ratio(get("cdp.candidates"), get("cdp.scans"));
    m["core.issued_per_kuop"] = ratio(issued, kuops);
    m["core.accuracy"] = ratio(sumProv("accurate"), issued);
    m["core.late_frac"] = ratio(sumProv("late"), issued);
    m["core.drop_frac"] = ratio(dropped, issued + dropped);
    m["core.polluting_frac"] = ratio(sumProv("polluting"), issued);
    m["prefetch.stride_issued_per_kuop"] = ratio(get("stride.issued"), kuops);
    m["vm.walks_per_kuop"] = ratio(get("walker.walks"), kuops);
    m["vm.walk_fault_frac"] =
        ratio(get("walker.faults"), get("walker.walks"));
}

/** Host per-layer costs of one traced machine's whole run. */
void
hostLayerMetrics(const TracedMachine &tm, double clock_ns, MetricMap &m)
{
    const double uops = static_cast<double>(tm.ranUops);
    const auto &src = tm.timedSource.sampler;
    const auto &mem = tm.timedMem;
    const double next_s = src.estimatedSeconds(clock_ns);
    const double mem_s = mem.loads.estimatedSeconds(clock_ns) +
                         mem.stores.estimatedSeconds(clock_ns) +
                         mem.advances.estimatedSeconds(clock_ns);
    const double samples = static_cast<double>(
        src.samples.size() + mem.loads.samples.size() +
        mem.stores.samples.size() + mem.advances.samples.size());
    // Each sample pays two clock reads inside OooCore::run.
    const double probe_s = samples * 2.0 * clock_ns * 1e-9;

    m["workloads.next_ns_per_uop"] = ratio(next_s * 1e9, uops);
    m["workloads.build_s"] = tm.buildSeconds;
    m["cpu.self_ns_per_uop"] =
        ratio((tm.runSeconds - next_s - mem_s - probe_s) * 1e9, uops);
    const auto callMetrics = [&](const char *name, const CallSampler &c) {
        const auto ns = c.netSamples(clock_ns);
        m[std::string("sim.") + name + "_ns_p50"] = quantile(ns, 0.5);
        m[std::string("sim.") + name + "_ns_p99"] = quantile(ns, 0.99);
    };
    // No suite generator emits stores, so store() is timed (its cost
    // is in sim.mem_ns_per_uop) but has no per-call metrics.
    callMetrics("load", mem.loads);
    callMetrics("advance", mem.advances);
    m["sim.load_calls_per_kuop"] =
        ratio(static_cast<double>(mem.loads.calls) * 1000.0, uops);
    m["sim.advance_calls_per_kuop"] =
        ratio(static_cast<double>(mem.advances.calls) * 1000.0, uops);
    const MemorySystem &ms = tm.mem;
    m["sim.advance_full_frac"] = ratio(
        static_cast<double>(ms.fullAdvanceCount()),
        static_cast<double>(ms.fullAdvanceCount() +
                            ms.skippedAdvanceCount()));
    m["sim.mem_ns_per_uop"] = ratio(mem_s * 1e9, uops);
    m["mem.frames_touched"] = static_cast<double>(tm.store.framesTouched());
}

/** Where probe results go, so the probed calls are not optimized away. */
volatile std::size_t probeSink = 0;

/**
 * Isolated-call probes on a warmed machine, run after its digest was
 * taken (UL2 lookups refresh LRU state and count hits): the VAM line
 * scan over real lines of the simulated heap, and the UL2 tag lookup
 * of the same lines. Host ns per call, median over batches.
 */
void
probeLayers(TracedMachine &tm, MetricMap &m)
{
    constexpr unsigned lines = 512;
    constexpr int batches = 15;
    Rng rng(tm.cfg.workloadSeed ^ 0x9b0be);
    const Addr base = tm.heap.heapBase() & ~Addr{lineBytes - 1};
    const Addr span = std::max<Addr>(tm.heap.heapTop() - base, lineBytes);
    std::vector<Addr> va, pa;
    std::vector<std::uint8_t> data;
    for (unsigned i = 0; i < lines * 4 && va.size() < lines; ++i) {
        const Addr v = (base + rng.below(span)) & ~Addr{lineBytes - 1};
        const auto p = tm.pageTable.translate(v);
        if (!p)
            continue;
        va.push_back(v);
        pa.push_back(*p & ~Addr{lineBytes - 1});
        data.resize(data.size() + lineBytes);
        tm.store.readLine(pa.back(), data.data() + data.size() - lineBytes);
    }
    if (va.empty())
        return;

    const Vam &vam = tm.mem.contentPf().vam();
    Cache &ul2 = tm.mem.l2();
    std::size_t sink = 0;
    std::vector<double> scan_ns, lookup_ns;
    for (int b = 0; b < batches; ++b) {
        auto t0 = Clock::now();
        for (std::size_t i = 0; i < va.size(); ++i)
            sink += vam.scanLine(data.data() + i * lineBytes, va[i]).size();
        auto t1 = Clock::now();
        scan_ns.push_back(nsBetween(t0, t1) / static_cast<double>(va.size()));
        t0 = Clock::now();
        for (const Addr p : pa)
            sink += ul2.lookup(p) != nullptr;
        t1 = Clock::now();
        lookup_ns.push_back(nsBetween(t0, t1) /
                            static_cast<double>(pa.size()));
    }
    probeSink = sink;

    const double scanline_ns = median(scan_ns);
    m["core.scanline_ns"] = scanline_ns;
    m["memsys.ul2_lookup_ns"] = median(lookup_ns);
    const double host_ns_per_uop =
        ratio(tm.runSeconds * 1e9, static_cast<double>(tm.ranUops));
    m["core.vam_share"] = ratio(
        scanline_ns * m["core.scans_per_kuop"] / 1000.0, host_ns_per_uop);
}

/**
 * Checkpoint probe on a finished Simulator (after its digest): quiesce,
 * save, construct a fresh machine, restore into it.
 */
void
probeSnapshot(Simulator &sim, MetricMap &m)
{
    sim.quiesce();
    auto t0 = Clock::now();
    std::ostringstream os;
    sim.saveCheckpoint(os);
    const std::string ckpt = os.str();
    m["snapshot.save_s"] = secondsBetween(t0, Clock::now());
    m["snapshot.bytes"] = static_cast<double>(ckpt.size());
    t0 = Clock::now();
    Simulator fresh(sim.config());
    m["sweep.fork_ctor_s"] = secondsBetween(t0, Clock::now());
    t0 = Clock::now();
    std::istringstream is(ckpt);
    fresh.restoreCheckpoint(is);
    m["snapshot.restore_s"] = secondsBetween(t0, Clock::now());
}

/** The outcome of one operation: one simulation, or one whole sweep. */
struct Op
{
    bool traced = false;
    double wallSeconds = 0.0;
    /**
     * wallSeconds split into the parts that run one after another: the
     * whole operation for a single simulation; for a sweep, its set-up,
     * each task in order, and the rest (dispatch and checks).
     */
    std::vector<double> phaseSeconds;
    double setupSeconds = 0.0;
    double simSeconds = 0.0;     //!< host time of simulation proper
    double simUops = 0.0;        //!< uops simulated (warm-up + measure)
    double ipc = 0.0;
    std::uint64_t digest = 0;
    unsigned attempted = 0;      //!< simulations in this operation
    unsigned failed = 0;
    std::string error;
    MetricMap layers;            //!< per-layer metrics (traced mode)
};

/** Everything one run needs to execute operations. */
struct Context
{
    SimConfig cfg;
    bool trace;
    double clockNs;
    runner::SimRunner &pool;
};

/** One leg's result plus the host times a sweep reports. */
struct TaskResult
{
    Leg leg;
    double ctorSeconds = 0.0;
    double restoreSeconds = 0.0;
    double simSeconds = 0.0; //!< warm-up + measure host time
    double taskSeconds = 0.0;
    MetricMap layers;
};

/**
 * Warm up and measure @p m (a Simulator or a TracedMachine). When
 * @p reconfigure is set, the cdp config switches at the quiesce point
 * after warm-up, as a restore into a machine built with it would.
 */
template <typename Machine>
Leg
warmAndMeasure(Machine &m, const SimConfig &cfg,
               const CdpConfig *reconfigure, double &sim_seconds)
{
    const auto t0 = Clock::now();
    m.warmup(cfg.warmupUops);
    if (reconfigure) {
        m.quiesce();
        m.memory().reconfigureCdp(*reconfigure);
    }
    const RunResult r = m.measure(cfg.measureUops);
    sim_seconds = secondsBetween(t0, Clock::now());
    return finishLeg(m.stats(), r, cfg.measureUops, cfg.core);
}

/**
 * A cold leg: construct, warm up, measure. A traced leg uses the
 * decorated machine and adds host per-layer metrics and probes; an
 * untraced one may add the checkpoint probe.
 */
TaskResult
coldLeg(const Context &ctx, bool traced, bool snapshot_probe,
        const CdpConfig *reconfigure)
{
    TaskResult t;
    const SimConfig &cfg = ctx.cfg;
    const auto t0 = Clock::now();
    if (traced) {
        TracedMachine tm(cfg);
        t.ctorSeconds = secondsBetween(t0, Clock::now());
        t.leg = warmAndMeasure(tm, cfg, reconfigure, t.simSeconds);
        simulatedLayerMetrics(t.leg, t.layers);
        hostLayerMetrics(tm, ctx.clockNs, t.layers);
        probeLayers(tm, t.layers);
    } else {
        Simulator sim(cfg);
        t.ctorSeconds = secondsBetween(t0, Clock::now());
        t.leg = warmAndMeasure(sim, cfg, reconfigure, t.simSeconds);
        if (snapshot_probe)
            probeSnapshot(sim, t.layers);
    }
    t.layers["stats.dump_ms"] = t.leg.dumpSeconds * 1e3;
    t.taskSeconds = secondsBetween(t0, Clock::now());
    return t;
}

/** Run @p fn, turning an exception into an error string. */
template <typename Fn>
std::string
guarded(Fn fn)
{
    try {
        fn();
        return {};
    } catch (const std::exception &e) {
        return e.what()[0] ? e.what() : "exception";
    } catch (...) {
        return "unknown exception";
    }
}

/** pointer-chase / compute-resident: one simulation on one worker. */
Op
singleOp(const Context &ctx, bool traced)
{
    Op op;
    op.traced = traced;
    op.attempted = 1;
    const auto t0 = Clock::now();
    std::vector<TaskResult> res;
    op.error = guarded([&] {
        res = ctx.pool.map(1, [&](std::size_t) {
            return coldLeg(ctx, traced, ctx.trace && !traced, nullptr);
        });
    });
    op.wallSeconds = secondsBetween(t0, Clock::now());
    op.phaseSeconds = {op.wallSeconds};
    if (!op.error.empty()) {
        op.failed = 1;
        return op;
    }
    const TaskResult &t = res[0];
    op.setupSeconds = t.ctorSeconds;
    op.simUops = static_cast<double>(ctx.cfg.warmupUops +
                                     ctx.cfg.measureUops);
    op.simSeconds = t.simSeconds;
    op.ipc = t.leg.result.ipc;
    op.digest = t.leg.digest;
    op.layers = t.layers;
    op.layers["runner.busy_frac"] =
        ratio(t.taskSeconds, op.wallSeconds * ctx.pool.jobCount());
    op.error = t.leg.error;
    op.failed = op.error.empty() ? 0 : 1;
    return op;
}

/**
 * warm-fork-sweep: warm one machine, quiesce, checkpoint it, then fork
 * the checkpoint across the cdp grid on the runner, next to one cold
 * control leg that must equal its fork byte for byte.
 */
Op
sweepOp(const Context &ctx, bool traced)
{
    Op op;
    op.traced = traced;
    const std::vector<CdpConfig> grid = cdpSweepGrid(ctx.cfg.cdp);
    op.attempted = static_cast<unsigned>(grid.size()) + 1;
    const auto t0 = Clock::now();

    std::string ckpt;
    double save_s = 0.0;
    op.error = guarded([&] {
        Simulator warm(ctx.cfg);
        warm.warmup(ctx.cfg.warmupUops);
        warm.quiesce();
        const auto s0 = Clock::now();
        std::ostringstream os;
        warm.saveCheckpoint(os);
        ckpt = os.str();
        save_s = secondsBetween(s0, Clock::now());
    });
    const auto t1 = Clock::now();
    op.setupSeconds = secondsBetween(t0, t1);
    if (!op.error.empty()) {
        op.failed = op.attempted;
        op.wallSeconds = op.setupSeconds;
        return op;
    }

    // Task 0 is the cold control leg: the longest task, so it starts
    // first. Tasks 1..grid.size() restore the checkpoint.
    std::vector<TaskResult> res;
    std::vector<std::string> errors(grid.size() + 1);
    const auto m0 = Clock::now();
    res = ctx.pool.map(grid.size() + 1, [&](std::size_t i) {
        TaskResult t;
        errors[i] = guarded([&] {
            if (i == 0) {
                t = coldLeg(ctx, traced, false, &grid[controlConfig]);
                return;
            }
            const auto c0 = Clock::now();
            SimConfig cfg = ctx.cfg;
            cfg.cdp = grid[i - 1];
            Simulator sim(cfg);
            const auto c1 = Clock::now();
            std::istringstream is(ckpt);
            sim.restoreCheckpoint(is);
            const auto c2 = Clock::now();
            const RunResult r = sim.measure(cfg.measureUops);
            t.leg = finishLeg(sim.stats(), r, cfg.measureUops, cfg.core);
            t.ctorSeconds = secondsBetween(c0, c1);
            t.restoreSeconds = secondsBetween(c1, c2);
            t.taskSeconds = secondsBetween(c0, Clock::now());
        });
        return t;
    });
    const auto m1 = Clock::now();
    op.wallSeconds = secondsBetween(t0, m1);
    // Every phase simulates (the set-up warms the base machine), so
    // the sweep's simulation time is its whole wall time.
    op.simSeconds = op.wallSeconds;

    Digest d;
    std::vector<double> ipcs, ctor_s, restore_s, dump_ms;
    double busy = 0.0;
    for (std::size_t i = 0; i <= grid.size(); ++i) {
        if (errors[i].empty())
            errors[i] = res[i].leg.error;
        if (!errors[i].empty()) {
            ++op.failed;
            op.error = errors[i];
            continue;
        }
        busy += res[i].taskSeconds;
        if (i == 0)
            continue;
        d.add(res[i].leg.digest);
        ipcs.push_back(res[i].leg.result.ipc);
        ctor_s.push_back(res[i].ctorSeconds);
        restore_s.push_back(res[i].restoreSeconds);
        dump_ms.push_back(res[i].leg.dumpSeconds * 1e3);
    }
    op.phaseSeconds.push_back(op.setupSeconds);
    for (const TaskResult &t : res)
        op.phaseSeconds.push_back(t.taskSeconds);
    op.phaseSeconds.push_back(op.wallSeconds - op.setupSeconds - busy);
    if (op.failed == 0 &&
        res[0].leg.digest != res[controlConfig + 1].leg.digest) {
        op.failed = 1;
        op.error = "cold control leg differs from its warm fork";
    }
    op.digest = d.value();
    op.ipc = mean(ipcs);
    const double warm = static_cast<double>(ctx.cfg.warmupUops);
    const double measure = static_cast<double>(ctx.cfg.measureUops);
    op.simUops = warm + static_cast<double>(grid.size()) * measure +
                 (warm + measure);

    op.layers = res[0].layers;
    op.layers["snapshot.save_s"] = save_s;
    op.layers["snapshot.bytes"] = static_cast<double>(ckpt.size());
    op.layers["snapshot.restore_s"] = median(restore_s);
    op.layers["sweep.fork_ctor_s"] = median(ctor_s);
    op.layers["stats.dump_ms"] = median(dump_ms);
    op.layers["runner.busy_frac"] =
        ratio(busy, secondsBetween(m0, m1) * ctx.pool.jobCount());
    return op;
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics (untraced run); BENCHMARK.json lists the same. */
constexpr std::array<MetricDef, 6> endToEnd{{
    {"sim_uops_per_s", "1/s"},
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_ipc", "uops/cycle"},
    {"ok_frac", "frac"},
}};

/** Per-layer metrics (traced run); BENCHMARK.json lists the same. */
constexpr std::array<MetricDef, 41> perLayer{{
    {"workloads.next_ns_per_uop", "ns"},
    {"workloads.build_s", "s"},
    {"cpu.self_ns_per_uop", "ns"},
    {"cpu.rob_full_frac", "frac"},
    {"sim.load_ns_p50", "ns"},
    {"sim.load_ns_p99", "ns"},
    {"sim.advance_ns_p50", "ns"},
    {"sim.advance_ns_p99", "ns"},
    {"sim.load_calls_per_kuop", "count"},
    {"sim.advance_calls_per_kuop", "count"},
    {"sim.advance_full_frac", "frac"},
    {"sim.mem_ns_per_uop", "ns"},
    {"memsys.dl1_miss_per_kuop", "count"},
    {"memsys.ul2_mptu", "count"},
    {"memsys.bus_util", "frac"},
    {"memsys.mshr_promotions_per_kuop", "count"},
    {"memsys.load_latency_mean_cyc", "cycles"},
    {"memsys.ul2_lookup_ns", "ns"},
    {"core.scans_per_kuop", "count"},
    {"core.candidates_per_scan", "count"},
    {"core.issued_per_kuop", "count"},
    {"core.accuracy", "frac"},
    {"core.late_frac", "frac"},
    {"core.drop_frac", "frac"},
    {"core.polluting_frac", "frac"},
    {"core.scanline_ns", "ns"},
    {"core.vam_share", "frac"},
    {"prefetch.stride_issued_per_kuop", "count"},
    {"vm.walks_per_kuop", "count"},
    {"vm.walk_fault_frac", "frac"},
    {"mem.frames_touched", "count"},
    {"snapshot.save_s", "s"},
    {"snapshot.restore_s", "s"},
    {"snapshot.bytes", "bytes"},
    {"sweep.fork_ctor_s", "s"},
    {"runner.busy_frac", "frac"},
    {"stats.dump_ms", "ms"},
    {"bench.trace_overhead", "frac"},
    {"bench.clock_ns", "ns"},
    {"bench.traced_uops_per_s", "1/s"},
    {"bench.untraced_uops_per_s", "1/s"},
}};

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0; // JSON has no NaN or infinity
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
cpuModel()
{
#if defined(__x86_64__)
    unsigned regs[12] = {};
    if (__get_cpuid(0x80000000, &regs[0], &regs[1], &regs[2], &regs[3]) &&
        regs[0] >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s = brand;
        s.erase(0, s.find_first_not_of(' '));
        return s;
    }
#endif
    return "unknown";
}

const char *
simdName(VamSimdLevel l)
{
    switch (l) {
      case VamSimdLevel::Scalar: return "scalar";
      case VamSimdLevel::Sse2: return "sse2";
      case VamSimdLevel::Avx2: return "avx2";
    }
    return "unknown";
}

std::string
descriptor(unsigned workers)
{
#ifdef PERFBENCH_LTO
    const bool lto = true;
#else
    const bool lto = false;
#endif
#ifdef CDP_SIMD_ENABLED
    const bool simd = true;
#else
    const bool simd = false;
#endif
#if defined(__clang__)
    const char *compiler = "clang " __clang_version__;
#else
    const char *compiler = "gcc " __VERSION__;
#endif
    return std::string("{\"nproc\": ") +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"workers\": " + std::to_string(workers) +
           ", \"cpu\": " + jsonString(cpuModel()) +
           ", \"compiler\": " + jsonString(compiler) +
           ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
           ", \"lto\": " + (lto ? "true" : "false") +
           ", \"cdp_simd\": " + (simd ? "true" : "false") +
           ", \"vam_dispatch\": " +
           jsonString(simdName(Vam::detectSimdLevel())) + "}";
}

/** Why this build must not report, or empty when it may. */
std::string
buildRefusal()
{
#ifdef CDP_ENABLE_CHECKS
    return "built with CDP_ENABLE_CHECKS: checkInvariants runs in the "
           "hot path";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "built with a sanitizer";
#endif
    if (std::strlen(PERFBENCH_SANITIZE) != 0)
        return "built with CDP_SANITIZE=" PERFBENCH_SANITIZE;
    return {};
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1\nworkloads:",
                 why.c_str());
    for (const auto &w : workloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &s)
{
    std::uint64_t v = 0;
    const auto res = std::from_chars(s.data(), s.data() + s.size(), v);
    if (res.ec != std::errc{} || res.ptr != s.data() + s.size())
        usage("bad value for " + flag + ": '" + s + "'");
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            o.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            o.seed = parseUnsigned(flag, value);
        } else if (flag == "--seconds") {
            o.seconds = static_cast<double>(parseUnsigned(flag, value));
            if (o.seconds < 1)
                usage("--seconds must be at least 1");
        } else if (flag == "--trace") {
            const auto t = parseUnsigned(flag, value);
            if (t > 1)
                usage("--trace takes 0 or 1");
            o.trace = t == 1;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    const WorkloadSpec *spec = nullptr;
    for (const auto &w : workloads)
        if (opt.workload == w.name)
            spec = &w;
    if (!spec)
        usage("unknown workload '" + opt.workload + "'");
    if (const std::string why = buildRefusal(); !why.empty()) {
        std::fprintf(stderr, "perfbench: refusing to report: %s\n",
                     why.c_str());
        return 3;
    }

    SimConfig cfg; // the Table 1 machine with reinforced CDP
    cfg.workload = spec->benchmark;
    cfg.workloadSeed = opt.seed;
    cfg.warmupUops = spec->warmupUops;
    cfg.measureUops = spec->measureUops;

    // One worker, for the sweep too: on a shared host each vCPU is fast
    // or slow in phases, and an operation spread over several workers is
    // fast only when all of them are, which made the sweep's fast-end
    // figures swing between runs with the neighbours' load (README.md).
    const unsigned workers = 1;
    runner::SimRunner pool(workers);
    const Context ctx{cfg, opt.trace,
                      opt.trace ? clockCostNs() : 0.0, pool};

    // Measure for opt.seconds. The traced run alternates untraced and
    // traced operations, so it checks traced == untraced digests and
    // measures the tracing overhead in one process.
    const auto start = Clock::now();
    const std::size_t min_ops = opt.trace ? 2 : 3;
    std::vector<Op> ops;
    while (ops.size() < min_ops ||
           secondsBetween(start, Clock::now()) < opt.seconds) {
        const bool traced = opt.trace && ops.size() % 2 == 1;
        ops.push_back(spec->sweep ? sweepOp(ctx, traced)
                                  : singleOp(ctx, traced));
    }

    // Every operation must reproduce the first one's digest.
    unsigned attempted = 0, failed = 0;
    const Op *ref = nullptr;
    for (Op &op : ops) {
        if (op.failed == 0) {
            if (!ref)
                ref = &op;
            else if (op.digest != ref->digest) {
                op.failed = 1;
                op.error = std::string(op.traced ? "traced" : "untraced") +
                           " digest " + hex(op.digest) + " differs from " +
                           hex(ref->digest);
            }
        }
        attempted += op.attempted;
        failed += op.failed;
        if (!op.error.empty())
            std::fprintf(stderr, "perfbench: failed operation: %s\n",
                         op.error.c_str());
    }

    std::vector<double> rate, setup, ipc, rate_traced;
    std::vector<std::vector<double>> phases; //!< [phase][operation]
    double sim_uops = 0.0;
    for (const Op &op : ops) {
        if (op.failed)
            continue;
        (op.traced ? rate_traced : rate)
            .push_back(ratio(op.simUops, op.simSeconds));
        if (op.traced)
            continue;
        phases.resize(std::max(phases.size(), op.phaseSeconds.size()));
        for (std::size_t k = 0; k < op.phaseSeconds.size(); ++k)
            phases[k].push_back(op.phaseSeconds[k]);
        setup.push_back(op.setupSeconds);
        ipc.push_back(op.ipc);
        sim_uops = op.simUops;
    }
    // An operation's wall time at the fast end is the sum of its phases'
    // fast ends: a sweep task is short enough to fall inside one of the
    // host's fast or slow periods, a whole sweep is not.
    double wall_s = 0.0;
    for (const auto &p : phases)
        wall_s += fastTime(p);

    MetricMap metrics;
    if (!opt.trace) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        // A sweep simulates in every phase, so its rate follows wall_s.
        metrics["sim_uops_per_s"] =
            spec->sweep ? ratio(sim_uops, wall_s) : fastRate(rate);
        metrics["wall_s"] = wall_s;
        metrics["setup_s"] = fastTime(setup);
        metrics["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
        metrics["sim_ipc"] = median(ipc);
        metrics["ok_frac"] =
            ratio(static_cast<double>(attempted - failed), attempted);
    } else {
        std::map<std::string, std::vector<double>> samples;
        for (const Op &op : ops)
            if (!op.failed)
                for (const auto &[k, v] : op.layers)
                    samples[k].push_back(v);
        for (const auto &m : perLayer)
            metrics[m.name] = median(samples[m.name]);
        metrics["bench.traced_uops_per_s"] = fastRate(rate_traced);
        metrics["bench.untraced_uops_per_s"] = fastRate(rate);
        metrics["bench.trace_overhead"] =
            ratio(fastRate(rate), fastRate(rate_traced)) - 1.0;
        metrics["bench.clock_ns"] = ctx.clockNs;
    }

    std::printf("descriptor %s\n", descriptor(workers).c_str());
    std::printf("digest workload=%s seed=%llu %s\n", spec->name,
                static_cast<unsigned long long>(opt.seed),
                ref ? hex(ref->digest).c_str() : "none");

    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    const auto emit = [&](const MetricDef &m) {
        json += first ? "" : ", ";
        first = false;
        json += jsonString(m.name) + ": {\"value\": " +
                number(metrics[m.name]) + ", \"unit\": " +
                jsonString(m.unit) + "}";
    };
    if (opt.trace)
        for (const auto &m : perLayer)
            emit(m);
    else
        for (const auto &m : endToEnd)
            emit(m);
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
