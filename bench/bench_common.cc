#include "bench_common.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace cdpbench
{

using namespace cdp;

namespace
{

// Process-wide runner, created lazily so a `-j` flag parsed in
// applyEnv can still pick the worker count. Namespace-scope (not
// function-local static) deliberately: tools/cdplint flags
// function-local static mutable state as the thread-unsafe pattern.
std::mutex g_runnerMutex;
std::unique_ptr<runner::SimRunner> g_runner;
unsigned g_requestedJobs = 0;

/**
 * The baseline-miss memo. shared_future-based: the first requester
 * of a key installs the future and runs the simulation; concurrent
 * requesters block on the shared result, so each distinct baseline
 * runs exactly once per process no matter how many workers ask.
 */
struct BaselineMemo
{
    std::mutex m;
    std::map<std::string, std::shared_future<std::uint64_t>> futures;
    std::atomic<std::uint64_t> computations{0};
};
BaselineMemo g_baselines;

} // namespace

void
setRunnerJobs(unsigned jobs)
{
    std::lock_guard<std::mutex> lk(g_runnerMutex);
    if (g_runner && jobs != 0 && jobs != g_runner->jobCount())
        throw std::logic_error(
            "setRunnerJobs after the shared runner was created");
    g_requestedJobs = jobs;
}

runner::SimRunner &
simRunner()
{
    std::lock_guard<std::mutex> lk(g_runnerMutex);
    if (!g_runner)
        g_runner =
            std::make_unique<runner::SimRunner>(g_requestedJobs);
    return *g_runner;
}

void
applyEnv(SimConfig &cfg, int argc, char **argv)
{
    const unsigned jobs = runner::parseJobsFlag(argc, argv);
    if (jobs)
        setRunnerJobs(jobs);
    cfg.parseArgs(argc, argv); // also applies CDP_SCALE
}

bool
fullSuite()
{
    // cdplint: allow(nondeterminism) -- CDP_FULL_SUITE only selects
    // which benchmarks run; each benchmark's simulated behavior is
    // unaffected by the environment.
    const char *v = std::getenv("CDP_FULL_SUITE");
    return v && *v && std::string(v) != "0";
}

std::vector<std::string>
benchSet()
{
    if (fullSuite()) {
        std::vector<std::string> all;
        for (const auto &s : table2Suite())
            all.push_back(s.name);
        return all;
    }
    // A representative spread: near-resident (b2c), stream-heavy
    // (quake), OLTP hash chains (tpcc-2), netlist chase
    // (verilog-gate), and the Java object-graph mix (specjbb).
    return {"b2c", "quake", "tpcc-2", "verilog-gate",
            "specjbb-vsnet"};
}

RunResult
runSim(const SimConfig &cfg)
{
    Simulator sim(cfg);
    return sim.run();
}

RunResult
runWhole(const SimConfig &cfg)
{
    Simulator sim(cfg);
    return sim.runChunk(cfg.warmupUops + cfg.measureUops);
}

std::vector<RunResult>
runBatch(const std::vector<runner::SimJob> &jobs)
{
    return simRunner().run(jobs);
}

PairResult
runPair(SimConfig cfg)
{
    PairResult r;
    SimConfig off = cfg;
    off.cdp.enabled = false;
    r.baseline = runSim(off);
    cfg.cdp.enabled = true;
    r.withCdp = runSim(cfg);
    return r;
}

std::vector<PairResult>
runPairs(const std::vector<SimConfig> &cfgs)
{
    std::vector<runner::SimJob> jobs;
    jobs.reserve(cfgs.size() * 2);
    for (const auto &cfg : cfgs) {
        runner::SimJob off;
        off.cfg = cfg;
        off.cfg.cdp.enabled = false;
        off.tag = cfg.workload + "/base";
        jobs.push_back(std::move(off));

        runner::SimJob on;
        on.cfg = cfg;
        on.cfg.cdp.enabled = true;
        on.tag = cfg.workload + "/cdp";
        jobs.push_back(std::move(on));
    }
    const std::vector<RunResult> res = runBatch(jobs);
    std::vector<PairResult> out(cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        out[i].baseline = res[2 * i];
        out[i].withCdp = res[2 * i + 1];
    }
    return out;
}

namespace
{

std::string
statsDump(Simulator &sim)
{
    std::ostringstream os;
    sim.stats().dump(os);
    return os.str();
}

} // namespace

WarmForkSweep
runWarmForkSweep(const SimConfig &base,
                 const std::vector<CdpConfig> &sweep)
{
    WarmForkSweep out;
    runner::SimRunner &r = simRunner();
    std::vector<std::string> coldDumps(sweep.size());
    std::vector<std::string> forkDumps(sweep.size());

    // Cold control: every config pays its own warm-up, then switches
    // to its swept cdp config at the quiesce point.
    const double wall0 = r.stats().wallSeconds;
    out.cold = r.map(sweep.size(), [&](std::size_t i) {
        Simulator sim(base);
        sim.warmup(base.warmupUops);
        sim.quiesce();
        sim.memory().reconfigureCdp(sweep[i]);
        const RunResult res = sim.measure(base.measureUops);
        coldDumps[i] = statsDump(sim);
        return res;
    });
    const double wall1 = r.stats().wallSeconds;

    // Fork leg: warm once (charged to this leg's wall-clock), then
    // restore every config from the shared in-memory checkpoint.
    std::string checkpoint;
    r.map(1, [&](std::size_t) {
        Simulator warm(base);
        warm.warmup(base.warmupUops);
        warm.quiesce();
        std::ostringstream os;
        warm.saveCheckpoint(os);
        checkpoint = os.str();
        return 0;
    });
    out.forked = r.map(sweep.size(), [&](std::size_t i) {
        SimConfig cfg = base;
        cfg.cdp = sweep[i];
        Simulator sim(cfg);
        std::istringstream is(checkpoint);
        sim.restoreCheckpoint(is);
        const RunResult res = sim.measure(base.measureUops);
        forkDumps[i] = statsDump(sim);
        return res;
    });
    const double wall2 = r.stats().wallSeconds;

    out.coldSeconds = wall1 - wall0;
    out.forkSeconds = wall2 - wall1;
    out.identical = true;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        if (out.cold[i].cycles != out.forked[i].cycles ||
            out.cold[i].uops != out.forked[i].uops ||
            coldDumps[i] != forkDumps[i])
            out.identical = false;
    }
    return out;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

void
printHeader(const std::string &title,
            const std::string &paper_expectation, const SimConfig &cfg)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("--------------------------------------------------------------\n");
    std::printf("paper: %s\n", paper_expectation.c_str());
    std::printf("%s\n", cfg.summary().c_str());
    std::printf("suite: %s (%zu benchmarks)%s\n",
                fullSuite() ? "full Table 2" : "representative subset",
                benchSet().size(),
                fullSuite() ? "" : "  [CDP_FULL_SUITE=1 for all 15]");
    std::printf("==============================================================\n\n");
}

std::string
pct(double ratio)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.2f%%", (ratio - 1.0) * 100.0);
    return buf;
}

CoverageAccuracy
adjustedCoverageAccuracy(const RunResult &cdp_run,
                         std::uint64_t misses_without_prefetching)
{
    CoverageAccuracy ca;
    const auto &m = cdp_run.mem;
    const std::uint64_t useful_adj =
        m.cdpUseful > m.cdpUsefulOverlap
            ? m.cdpUseful - m.cdpUsefulOverlap
            : 0;
    const std::uint64_t issued_adj =
        m.cdpIssued > m.cdpIssuedOverlap
            ? m.cdpIssued - m.cdpIssuedOverlap
            : 0;
    if (misses_without_prefetching)
        ca.coverage = static_cast<double>(useful_adj) /
                      static_cast<double>(misses_without_prefetching);
    if (issued_adj)
        ca.accuracy = static_cast<double>(useful_adj) /
                      static_cast<double>(issued_adj);
    return ca;
}

std::uint64_t
missesWithoutPrefetching(const SimConfig &base,
                         const std::string &workload)
{
    SimConfig cfg = base;
    cfg.workload = workload;
    cfg.cdp.enabled = false;
    cfg.stride.enabled = false;
    cfg.markov.enabled = false;
    // The memo key is the whole configuration that runs: a key that
    // omits a knob silently returns a denominator from another
    // machine.
    const std::string key = cfg.summary();
    std::promise<std::uint64_t> promise;
    std::shared_future<std::uint64_t> future;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lk(g_baselines.m);
        auto it = g_baselines.futures.find(key);
        if (it == g_baselines.futures.end()) {
            future = promise.get_future().share();
            g_baselines.futures.emplace(key, future);
            owner = true;
        } else {
            future = it->second;
        }
    }
    if (owner) {
        try {
            const RunResult r = runWhole(cfg);
            ++g_baselines.computations;
            promise.set_value(r.mem.l2DemandMisses);
        } catch (...) {
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

void
prewarmBaselines(const SimConfig &base,
                 const std::vector<std::string> &workloads)
{
    simRunner().map(workloads.size(), [&](std::size_t i) {
        return missesWithoutPrefetching(base, workloads[i]);
    });
}

std::uint64_t
baselineComputations()
{
    return g_baselines.computations.load();
}

} // namespace cdpbench
