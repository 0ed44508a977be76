/**
 * @file
 * Shared helpers for the experiment-reproduction benches.
 *
 * Every bench regenerates one table or figure from the paper. By
 * default the benches run a representative 5-benchmark subset of the
 * Table 2 suite at reduced uop counts so the whole harness finishes
 * in minutes; set CDP_FULL_SUITE=1 for all 15 benchmarks and
 * CDP_SCALE=<f> to scale run lengths.
 *
 * Independent simulations fan out over the process-wide SimRunner
 * (src/runner): pass `-jN` / `--jobs=N` (or CDP_JOBS=N) to use N
 * worker threads. Results always come back in submission order, so a
 * bench's stdout and its BENCH_<name>.json are byte-identical at any
 * job count; only stderr progress and the report's single "harness"
 * line depend on scheduling.
 */

#ifndef CDP_BENCH_COMMON_HH
#define CDP_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "runner/report.hh"
#include "runner/sim_runner.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"

namespace cdpbench
{

/**
 * Apply CDP_SCALE and any argv overrides to @p cfg. A `-jN` /
 * `--jobs=N` argument is consumed here and sets the worker count of
 * the shared runner (must precede the first fan-out).
 */
void applyEnv(cdp::SimConfig &cfg, int argc, char **argv);

/** The benchmark names to sweep (subset, or all 15 with env). */
std::vector<std::string> benchSet();

/** True when CDP_FULL_SUITE is set. */
bool fullSuite();

/**
 * The process-wide experiment runner. Created on first use with the
 * worker count from `-j` / CDP_JOBS / hardware_concurrency.
 */
cdp::runner::SimRunner &simRunner();

/**
 * Request a worker count for the shared runner; must be called
 * before the first simRunner() use (applyEnv does this for `-j`).
 */
void setRunnerJobs(unsigned jobs);

/** Run one simulation to completion (callable from worker threads). */
cdp::RunResult runSim(const cdp::SimConfig &cfg);

/**
 * Run warm-up + measure as a single counted phase (no counter reset).
 * Used by the tuning benches: coverage/accuracy are whole-run
 * feedback metrics, and resetting at the warm-up boundary would
 * credit measure-phase uses of warm-up-issued prefetches with no
 * matching issue ("accuracy" above 100%).
 */
cdp::RunResult runWhole(const cdp::SimConfig &cfg);

/**
 * Fan @p jobs out on the shared runner; results in submission order.
 */
std::vector<cdp::RunResult>
runBatch(const std::vector<cdp::runner::SimJob> &jobs);

/**
 * Run @p cfg with the content prefetcher disabled (the paper's
 * stride-enhanced baseline) and enabled, same workload and seed.
 */
struct PairResult
{
    cdp::RunResult baseline;
    cdp::RunResult withCdp;
    double speedup() const
    {
        return withCdp.speedupOver(baseline);
    }
};

PairResult runPair(cdp::SimConfig cfg);

/**
 * Fan out baseline/with-CDP pairs for every config (2N sims on the
 * shared runner); pair i corresponds to @p cfgs[i].
 */
std::vector<PairResult> runPairs(const std::vector<cdp::SimConfig> &cfgs);

/**
 * One warm-fork sweep (DESIGN.md §11) and its cold-equivalent
 * control: the cold leg warms a fresh machine per config and switches
 * the cdp configuration at the quiesce point; the fork leg warms
 * once, checkpoints, and restores every config from the shared
 * checkpoint. The two legs are defined to be byte-identical —
 * `identical` is the equivalence gate, the wall-clock pair is the
 * payoff (N warm-ups collapsed into one).
 */
struct WarmForkSweep
{
    std::vector<cdp::RunResult> cold;   //!< straight leg, per config
    std::vector<cdp::RunResult> forked; //!< restored leg, per config
    bool identical = false; //!< cycles + stats dumps byte-equal
    double coldSeconds = 0.0; //!< runner wall-clock of the cold leg
    double forkSeconds = 0.0; //!< warm-up + checkpoint + all forks

    double
    speedup() const
    {
        return forkSeconds > 0.0 ? coldSeconds / forkSeconds : 0.0;
    }
};

/**
 * Run @p sweep (one cdp.* config per entry) over @p base both cold
 * and warm-forked on the shared runner. Wall-clock comes from the
 * runner's own telemetry, so the simulated results stay free of
 * scheduling-dependent state.
 */
WarmForkSweep runWarmForkSweep(const cdp::SimConfig &base,
                               const std::vector<cdp::CdpConfig> &sweep);

/** Arithmetic mean. */
double mean(const std::vector<double> &v);

/** Print the standard bench header with the machine summary. */
void printHeader(const std::string &title,
                 const std::string &paper_expectation,
                 const cdp::SimConfig &cfg);

/** "12.6%"-style percentage formatting of a speedup ratio. */
std::string pct(double ratio);

/**
 * Adjusted coverage/accuracy per Figure 7: content prefetches that
 * the stride prefetcher also issued are subtracted from both the
 * useful and issued counts; coverage is measured against the miss
 * count of a no-prefetch run of the same workload.
 */
struct CoverageAccuracy
{
    double coverage = 0.0;
    double accuracy = 0.0;
};

CoverageAccuracy
adjustedCoverageAccuracy(const cdp::RunResult &cdp_run,
                         std::uint64_t misses_without_prefetching);

/**
 * Misses of @p workload with every prefetcher off (the denominator
 * of the coverage metric). Memoized per process behind a
 * shared_future keyed on the summary() of the exact configuration it
 * runs: safe to call from any
 * worker thread, and concurrent requests for the same baseline run
 * the simulation exactly once while the rest block on the shared
 * result.
 */
std::uint64_t missesWithoutPrefetching(const cdp::SimConfig &base,
                                       const std::string &workload);

/**
 * Prime the missesWithoutPrefetching memo for every name in
 * @p workloads in parallel, so a following sweep doesn't serialize
 * its first configuration behind baseline computation.
 */
void prewarmBaselines(const cdp::SimConfig &base,
                      const std::vector<std::string> &workloads);

/**
 * Number of baseline simulations actually executed by
 * missesWithoutPrefetching (memo misses); test support.
 */
std::uint64_t baselineComputations();

} // namespace cdpbench

#endif // CDP_BENCH_COMMON_HH
