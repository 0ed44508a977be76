/**
 * @file
 * cdpsim — command-line driver for the simulator.
 *
 * Runs one or more workloads under a fully specified configuration
 * and reports results as a human-readable table, a CSV row stream, or
 * a full statistics dump. Also captures workload uop streams to
 * LIT-style trace files.
 *
 * Usage:
 *   cdpsim [key=value ...] [--workloads=a,b,c] [--csv] [--stats]
 *          [--capture=PATH] [--trace-out=PATH] [--trace-json=PATH]
 *          [--checkpoint-out=PATH] [--checkpoint-in=PATH]
 *          [-jN|--jobs=N]
 *
 * --checkpoint-out warms the (single) workload, drains the machine to
 * a quiesce point, writes a checkpoint, then measures as usual.
 * --checkpoint-in restores a machine from a checkpoint and goes
 * straight to the measured phase — the two runs' measured output is
 * byte-identical, which tests/checkpoint_determinism.py enforces.
 * Sweep knobs (cdp.*, adaptive.*, run lengths) may differ between the
 * writing and the restoring run; machine geometry and workload must
 * match and are verified against the checkpoint's config guard.
 *
 * --trace-out / --trace-json enable the lifecycle tracer (implies
 * trace.enabled=1) and dump the run's event ring after the measured
 * phase settles: --trace-out writes the compact binary format that
 * tools/cdptrace consumes, --trace-json writes Chrome trace_event
 * JSON directly (open in chrome://tracing or Perfetto). Both accept a
 * single workload only. Requires a CDP_ENABLE_TRACE build (default).
 *
 * Multiple workloads fan out over the parallel experiment runner
 * (src/runner): `-jN` (or CDP_JOBS=N) picks the worker count, rows
 * always print in the order the workloads were listed, so the output
 * is byte-identical at any job count.
 *
 * Examples:
 *   cdpsim workload=tpcc-2 --stats
 *   cdpsim --workloads=all --csv -j8 cdp.depth=5 > sweep.csv
 *   cdpsim workload=verilog-gate --capture=/tmp/vg.cdpt
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <exception>
#include <sstream>
#include <string>
#include <vector>

#include <fstream>
#include <stdexcept>

#include "obs/trace_io.hh"
#include "runner/sim_runner.hh"
#include "sim/memory_system.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"

using namespace cdp;

namespace
{

struct Options
{
    SimConfig cfg;
    std::vector<std::string> workloads;
    bool csv = false;
    bool stats = false;
    std::string capturePath;
    std::string traceOutPath;  //!< binary lifecycle trace (CDPO)
    std::string traceJsonPath; //!< Chrome trace_event JSON
    std::string checkpointOut; //!< write checkpoint after warm-up
    std::string checkpointIn;  //!< restore checkpoint, skip warm-up
    unsigned jobs = 0; //!< runner workers; 0 = CDP_JOBS / hardware

    bool traceWanted() const
    {
        return !traceOutPath.empty() || !traceJsonPath.empty();
    }
};

/** Print the usage line; @p keys adds the knob table (--help). */
void
usage(bool keys)
{
    std::fprintf(
        stderr,
        "usage: cdpsim [key=value ...] [--workloads=a,b,c|all]\n"
        "              [--csv] [--stats] [--capture=PATH]\n"
        "              [--trace-out=PATH] [--trace-json=PATH]\n"
        "              [--checkpoint-out=PATH] [--checkpoint-in=PATH] "
        "[-jN|--jobs=N]\n");
    if (!keys) {
        std::fprintf(stderr, "cdpsim --help lists the config keys\n");
        return;
    }
    std::fprintf(stderr,
                 "\nconfig keys (* = guarded: restoring a checkpoint "
                 "needs the same value):\n%s"
                 "  %-26s  %-26s %s\n",
                 knobHelp().c_str(), "scale", "real > 0",
                 "multiply warmup_uops and measure_uops (env CDP_SCALE)");
}

Options
parse(int argc, char **argv)
{
    Options opt;
    opt.jobs = runner::parseJobsFlag(argc, argv);
    std::vector<char *> cfg_args;
    cfg_args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--csv") {
            opt.csv = true;
        } else if (arg == "--stats") {
            opt.stats = true;
        } else if (arg.rfind("--capture=", 0) == 0) {
            opt.capturePath = arg.substr(10);
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            opt.traceOutPath = arg.substr(12);
        } else if (arg.rfind("--trace-json=", 0) == 0) {
            opt.traceJsonPath = arg.substr(13);
        } else if (arg.rfind("--checkpoint-out=", 0) == 0) {
            opt.checkpointOut = arg.substr(17);
        } else if (arg.rfind("--checkpoint-in=", 0) == 0) {
            opt.checkpointIn = arg.substr(16);
        } else if (arg.rfind("--workloads=", 0) == 0) {
            const std::string list = arg.substr(12);
            if (list == "all") {
                for (const auto &s : table2Suite())
                    opt.workloads.push_back(s.name);
            } else {
                std::stringstream ss(list);
                std::string item;
                while (std::getline(ss, item, ',')) {
                    if (item.empty())
                        continue;
                    try {
                        findBenchmark(item);
                    } catch (const std::invalid_argument &) {
                        throw std::invalid_argument(
                            "--workloads: unknown workload '" + item +
                            "'");
                    }
                    opt.workloads.push_back(item);
                }
            }
        } else if (arg == "--help" || arg == "-h") {
            usage(true);
            std::exit(0);
        } else {
            cfg_args.push_back(argv[i]);
        }
    }
    opt.cfg.parseArgs(static_cast<int>(cfg_args.size()),
                      cfg_args.data());
    if (opt.workloads.empty())
        opt.workloads.push_back(opt.cfg.workload);
    opt.cfg.workload = opt.workloads.front();
    if (opt.traceWanted()) {
        if (opt.workloads.size() > 1)
            throw std::invalid_argument(
                "--trace-out/--trace-json take a single workload");
        if (!CDP_TRACE_ENABLED)
            throw std::invalid_argument(
                "this build has the tracer compiled out "
                "(reconfigure with -DCDP_ENABLE_TRACE=ON)");
        opt.cfg.trace.enabled = true;
    }
    if (!opt.checkpointOut.empty() && !opt.checkpointIn.empty())
        throw std::invalid_argument(
            "--checkpoint-out and --checkpoint-in are mutually "
            "exclusive");
    if (!opt.checkpointOut.empty() || !opt.checkpointIn.empty()) {
        if (opt.workloads.size() > 1)
            throw std::invalid_argument(
                "--checkpoint-out/--checkpoint-in take a single "
                "workload");
        if (!opt.capturePath.empty() || opt.traceWanted())
            throw std::invalid_argument(
                "--checkpoint-out/--checkpoint-in cannot be combined "
                "with --capture or --trace-*");
    }
    return opt;
}

/**
 * Dump the lifecycle trace of a finished run. The memory system is
 * drained first so every issued transaction has its fill in the ring
 * (the stats snapshot above is unaffected: it was captured before).
 */
void
dumpTrace(Simulator &sim, const Options &opt)
{
    sim.memory().drainAll(sim.core().currentCycle());
    const obs::Tracer &trc = sim.memory().tracer();
    const std::vector<obs::TraceEvent> events = trc.snapshot();
    const std::string tag =
        sim.config().workload + "/seed" +
        std::to_string(sim.config().workloadSeed);
    if (!opt.traceOutPath.empty()) {
        obs::writeBinaryTrace(opt.traceOutPath, events, trc.dropped(),
                              tag);
        std::fprintf(stderr, "trace: %llu events (%llu overwritten) "
                             "-> %s\n",
                     static_cast<unsigned long long>(events.size()),
                     static_cast<unsigned long long>(trc.dropped()),
                     opt.traceOutPath.c_str());
    }
    if (!opt.traceJsonPath.empty()) {
        obs::LoadedTrace t;
        t.events = events;
        t.dropped = trc.dropped();
        t.tag = tag;
        std::ofstream os(opt.traceJsonPath);
        if (!os)
            throw std::runtime_error("cannot write " +
                                     opt.traceJsonPath);
        obs::writeChromeJson(os, t);
    }
}

/**
 * Bring @p sim to its warm state — restored from --checkpoint-in, or
 * warmed up and, for --checkpoint-out, quiesced and saved — then run
 * the measured phase.
 */
RunResult
warmAndMeasure(Simulator &sim, const Options &opt)
{
    const SimConfig &c = sim.config();
    if (!opt.checkpointIn.empty()) {
        sim.restoreCheckpointFile(opt.checkpointIn);
        std::fprintf(stderr, "checkpoint: restored %s\n",
                     opt.checkpointIn.c_str());
    } else {
        sim.warmup(c.warmupUops);
        if (!opt.checkpointOut.empty()) {
            sim.quiesce();
            sim.saveCheckpointFile(opt.checkpointOut);
            std::fprintf(stderr, "checkpoint: wrote %s\n",
                         opt.checkpointOut.c_str());
        }
    }
    return sim.measure(c.measureUops);
}

void
printCsvHeader()
{
    std::printf("workload,ipc,cycles,uops,mptu,l2_misses,"
                "mask_full_stride,mask_partial_stride,mask_full_cdp,"
                "mask_partial_cdp,stride_issued,cdp_issued,"
                "cdp_useful,rescans,promotions,demand_walks,"
                "prefetch_walks\n");
}

void
printCsvRow(const RunResult &r)
{
    const auto &m = r.mem;
    std::printf("%s,%.6f,%llu,%llu,%.4f,%llu,%llu,%llu,%llu,%llu,"
                "%llu,%llu,%llu,%llu,%llu,%llu,%llu\n",
                r.workload.c_str(), r.ipc,
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.uops), r.mptu(),
                static_cast<unsigned long long>(m.l2DemandMisses),
                static_cast<unsigned long long>(m.maskFullStride),
                static_cast<unsigned long long>(m.maskPartialStride),
                static_cast<unsigned long long>(m.maskFullCdp),
                static_cast<unsigned long long>(m.maskPartialCdp),
                static_cast<unsigned long long>(m.strideIssued),
                static_cast<unsigned long long>(m.cdpIssued),
                static_cast<unsigned long long>(m.cdpUseful),
                static_cast<unsigned long long>(m.rescans),
                static_cast<unsigned long long>(m.promotions),
                static_cast<unsigned long long>(m.demandWalks),
                static_cast<unsigned long long>(m.prefetchWalks));
}

void
printHumanRow(const std::string &name, const RunResult &r)
{
    std::printf("%-16s ipc %8.4f  mptu %8.3f  cycles "
                "%12llu  cdp(issued %llu useful %llu)\n",
                name.c_str(), r.ipc, r.mptu(),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.mem.cdpIssued),
                static_cast<unsigned long long>(r.mem.cdpUseful));
}

void
capture(const SimConfig &cfg, const std::string &path)
{
    Simulator sim(cfg);
    CapturingSource cap(sim.workload(), path,
                        cfg.workload + "/seed" +
                            std::to_string(cfg.workloadSeed));
    StatGroup stats;
    MemorySystem mem(cfg, sim.heap().backingStore(),
                     sim.heap().pageTable(), &stats);
    OooCore core(cfg.core, cap, mem, &stats, "core", cfg.sched.coreLoop());
    core.run(cfg.warmupUops + cfg.measureUops);
    cap.finish();
    std::fprintf(stderr, "captured %llu uops to %s\n",
                 static_cast<unsigned long long>(cap.captured()),
                 path.c_str());
}

/** The stderr config header: the summary, its workload= line (the
 *  knob table's first row) naming every listed workload. */
std::string
header(const Options &opt)
{
    std::string listed;
    for (const std::string &w : opt.workloads)
        listed += (listed.empty() ? "" : ",") + w;
    const std::string summary = opt.cfg.summary();
    return "workload=" + listed + summary.substr(summary.find('\n'));
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Options opt = parse(argc, argv);

        if (!opt.capturePath.empty()) {
            capture(opt.cfg, opt.capturePath);
            return 0;
        }

        if (opt.csv)
            printCsvHeader();
        else
            std::fprintf(stderr, "%s\n\n", header(opt).c_str());

        // Fan the workloads out; each task also captures its stats
        // dump as text so rows and dumps print in listing order no
        // matter which worker finished first. Checkpointed and traced
        // runs take a single workload, so their one task does the
        // checkpoint and trace I/O itself.
        struct Row
        {
            RunResult result;
            std::string statsDump;
        };
        runner::SimRunner pool(opt.jobs);
        const auto rows =
            pool.map(opt.workloads.size(), [&](std::size_t i) {
                SimConfig c = opt.cfg;
                c.workload = opt.workloads[i];
                Simulator sim(c);
                Row row;
                row.result = warmAndMeasure(sim, opt);
                if (opt.stats) {
                    std::ostringstream os;
                    sim.stats().dump(os);
                    row.statsDump = os.str();
                }
                if (opt.traceWanted())
                    dumpTrace(sim, opt);
                return row;
            });

        for (std::size_t i = 0; i < opt.workloads.size(); ++i) {
            const RunResult &r = rows[i].result;
            if (opt.csv)
                printCsvRow(r);
            else
                printHumanRow(opt.workloads[i], r);
            if (opt.stats) {
                std::printf("---- full statistics: %s ----\n",
                            opt.workloads[i].c_str());
                std::fputs(rows[i].statsDump.c_str(), stdout);
            }
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cdpsim: error: %s\n", e.what());
        usage(false);
        return 1;
    }
}
