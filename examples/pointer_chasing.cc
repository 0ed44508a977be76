/**
 * @file
 * Focused pointer-chasing scenario: one large linked structure, one
 * traversal loop. Shows the content prefetcher's chaining and path
 * reinforcement on the cleanest possible victim, plus a knob sweep.
 *
 * Usage: pointer_chasing [key=value ...]   (same keys as quickstart)
 */

#include <cstdio>
#include <exception>

#include "sim/config.hh"
#include "sim/memory_system.hh"
#include "sim/simulator.hh"
#include "workloads/builders.hh"
#include "workloads/generators.hh"

using namespace cdp;

namespace
{

/** A Simulator-like wrapper around a single hand-built list. */
struct ChaseRig
{
    SimConfig cfg;
    StatGroup stats;
    BackingStore store;
    FrameAllocator frames{0, 48 * 1024, true};
    PageTable pt{store, frames};
    HeapAllocator heap{store, pt, frames};
    Rng rng{7};
    std::unique_ptr<ListTraversalGen> gen;
    std::unique_ptr<MemorySystem> mem;
    std::unique_ptr<OooCore> core;

    explicit ChaseRig(const SimConfig &c, std::uint32_t nodes,
                      std::uint32_t node_bytes, std::uint32_t run_len,
                      unsigned alu_per_node)
        : cfg(c)
    {
        BuiltList list = buildLinkedList(heap, nodes, node_bytes, 8,
                                         run_len, rng);
        WalkOptions w;
        w.aluPerNode = alu_per_node;
        w.payloadLoads = 2;
        gen = std::make_unique<ListTraversalGen>(heap, std::move(list),
                                                 0x1000, 0, w, 99);
        mem = std::make_unique<MemorySystem>(cfg, store, pt, &stats);
        core = std::make_unique<OooCore>(cfg.core, *gen, *mem, &stats);
    }
};

void
report(const char *label, ChaseRig &rig, std::uint64_t uops)
{
    rig.core->run(uops / 5); // warm
    rig.stats.resetAll();
    rig.mem->resetCounters();
    rig.core->resetMeasurement();
    const Cycle cycles = rig.core->run(uops);
    const auto &m = rig.mem->counters();
    std::printf("%-28s ipc %.4f  misses %8llu  cpf(issued %llu, "
                "full %llu, part %llu)  rescans %llu\n",
                label, static_cast<double>(uops) / cycles,
                static_cast<unsigned long long>(m.l2DemandMisses),
                static_cast<unsigned long long>(m.cdpIssued),
                static_cast<unsigned long long>(m.maskFullCdp),
                static_cast<unsigned long long>(m.maskPartialCdp),
                static_cast<unsigned long long>(m.rescans));
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        SimConfig base;
        base.parseArgs(argc, argv);
        const std::uint64_t uops = base.measureUops;
        const std::uint32_t nodes = 60'000;
        const std::uint32_t node_bytes = 128;

        std::printf("pointer chase: %u nodes x %u B, scattered heap "
                    "(run length 1)\n\n",
                    nodes, node_bytes);
        std::printf(
            "The chain prefetcher and the demand chase both wait on\n"
            "the same fills, so on a bare chase neither can lead; the\n"
            "prefetcher's run-ahead is harvested from the compute\n"
            "BETWEEN pointer hops (Section 1: pointer codes\n"
            "'traditionally do not provide sufficient computational\n"
            "work for masking the prefetch latency' -- chaining plus\n"
            "reinforcement supplies it). Sweep the per-node work:\n\n");
        // A fully scattered chase has no spatial locality for the
        // next-line width to exploit; chain-only (p0.n0) isolates
        // the paper's recursion + reinforcement mechanisms.
        base.cdp.nextLines = 0;
        for (unsigned work : {4u, 60u, 200u}) {
            std::printf("-- %u compute uops per node --\n", work);
            {
                SimConfig c = base;
                c.cdp.enabled = false;
                ChaseRig rig(c, nodes, node_bytes, 1, work);
                report("stride only", rig, uops);
            }
            {
                SimConfig c = base;
                c.cdp.enabled = true;
                c.cdp.reinforce = false;
                ChaseRig rig(c, nodes, node_bytes, 1, work);
                report("cdp, no reinforcement", rig, uops);
            }
            {
                SimConfig c = base;
                c.cdp.enabled = true;
                ChaseRig rig(c, nodes, node_bytes, 1, work);
                report("cdp + reinforcement", rig, uops);
            }
            std::printf("\n");
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
