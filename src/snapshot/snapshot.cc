/**
 * @file
 * Whole-machine checkpoint/restore (DESIGN.md §11).
 *
 * The Simulator's checkpoint members live here, next to the format
 * engine, so the section layout and the component serializers evolve
 * together. A checkpoint is a sequence of tagged sections:
 *
 *   CFG!  guarded configuration (name/value pairs, compared on load)
 *   STOR  frame count, memory-image digest and heap top (verified)
 *   WKLD  workload generator (name-guarded)
 *   MSYS  MemorySystem (caches, TLB, prefetchers, arbiter ledger)
 *   CORE  OooCore pipeline + branch predictor
 *   STAT  StatGroup counters (memory-system ones too), distributions
 *
 * The guarded configuration — the rows of the knob table
 * (src/sim/config.cc) marked guarded — covers everything that shapes
 * machine *state*: restoring into a different geometry would silently
 * corrupt the run, so it fails loudly instead. The deliberately
 * unguarded knobs — cdp.*, adaptive.*, trace.*, sched.*, run lengths —
 * only shape future *behaviour*; forking one warm checkpoint across a
 * sweep of them is the whole point of the subsystem.
 */

#include <fstream>
#include <string>

#include "sim/simulator.hh"
#include "snapshot/ckpt_io.hh"

namespace cdp
{

namespace
{

/** The knob-table rows CFG! carries (the table's guarded? column). */
bool
isGuardedKnob(const Knob &k)
{
    return k.guarded;
}

} // namespace

void
Simulator::quiesce()
{
    memsys->drainAll(cpu->currentCycle());
}

// cdplint: requires_quiesced(memsys)
void
Simulator::saveCheckpoint(std::ostream &os) const
{
    snap::Writer w(os);

    w.beginSection("CFG!");
    saveKnobs(w, cfg, isGuardedKnob);
    w.endSection();

    w.beginSection("STOR");
    w.u64(store.framesTouched());
    w.u64(store.digest());
    w.u64(heapAlloc->heapTop());
    w.endSection();

    w.beginSection("WKLD");
    w.str(source->name());
    source->saveState(w);
    w.endSection();

    w.beginSection("MSYS");
    memsys->saveState(w);
    w.endSection();

    w.beginSection("CORE");
    cpu->saveState(w);
    w.endSection();

    w.beginSection("STAT");
    statGroup.saveValues(w);
    w.endSection();

    w.finish();
}

void
Simulator::restoreCheckpoint(std::istream &is)
{
    snap::Reader r(is);

    r.enterSection("CFG!");
    SimConfig saved = cfg;
    loadKnobs(r, saved, isGuardedKnob);
    for (const Knob &k : knobTable()) {
        if (k.guarded && k.get(saved) != k.get(cfg))
            r.fail(std::string(k.key) + " mismatch: checkpoint has '" +
                   k.get(saved) + "', this simulator has '" + k.get(cfg) +
                   "'");
    }
    r.leaveSection();

    // The constructor built the memory layer; STOR only verifies it
    // and changes nothing (DESIGN.md §11).
    r.enterSection("STOR");
    r.expectU64(store.framesTouched(), "materialized frame count");
    if (r.u64() != store.digest())
        r.fail("memory image differs from this machine's (checkpoint "
               "written by another build of the workload builders?)");
    r.expectU64(heapAlloc->heapTop(), "heap top");
    r.leaveSection();

    r.enterSection("WKLD");
    r.expectStr(source->name(), "workload generator");
    source->loadState(r);
    r.leaveSection();

    r.enterSection("MSYS");
    memsys->loadState(r);
    r.leaveSection();

    r.enterSection("CORE");
    cpu->loadState(r);
    r.leaveSection();

    r.enterSection("STAT");
    statGroup.loadValues(r);
    r.leaveSection();

    r.finish();
    memsys->checkInvariants();
}

// cdplint: requires_quiesced(memsys)
void
Simulator::saveCheckpointFile(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        throw snap::SnapshotError("cannot open checkpoint file '" +
                                  path + "' for writing");
    saveCheckpoint(os);
    os.flush();
    if (!os)
        throw snap::SnapshotError("write to checkpoint file '" + path +
                                  "' failed");
}

void
Simulator::restoreCheckpointFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw snap::SnapshotError("cannot open checkpoint file '" +
                                  path + "' for reading");
    restoreCheckpoint(is);
}

} // namespace cdp
