/**
 * @file
 * Controlled access to component internals for the invariant-checker
 * subsystem and its fault-injection tests.
 *
 * The checkers in check/invariants.cc must read private state (cache
 * line arrays, the MSHR map, arbiter class queues, TLB entries) to
 * audit structural invariants, and the death tests must *corrupt*
 * that state to prove each check fires. Rather than widening every
 * component's public API, each component befriends this single
 * struct; everything else in the tree keeps the narrow interface.
 */

#ifndef CDP_CHECK_ACCESS_HH
#define CDP_CHECK_ACCESS_HH

#include <vector>

#include "memsys/cache.hh"
#include "memsys/mshr.hh"
#include "memsys/queued_arbiter.hh"
#include "memsys/request.hh"
#include "vm/tlb.hh"

namespace cdp
{
namespace check
{

/** Befriended window into component internals (checks/tests only). */
struct Access
{
    // --- Cache ------------------------------------------------------
    static const std::vector<CacheLine> &lines(const Cache &c)
    {
        return c.lines;
    }
    static std::vector<CacheLine> &lines(Cache &c) { return c.lines; }
    static std::uint64_t lruStamp(const Cache &c) { return c.stamp; }
    static unsigned setOf(const Cache &c, Addr line_addr)
    {
        return c.setIndex(line_addr);
    }

    // --- MshrFile ---------------------------------------------------
    static const LineMap<MshrEntry> &entries(const MshrFile &m)
    {
        return m.entries;
    }
    static LineMap<MshrEntry> &entries(MshrFile &m)
    {
        return m.entries;
    }

    // --- QueuedArbiter ----------------------------------------------
    static const RingDeque<MemRequest> &
    classQueue(const QueuedArbiter &a, unsigned prio)
    {
        return a.queues[prio];
    }
    static RingDeque<MemRequest> &classQueue(QueuedArbiter &a,
                                             unsigned prio)
    {
        return a.queues[prio];
    }
    static std::size_t &totalRef(QueuedArbiter &a) { return a.total; }
    static std::uint64_t enqueuedCount(const QueuedArbiter &a)
    {
        return a.enqueuedCount;
    }
    static std::uint64_t issuedCount(const QueuedArbiter &a)
    {
        return a.issuedCount;
    }
    static std::uint64_t droppedCount(const QueuedArbiter &a)
    {
        return a.droppedCount;
    }
    static std::uint64_t extractedCount(const QueuedArbiter &a)
    {
        return a.extractedCount;
    }

    // --- Tlb --------------------------------------------------------
    struct TlbEntryView
    {
        Addr vpn;
        Addr framePa;
        bool valid;
    };
    static std::vector<TlbEntryView> tlbEntries(const Tlb &t)
    {
        std::vector<TlbEntryView> out;
        out.reserve(t.table.size());
        for (const auto &e : t.table)
            out.push_back({e.vpn, e.framePa, e.valid});
        return out;
    }
    /** Install a raw entry bypassing Tlb::insert (fault injection). */
    static void corruptTlbEntry(Tlb &t, std::size_t slot, Addr vpn,
                                Addr frame_pa)
    {
        t.table[slot].vpn = vpn;
        t.table[slot].framePa = frame_pa;
        t.table[slot].valid = true;
    }
};

} // namespace check
} // namespace cdp

#endif // CDP_CHECK_ACCESS_HH
