#include "vm/tlb.hh"

#include <stdexcept>

#include "snapshot/ckpt_io.hh"

namespace cdp
{

namespace
{

bool
isPow2(unsigned v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Tlb::Tlb(unsigned entries, unsigned ways, StatGroup *stats,
         const std::string &name)
    : entries(entries), ways(ways),
      numSets(ways ? entries / ways : 0),
      hits(stats ? *stats : dummyGroup, name + ".hits", "TLB hits"),
      misses(stats ? *stats : dummyGroup, name + ".misses", "TLB misses")
{
    if (const std::string e = geometryError(entries, ways); !e.empty())
        throw std::invalid_argument("Tlb: " + e);
    table.resize(entries);
}

std::string
Tlb::geometryError(unsigned entries, unsigned ways,
                   const char *entries_name, const char *ways_name)
{
    if (ways == 0 || entries % ways != 0 || !isPow2(entries / ways))
        return std::string(entries_name) + " / " + ways_name +
               " must be a power-of-two set count";
    return "";
}

std::optional<Addr>
Tlb::lookup(Addr va)
{
    const Addr vpn = pageNumber(va);
    Entry *base = &table[setIndex(vpn) * ways];
    for (unsigned w = 0; w < ways; ++w) {
        Entry &e = base[w];
        if (e.valid && e.vpn == vpn) {
            e.lruStamp = ++stamp;
            ++hits;
            return e.framePa;
        }
    }
    ++misses;
    return std::nullopt;
}

std::optional<Addr>
Tlb::probe(Addr va) const
{
    const Addr vpn = pageNumber(va);
    const Entry *base = &table[setIndex(vpn) * ways];
    for (unsigned w = 0; w < ways; ++w) {
        const Entry &e = base[w];
        if (e.valid && e.vpn == vpn)
            return e.framePa;
    }
    return std::nullopt;
}

void
Tlb::insert(Addr va, Addr frame_pa)
{
    const Addr vpn = pageNumber(va);
    Entry *base = &table[setIndex(vpn) * ways];
    Entry *victim = &base[0];
    for (unsigned w = 0; w < ways; ++w) {
        Entry &e = base[w];
        if (e.valid && e.vpn == vpn) {
            victim = &e; // refresh existing entry in place
            break;
        }
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lruStamp < victim->lruStamp)
            victim = &e;
    }
    victim->vpn = vpn;
    victim->framePa = pageAlign(frame_pa);
    victim->lruStamp = ++stamp;
    victim->valid = true;
}

void
Tlb::flush()
{
    for (auto &e : table)
        e.valid = false;
}

void
Tlb::saveState(snap::Writer &w) const
{
    w.u64(entries);
    w.u64(ways);
    w.u64(stamp);
    for (const Entry &e : table) {
        w.u32(e.vpn);
        w.u32(e.framePa);
        w.u64(e.lruStamp);
        w.boolean(e.valid);
    }
}

void
Tlb::loadState(snap::Reader &r)
{
    r.expectU64(entries, "TLB entries");
    r.expectU64(ways, "TLB ways");
    stamp = r.u64();
    for (Entry &e : table) {
        e.vpn = r.u32();
        e.framePa = r.u32();
        e.lruStamp = r.u64();
        e.valid = r.boolean();
    }
}

} // namespace cdp
