#include "memsys/cache.hh"

#include <stdexcept>

#include "check/check.hh"
#include "snapshot/ckpt_io.hh"

namespace cdp
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(std::uint64_t size_bytes, unsigned ways, StatGroup *stats,
             const std::string &name)
    : ways(ways),
      hits(stats ? *stats : dummyGroup, name + ".hits", "cache hits"),
      misses(stats ? *stats : dummyGroup, name + ".misses",
             "cache misses"),
      evictions(stats ? *stats : dummyGroup, name + ".evictions",
                "valid lines displaced")
{
    if (const std::string e = geometryError(size_bytes, ways); !e.empty())
        throw std::invalid_argument("Cache: " + e);
    sets = static_cast<unsigned>(size_bytes / ways / lineBytes);
    setMask = sets - 1;
    lines.resize(static_cast<std::size_t>(sets) * ways);
}

std::string
Cache::geometryError(std::uint64_t size_bytes, unsigned ways,
                     const char *size_name, const char *ways_name)
{
    const std::uint64_t way_bytes = std::uint64_t{ways} * lineBytes;
    if (ways == 0 || size_bytes % way_bytes != 0 ||
        !isPow2(size_bytes / way_bytes))
        return std::string(size_name) + " / (" + ways_name +
               " x 64 B lines) must be a power-of-two set count";
    return "";
}

CacheLine *
Cache::lookup(Addr addr)
{
    // Hot path: one shift + one mask for the set (setMask is
    // precomputed), then a bounded pointer scan that exits on the
    // matching way. The tag holds the full line address, so a single
    // compare decides validity + match for valid lines.
    const Addr la = lineAlign(addr);
    CacheLine *const base = setBase(la);
    CacheLine *const end = base + ways;
    for (CacheLine *l = base; l != end; ++l) {
        if (l->valid && l->tag == la) {
            l->lruStamp = ++stamp;
            ++hits;
            return l;
        }
    }
    ++misses;
    return nullptr;
}

const CacheLine *
Cache::probe(Addr addr) const
{
    const Addr la = lineAlign(addr);
    const CacheLine *const base = setBase(la);
    const CacheLine *const end = base + ways;
    for (const CacheLine *l = base; l != end; ++l) {
        if (l->valid && l->tag == la)
            return l;
    }
    return nullptr;
}

CacheLine *
Cache::probeMutable(Addr addr)
{
    return const_cast<CacheLine *>(
        static_cast<const Cache *>(this)->probe(addr));
}

CacheLine &
Cache::insert(Addr addr, Eviction *evicted)
{
    const Addr la = lineAlign(addr);
    CacheLine *base = setBase(la);
    CacheLine *victim = &base[0];
    for (unsigned w = 0; w < ways; ++w) {
        CacheLine &l = base[w];
        if (l.valid && l.tag == la) {
            victim = &l; // refill of a resident line: reuse in place
            break;
        }
        if (!l.valid) {
            victim = &l;
            break;
        }
        if (l.lruStamp < victim->lruStamp)
            victim = &l;
    }

    if (evicted) {
        evicted->valid = victim->valid && victim->tag != la;
        evicted->lineAddr = victim->tag;
        evicted->prefetched = victim->prefetched;
        evicted->fillType = victim->fillType;
        evicted->fillDepth = victim->fillDepth;
        evicted->everUsed = victim->everUsed;
    }
    if (victim->valid && victim->tag != la)
        ++evictions;

    victim->tag = la;
    victim->valid = true;
    victim->lruStamp = ++stamp;
    victim->prefetched = false;
    victim->fillType = ReqType::DemandLoad;
    victim->storedDepth = 0;
    victim->fillDepth = 0;
    victim->provRoot = 0;
    victim->fillCycle = 0;
    victim->everUsed = false;
    victim->strideOverlap = false;

#if CDP_CHECKS_ENABLED
    // Tag uniqueness per set: a fill must never leave two ways
    // claiming the same line.
    unsigned copies = 0;
    for (unsigned w = 0; w < ways; ++w)
        copies += (base[w].valid && base[w].tag == la) ? 1 : 0;
    CDP_CHECK(copies == 1);
#endif
    return *victim;
}

void
Cache::invalidate(Addr addr)
{
    CacheLine *l = probeMutable(addr);
    if (l)
        l->valid = false;
}

void
Cache::flushAll()
{
    for (auto &l : lines)
        l.valid = false;
}

std::uint64_t
Cache::residentLines() const
{
    std::uint64_t n = 0;
    for (const auto &l : lines)
        n += l.valid ? 1 : 0;
    return n;
}

void
Cache::saveState(snap::Writer &w) const
{
    w.u64(ways);
    w.u64(sets);
    w.u64(stamp);
    for (const CacheLine &l : lines) {
        w.u32(l.tag);
        w.u64(l.lruStamp);
        w.boolean(l.valid);
        w.boolean(l.prefetched);
        w.u8(static_cast<std::uint8_t>(l.fillType));
        w.u8(l.storedDepth);
        w.u8(l.fillDepth);
        w.u64(l.provRoot);
        w.u64(l.fillCycle);
        w.boolean(l.everUsed);
        w.boolean(l.strideOverlap);
    }
}

void
Cache::loadState(snap::Reader &r)
{
    r.expectU64(ways, "cache associativity");
    r.expectU64(sets, "cache sets");
    stamp = r.u64();
    for (CacheLine &l : lines) {
        l.tag = r.u32();
        l.lruStamp = r.u64();
        l.valid = r.boolean();
        l.prefetched = r.boolean();
        const std::uint8_t type = r.u8();
        if (type > static_cast<std::uint8_t>(ReqType::ContentPrefetch))
            r.fail("cache line fill type " + std::to_string(type) +
                   " out of range");
        l.fillType = static_cast<ReqType>(type);
        l.storedDepth = r.u8();
        l.fillDepth = r.u8();
        l.provRoot = r.u64();
        l.fillCycle = r.u64();
        l.everUsed = r.boolean();
        l.strideOverlap = r.boolean();
    }
}

} // namespace cdp
