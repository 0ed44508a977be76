#include "memsys/mshr.hh"

#include "check/check.hh"

namespace cdp
{

MshrFile::MshrFile(unsigned capacity, StatGroup *stats,
                   const std::string &name)
    : entryLimit(capacity), entries(capacity),
      allocations(stats ? *stats : dummyGroup, name + ".allocations",
                  "MSHR entries allocated"),
      promotions(stats ? *stats : dummyGroup, name + ".promotions",
                 "in-flight prefetches promoted by demands"),
      rejections(stats ? *stats : dummyGroup, name + ".rejections",
                 "allocations rejected because the file was full")
{
}

MshrEntry *
MshrFile::find(Addr line_pa)
{
    return entries.find(lineAlign(line_pa));
}

const MshrEntry *
MshrFile::find(Addr line_pa) const
{
    return entries.find(lineAlign(line_pa));
}

bool
MshrFile::allocate(const MshrEntry &e)
{
    CDP_CHECK(e.linePa == lineAlign(e.linePa));
    CDP_CHECK(!(e.promoted && isPrefetch(e.type)));
    if (entries.size() >= entryLimit) {
        ++rejections;
        return false;
    }
    // Callers must merge with (or drop against) an existing in-flight
    // fill before allocating; silently overwriting one would leak its
    // lifecycle (the pending fill event would complete a different
    // transaction than the one that scheduled it).
    [[maybe_unused]] const bool fresh =
        entries.emplace(lineAlign(e.linePa), e).second;
    CDP_CHECK(fresh);
    ++allocations;
    return true;
}

void
MshrFile::release(Addr line_pa)
{
    [[maybe_unused]] const auto erased =
        entries.erase(lineAlign(line_pa));
    // Releasing a non-resident entry means the caller's lifecycle
    // bookkeeping (issued -> in-flight -> filled) double-retired.
    CDP_CHECK(erased == 1);
}

bool
MshrFile::promote(Addr line_pa, unsigned new_depth, Addr new_vaddr)
{
    MshrEntry *e = find(line_pa);
    if (!e || !isPrefetch(e->type))
        return false;
    // Provenance (id/root/hop) deliberately survives the promotion:
    // the fill is still the chain's transaction, it merely completes
    // at demand priority now.
    e->type = ReqType::DemandLoad;
    e->depth = new_depth;
    e->vaddr = new_vaddr;
    e->promoted = true;
    ++promotions;
    return true;
}

} // namespace cdp
