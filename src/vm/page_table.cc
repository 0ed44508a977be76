#include "vm/page_table.hh"

namespace cdp
{

PageTable::PageTable(BackingStore &store, FrameAllocator &frame_alloc)
    : store(store), frameAlloc(frame_alloc)
{
    rootPa = frameAlloc.allocate();
}

void
PageTable::map(Addr va, Addr pa)
{
    const Addr pde_addr = rootPa + dirIndex(va) * 4;
    std::uint32_t pde = store.read32(pde_addr);
    Addr table_pa;
    if (!(pde & entryValid)) {
        table_pa = frameAlloc.allocate();
        store.write32(pde_addr, pageAlign(table_pa) | entryValid);
    } else {
        table_pa = pageAlign(pde);
    }

    const Addr pte_addr = table_pa + tblIndex(va) * 4;
    const std::uint32_t old_pte = store.read32(pte_addr);
    if (!(old_pte & entryValid))
        ++_mappedPages;
    store.write32(pte_addr, pageAlign(pa) | entryValid);
    lastVPage = ~Addr{0}; // the memo may now be stale
}

std::optional<Addr>
PageTable::translate(Addr va) const
{
    if (pageAlign(va) == lastVPage)
        return lastFrameBase | pageOffset(va);
    const std::uint32_t pde = store.read32(rootPa + dirIndex(va) * 4);
    if (!(pde & entryValid))
        return std::nullopt;
    const std::uint32_t pte =
        store.read32(pageAlign(pde) + tblIndex(va) * 4);
    if (!(pte & entryValid))
        return std::nullopt;
    lastVPage = pageAlign(va);
    lastFrameBase = pageAlign(pte);
    return lastFrameBase | pageOffset(va);
}

WalkPath
PageTable::walkPath(Addr va) const
{
    WalkPath path{};
    path.pdeAddr = rootPa + dirIndex(va) * 4;
    const std::uint32_t pde = store.read32(path.pdeAddr);
    if (!(pde & entryValid)) {
        path.pteAddr = 0;
        path.complete = false;
        return path;
    }
    path.pteAddr = pageAlign(pde) + tblIndex(va) * 4;
    path.complete = true;
    return path;
}

} // namespace cdp
