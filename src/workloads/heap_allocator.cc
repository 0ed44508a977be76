#include "workloads/heap_allocator.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "snapshot/ckpt_io.hh"

namespace cdp
{

HeapAllocator::HeapAllocator(BackingStore &store, PageTable &page_table,
                             FrameAllocator &frames, Addr heap_base,
                             double align_noise, std::uint64_t seed)
    : store(store), table(page_table), frames(frames), base(heap_base),
      top(heap_base), mappedTo(heap_base), alignNoise(align_noise),
      rng(seed)
{
}

Addr
HeapAllocator::alloc(Addr bytes, Addr align)
{
    if (bytes == 0)
        bytes = 1;
    if (align == 0 || (align & (align - 1)) != 0)
        throw std::invalid_argument("HeapAllocator: bad alignment");

    Addr effective_align = align;
    if (alignNoise > 0.0 && align > 2 && rng.chance(alignNoise))
        effective_align = 2;

    top = (top + effective_align - 1) & ~(effective_align - 1);
    const Addr va = top;
    top += bytes;
    ensureMapped(va, bytes);
    return va;
}

void
HeapAllocator::ensureMapped(Addr va, Addr bytes)
{
    const Addr first = pageAlign(va);
    const Addr last = pageAlign(va + bytes - 1);
    for (Addr page = first;; page += pageBytes) {
        if (page >= mappedTo || !table.translate(page)) {
            const Addr frame = frames.allocate();
            table.map(page, frame);
        }
        if (page == last)
            break;
    }
    if (last + pageBytes > mappedTo)
        mappedTo = last + pageBytes;
}

Addr
HeapAllocator::translateOrThrow(Addr va) const
{
    const auto pa = table.translate(va);
    if (!pa)
        throw std::runtime_error("HeapAllocator: unmapped VA");
    return *pa;
}

std::uint32_t
HeapAllocator::read32(Addr va) const
{
    if (pageOffset(va) <= pageBytes - 4) {
        if (pageAlign(va) == lastVaPage) {
            std::uint32_t v;
            std::memcpy(&v, lastHost + pageOffset(va), 4);
            return v;
        }
        const Addr pa = translateOrThrow(va);
        if (std::uint8_t *host = store.pageDataIfPresent(pa)) {
            lastVaPage = pageAlign(va);
            lastHost = host;
            std::uint32_t v;
            std::memcpy(&v, host + pageOffset(pa), 4);
            return v;
        }
        return 0; // never-written frame reads as zero; do not memoize
    }
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(
                 store.read8(translateOrThrow(va + i)))
             << (8 * i);
    }
    return v;
}

std::span<std::uint8_t>
HeapAllocator::hostSpan(Addr va, Addr bytes)
{
    if (pageAlign(va) != lastVaPage) {
        const Addr pa = translateOrThrow(va);
        lastVaPage = pageAlign(va);
        lastHost = store.pageData(pa);
    }
    return {lastHost + pageOffset(va),
            std::min(bytes, pageBytes - pageOffset(va))};
}

void
HeapAllocator::write32(Addr va, std::uint32_t v)
{
    if (pageOffset(va) <= pageBytes - 4) {
        std::memcpy(hostSpan(va, 4).data(), &v, 4);
        return;
    }
    for (unsigned i = 0; i < 4; ++i) {
        store.write8(translateOrThrow(va + i),
                     static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

std::uint8_t
HeapAllocator::read8(Addr va) const
{
    return store.read8(translateOrThrow(va));
}

void
HeapAllocator::write8(Addr va, std::uint8_t v)
{
    store.write8(translateOrThrow(va), v);
}

void
HeapAllocator::saveState(snap::Writer &w) const
{
    w.u64(base);
    w.u32(top);
    w.u32(mappedTo);
    w.rng(rng);
}

void
HeapAllocator::loadState(snap::Reader &r)
{
    r.expectU64(base, "heap base");
    top = r.u32();
    mappedTo = r.u32();
    if (top < base || mappedTo < base)
        r.fail("heap bump pointer below the heap base");
    r.rng(rng);
    lastVaPage = ~Addr{0};
    lastHost = nullptr;
}

} // namespace cdp
