#include "workloads/heap_allocator.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace cdp
{

HeapAllocator::HeapAllocator(BackingStore &store, PageTable &page_table,
                             FrameAllocator &frames, Addr heap_base,
                             double align_noise, std::uint64_t seed)
    : store(store), table(page_table), frames(frames), base(heap_base),
      top(heap_base), mappedTo(heap_base), alignNoise(align_noise),
      rng(seed)
{
    if (pageOffset(heap_base) != 0)
        throw std::invalid_argument("HeapAllocator: unaligned heap base");
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
    const Addr end = pageAlign(va + bytes - 1) + pageBytes;
    Addr page = pageAlign(va);
    const bool grows = va >= base;
    if (grows) {
        // [base, mappedTo) is mapped: start at mappedTo, mapping any
        // gap below va as well, so that stays true.
        if (end <= mappedTo)
            return;
        page = mappedTo;
    }
    for (; page != end; page += pageBytes) {
        if (!table.translate(page))
            table.map(page, frames.allocate());
    }
    if (grows) {
        mappedTo = end;
        pageHost.resize(pageNumber(mappedTo - base));
    }
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
HeapAllocator::read32Slow(Addr va) const
{
    if (pageOffset(va) <= pageBytes - 4) {
        std::uint8_t *host = store.pageDataIfPresent(translateOrThrow(va));
        if (!host)
            return 0; // never-written frame reads as zero; not entered
        remember(va, host);
        std::uint32_t v;
        std::memcpy(&v, host + pageOffset(va), 4);
        return v;
    }
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(
                 store.read8(translateOrThrow(va + i)))
             << (8 * i);
    }
    return v;
}

std::uint8_t *
HeapAllocator::materialize(Addr va)
{
    std::uint8_t *host = store.pageData(translateOrThrow(va));
    remember(va, host);
    return host;
}

void
HeapAllocator::remember(Addr va, std::uint8_t *host) const
{
    const Addr slot = pageNumber(va) - pageNumber(base);
    if (slot < pageHost.size())
        pageHost[slot] = host;
}

bool
HeapAllocator::holds(Addr va, Addr bytes) const
{
    if (va < base || va >= top || bytes > top - va)
        return false;
    const Addr last = pageAlign(va + std::max<Addr>(bytes, 1) - 1);
    for (Addr page = pageAlign(va);; page += pageBytes) {
        if (!table.translate(page))
            return false;
        if (page == last)
            return true;
    }
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

} // namespace cdp
