#include "mem/backing_store.hh"

#include <algorithm>
#include <cstring>
#include <string>

#include "snapshot/ckpt_io.hh"

namespace cdp
{

BackingStore::Frame *
BackingStore::addFrame(Addr page)
{
    Frame *f;
    if (!spare.empty()) {
        f = spare.back();
        spare.pop_back();
    } else {
        if (chunkLeft == 0) {
            chunks.push_back(
                std::make_unique_for_overwrite<Frame[]>(framesPerChunk));
            chunkLeft = framesPerChunk;
        }
        f = &chunks.back()[framesPerChunk - chunkLeft--];
    }
    frames.reserve(frames.size() + 1);
    frames.emplace(page, f);
    return f;
}

BackingStore::Frame &
BackingStore::frameFor(Addr pa)
{
    if (Frame *f = find(pa))
        return *f;
    Frame *f = addFrame(pageAlign(pa));
    f->fill(0);
    return *f;
}

std::uint8_t
BackingStore::read8(Addr pa) const
{
    const Frame *f = find(pa);
    return f ? (*f)[pageOffset(pa)] : 0;
}

void
BackingStore::write8(Addr pa, std::uint8_t v)
{
    frameFor(pa)[pageOffset(pa)] = v;
}

std::uint32_t
BackingStore::read32(Addr pa) const
{
    // Fast path: word fully inside one frame.
    if (pageOffset(pa) <= pageBytes - 4) {
        const Frame *f = find(pa);
        if (!f)
            return 0;
        std::uint32_t v;
        std::memcpy(&v, f->data() + pageOffset(pa), 4);
        return v; // host is little-endian; simulated ISA is too
    }
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(read8(pa + i)) << (8 * i);
    return v;
}

void
BackingStore::write32(Addr pa, std::uint32_t v)
{
    if (pageOffset(pa) <= pageBytes - 4) {
        std::memcpy(frameFor(pa).data() + pageOffset(pa), &v, 4);
        return;
    }
    for (unsigned i = 0; i < 4; ++i)
        write8(pa + i, static_cast<std::uint8_t>(v >> (8 * i)));
}

void
BackingStore::readLine(Addr pa, std::uint8_t *out) const
{
    const Addr base = lineAlign(pa);
    if (const Frame *f = find(base))
        std::memcpy(out, f->data() + pageOffset(base), lineBytes);
    else
        std::memset(out, 0, lineBytes);
}

void
BackingStore::write(Addr pa, const std::uint8_t *src, Addr len)
{
    for (Addr i = 0; i < len; ++i)
        write8(pa + i, src[i]);
}

void
BackingStore::saveState(snap::Writer &w) const
{
    // Key-sorted: the index is hash-ordered, the checkpoint must be
    // byte-deterministic.
    std::vector<Addr> pages;
    pages.reserve(frames.size());
    frames.forEach([&](Addr page, Frame *) { pages.push_back(page); });
    std::sort(pages.begin(), pages.end());

    w.u64(pages.size());
    for (const Addr page : pages) {
        w.u32(pageNumber(page));
        w.bytes(find(page)->data(), pageBytes);
    }
}

void
BackingStore::loadState(snap::Reader &r)
{
    const std::uint64_t n = r.u64();
    std::vector<Addr> kept; // page bases the checkpoint holds, ascending
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr page = r.u32();
        if (page > pageNumber(~Addr{0}))
            r.fail("backing-store page number " + std::to_string(page) +
                   " lies beyond the 32-bit physical space");
        const Addr base = page << pageShift;
        if (!kept.empty() && base <= kept.back())
            r.fail("backing-store page numbers not strictly increasing");
        Frame *f = find(base);
        if (!f)
            f = addFrame(base);
        r.bytes(f->data(), pageBytes);
        kept.push_back(base);
    }
    // Drop the frames the checkpoint lacks; their pages read zero.
    std::vector<Addr> stale;
    frames.forEach([&](Addr page, Frame *) {
        if (!std::binary_search(kept.begin(), kept.end(), page))
            stale.push_back(page);
    });
    for (const Addr page : stale) {
        spare.push_back(find(page));
        frames.erase(page);
    }
    lastPage = ~Addr{0};
}

} // namespace cdp
