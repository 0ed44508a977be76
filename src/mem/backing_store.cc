#include "mem/backing_store.hh"

#include <algorithm>
#include <cstring>

#include "snapshot/ckpt_io.hh"

namespace cdp
{

BackingStore::Frame &
BackingStore::frameFor(Addr pa)
{
    if (Frame *f = find(pa))
        return *f;
    if (chunkLeft == 0) {
        chunks.push_back(
            std::make_unique_for_overwrite<Frame[]>(framesPerChunk));
        chunkLeft = framesPerChunk;
    }
    Frame *f = &chunks.back()[framesPerChunk - chunkLeft--];
    f->fill(0);
    frames.reserve(frames.size() + 1);
    frames.emplace(pageAlign(pa), f);
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

std::vector<Addr>
BackingStore::pages() const
{
    // Key-sorted: the index is hash-ordered, the digest must not be.
    std::vector<Addr> out;
    out.reserve(frames.size());
    frames.forEach([&](Addr page, Frame *) { out.push_back(page); });
    std::sort(out.begin(), out.end());
    return out;
}

std::uint64_t
BackingStore::digest() const
{
    std::vector<std::uint64_t> pairs;
    pairs.reserve(2 * frames.size());
    for (const Addr page : pages()) {
        pairs.push_back(pageNumber(page));
        pairs.push_back(snap::chunkSum(find(page)->data(), pageBytes));
    }
    return snap::chunkSum(pairs.data(),
                          pairs.size() * sizeof(std::uint64_t));
}

} // namespace cdp
