#include "mem/frame_allocator.hh"

#include <numeric>

namespace cdp
{

FrameAllocator::FrameAllocator(Addr base_pa, std::uint32_t frames,
                               bool scatter)
    : basePa(pageAlign(base_pa)), totalFrames(frames), scatter(scatter)
{
    if (frames == 0)
        throw std::runtime_error("FrameAllocator: zero frames");
}

Addr
FrameAllocator::allocate()
{
    if (nextIndex >= totalFrames)
        throw std::runtime_error("FrameAllocator: out of physical memory");

    std::uint32_t idx = nextIndex++;
    if (scatter) {
        // Affine permutation of the frame index space: idx -> a*idx+c
        // (mod totalFrames) with gcd(a, totalFrames) == 1. This is a
        // bijection, so no frame is handed out twice, while virtually
        // adjacent pages land in physically distant frames.
        std::uint64_t a = 2654435761ull; // Knuth multiplicative hash
        while (std::gcd(a, static_cast<std::uint64_t>(totalFrames)) != 1)
            ++a;
        const std::uint64_t c = 0x9e3779b9ull % totalFrames;
        idx = static_cast<std::uint32_t>(
            (a * idx + c) % totalFrames);
    }
    return basePa + idx * pageBytes;
}

} // namespace cdp
