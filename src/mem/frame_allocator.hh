/**
 * @file
 * Physical frame allocator.
 *
 * Hands out physical page frames for the page tables and for mapped
 * virtual pages. Frames are allocated from a configurable physical
 * range; a pseudo-random permutation option scatters virtual-to-
 * physical mappings the way a long-running OS would, so physically
 * indexed structures (the UL2) do not see artificially contiguous
 * layouts.
 */

#ifndef CDP_MEM_FRAME_ALLOCATOR_HH
#define CDP_MEM_FRAME_ALLOCATOR_HH

#include <cstdint>
#include <stdexcept>

#include "common/types.hh"

namespace cdp
{

/**
 * Allocates physical frames, either sequentially or in a scattered
 * (fixed affine permutation) order.
 */
class FrameAllocator
{
  public:
    /**
     * @param base_pa first physical address handed out (frame aligned)
     * @param frames number of frames available
     * @param scatter when true, hand frames out in shuffled order
     */
    FrameAllocator(Addr base_pa, std::uint32_t frames,
                   bool scatter = true);

    /**
     * Accepts and ignores a seed: the scatter is a fixed affine
     * permutation. perfbench/perfbench.cc still passes one.
     */
    FrameAllocator(Addr base_pa, std::uint32_t frames, bool scatter,
                   std::uint64_t /*seed*/)
        : FrameAllocator(base_pa, frames, scatter)
    {
    }

    /**
     * Allocate one frame.
     * @return physical address of the frame base.
     * @throw std::runtime_error when physical memory is exhausted.
     */
    Addr allocate();

    std::uint32_t allocated() const { return nextIndex; }
    std::uint32_t capacity() const { return totalFrames; }

  private:
    Addr basePa;
    std::uint32_t totalFrames;
    std::uint32_t nextIndex = 0;
    bool scatter;
};

} // namespace cdp

#endif // CDP_MEM_FRAME_ALLOCATOR_HH
