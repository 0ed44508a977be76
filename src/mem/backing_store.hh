/**
 * @file
 * Simulated physical memory.
 *
 * The content prefetcher predicts by *reading the bytes* of filled
 * cache lines, so the workloads' data structures must genuinely exist
 * in memory: a linked-list node holds the real (virtual) address of
 * its successor, little-endian, exactly where the struct layout puts
 * it. BackingStore provides that byte-addressable physical memory,
 * allocated lazily in 4-KByte frames.
 */

#ifndef CDP_MEM_BACKING_STORE_HH
#define CDP_MEM_BACKING_STORE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/line_map.hh"
#include "common/types.hh"

namespace cdp
{

/**
 * Lazily allocated, frame-granular physical memory. Reads of frames
 * that were never written return zero bytes, mirroring a zero-filled
 * fresh page.
 *
 * Frames are indexed by page in an open-addressed LineMap and carved
 * out of chunked arenas, so materializing a frame is no heap
 * allocation in the common case.
 */
class BackingStore
{
  public:
    /** Read a single byte at physical address @p pa. */
    std::uint8_t read8(Addr pa) const;

    /** Write a single byte. */
    void write8(Addr pa, std::uint8_t v);

    /**
     * Read a little-endian 32-bit word. The word may straddle a frame
     * boundary; it is assembled byte by byte.
     */
    std::uint32_t read32(Addr pa) const;

    /** Write a little-endian 32-bit word. */
    void write32(Addr pa, std::uint32_t v);

    /**
     * Copy one cache line (lineBytes bytes) starting at the
     * line-aligned physical address containing @p pa into @p out.
     */
    void readLine(Addr pa, std::uint8_t *out) const;

    /** Number of frames that have been materialized. */
    std::size_t framesTouched() const { return frames.size(); }

    /**
     * Host pointer to the base of the frame holding @p pa,
     * materializing it zero-filled. Frames never move and are never
     * taken away, so the pointer stays valid for the store's lifetime.
     */
    std::uint8_t *pageData(Addr pa) { return frameFor(pa).data(); }

    /**
     * Host pointer to the frame holding @p pa, or nullptr if it was
     * never materialized (reads of such pages see zero bytes). Same
     * lifetime guarantee as pageData().
     */
    std::uint8_t *
    pageDataIfPresent(Addr pa) const
    {
        Frame *f = find(pa);
        return f ? f->data() : nullptr;
    }

    /** Page base addresses of the materialized frames, ascending. */
    std::vector<Addr> pages() const;

    /**
     * Digest of the memory image: snap::chunkSum over one (page
     * number, chunkSum of the frame's bytes) pair of u64s per frame,
     * in ascending page order (DESIGN.md §11).
     */
    std::uint64_t digest() const;

  private:
    using Frame = std::array<std::uint8_t, pageBytes>;

    /**
     * Frames carved per arena chunk: 64 KB, under glibc's initial
     * mmap threshold, so chunks come from the allocator's heap like
     * any small block. 256 KB chunks crossed the threshold, which then
     * moves with every free, and raised a long warm-fork run's peak
     * RSS by about 4 MB.
     */
    static constexpr std::size_t framesPerChunk = 16;

    /** The frame holding @p pa, or nullptr if never materialized. */
    Frame *
    find(Addr pa) const
    {
        const Addr page = pageAlign(pa);
        if (page == lastPage)
            return lastFrame;
        Frame *const *f = frames.find(page);
        if (!f)
            return nullptr;
        lastPage = page;
        lastFrame = *f;
        return lastFrame;
    }

    /** Get the frame holding @p pa, creating it zero-filled. */
    Frame &frameFor(Addr pa);

    /** Page base address -> frame. */
    LineMap<Frame *> frames{0};
    std::vector<std::unique_ptr<Frame[]>> chunks;
    std::size_t chunkLeft = 0; //!< unused frames in chunks.back()

    /**
     * The last frame find() returned: the page walker and the line
     * reads of one fill burst mostly revisit the same few pages.
     */
    mutable Addr lastPage = ~Addr{0};
    mutable Frame *lastFrame = nullptr;
};

} // namespace cdp

#endif // CDP_MEM_BACKING_STORE_HH
