/**
 * @file
 * Simulated heap allocator.
 *
 * The VAM heuristic works because "the memory allocation used by
 * operating systems and runtime systems" hands out heap pointers that
 * share their high-order bits and are (mostly) 4-byte aligned. This
 * allocator reproduces that property: a bump allocator over a virtual
 * heap region starting at a common base, mapping pages on demand
 * through the two-level page table, with a configurable fraction of
 * 2-byte-only alignments ("not all compilers align the base address
 * of each node; this is expected from compilers optimizing for data
 * footprint", Section 4.1).
 *
 * The allocator is also the workloads' window into simulated memory:
 * read32/write32 translate through the page table and hit the
 * BackingStore, so structures built here are real bytes the content
 * prefetcher later scans. A dense page map from each heap page to its
 * host frame makes that translation one indexed load once a page has
 * been touched (DESIGN.md §12).
 */

#ifndef CDP_WORKLOADS_HEAP_ALLOCATOR_HH
#define CDP_WORKLOADS_HEAP_ALLOCATOR_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "check/check.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "mem/backing_store.hh"
#include "mem/frame_allocator.hh"
#include "vm/page_table.hh"

namespace cdp
{

/** Default base of the simulated heap (upper 8 bits = 0x10). */
constexpr Addr defaultHeapBase = 0x10000000;

/**
 * Bump allocator over a demand-mapped virtual heap.
 */
class HeapAllocator
{
  public:
    /**
     * @param heap_base first heap address; must be page-aligned
     * @param align_noise fraction of allocations aligned to 2 bytes
     *        instead of the requested alignment
     */
    HeapAllocator(BackingStore &store, PageTable &page_table,
                  FrameAllocator &frames,
                  Addr heap_base = defaultHeapBase,
                  double align_noise = 0.0,
                  std::uint64_t seed = 97);

    /**
     * Allocate @p bytes aligned to @p align (power of two); pages are
     * mapped on first allocation. Returns the virtual address.
     */
    Addr alloc(Addr bytes, Addr align = 4);

    /**
     * Map every page of [va, va+bytes) (idempotent). Every page of
     * [heapBase(), mappedTo) is mapped already, so only pages outside
     * it are looked up; a gap between mappedTo and @p va is mapped
     * too, which keeps that so.
     */
    void ensureMapped(Addr va, Addr bytes);

    /** Read a 32-bit little-endian word at virtual address @p va. */
    std::uint32_t
    read32(Addr va) const
    {
        if (pageOffset(va) <= pageBytes - 4) {
            if (const std::uint8_t *host = mappedFrame(va)) {
                std::uint32_t v;
                std::memcpy(&v, host + pageOffset(va), 4);
                return v;
            }
        }
        return read32Slow(va);
    }

    /** Write a 32-bit little-endian word at virtual address @p va. */
    void write32(Addr va, std::uint32_t v);

    /**
     * Host bytes of [va, va + n), n being @p bytes cut at the end of
     * va's page, with the frame materialized: the builders write whole
     * nodes and regions through these spans, one translation per page
     * instead of one per word. Frames never move, so the span stays
     * valid for the store's lifetime.
     */
    std::span<std::uint8_t>
    hostSpan(Addr va, Addr bytes)
    {
        std::uint8_t *host = mappedFrame(va);
        if (!host)
            host = materialize(va);
        return {host + pageOffset(va),
                std::min(bytes, pageBytes - pageOffset(va))};
    }

    /**
     * True when [va, va + bytes) lies inside [heapBase(), heapTop())
     * and each of its pages is mapped: the test a restored cursor
     * passes before anything dereferences it.
     */
    bool holds(Addr va, Addr bytes) const;

    Addr heapBase() const { return base; }
    Addr heapTop() const { return top; }
    Addr bytesAllocated() const { return top - base; }
    /** First unmapped heap address: [heapBase(), mappedEnd()) is mapped. */
    Addr mappedEnd() const { return mappedTo; }
    /** The alignment-noise RNG, drawn only by alloc(). */
    const Rng &noiseRng() const { return rng; }

    BackingStore &backingStore() { return store; }
    PageTable &pageTable() { return table; }
    FrameAllocator &frameAllocator() { return frames; }

  private:
    Addr translateOrThrow(Addr va) const;

    /**
     * The host frame of heap page @p va from the page map, or nullptr
     * when @p va lies outside [base, mappedTo) or its page has not
     * been touched through the map yet. Checked builds compare every
     * hit with a page-table walk.
     */
    std::uint8_t *
    mappedFrame(Addr va) const
    {
        const Addr slot = pageNumber(va) - pageNumber(base);
        if (slot >= pageHost.size())
            return nullptr;
        std::uint8_t *host = pageHost[slot];
        CDP_CHECK(!host ||
                  host == store.pageDataIfPresent(translateOrThrow(va)));
        return host;
    }

    /** read32() off the map: a walk, a page-crossing word, or zero. */
    std::uint32_t read32Slow(Addr va) const;

    /** hostSpan() off the map: walk, materialize the frame, record it. */
    std::uint8_t *materialize(Addr va);

    /** Enter @p host as the frame of @p va's page, if the map covers it. */
    void remember(Addr va, std::uint8_t *host) const;

    /**
     * Page map: slot i holds the host frame of heap page base + i *
     * pageBytes, or nullptr until a read32, write32 or hostSpan first
     * reaches that page. ensureMapped() sizes it to [base, mappedTo),
     * 8 bytes a page (20 KB for a 10 MB heap). A page whose frame was
     * never written stays out, so it keeps reading as zero without
     * materializing a frame.
     */
    mutable std::vector<std::uint8_t *> pageHost;

    BackingStore &store;
    PageTable &table;
    FrameAllocator &frames;
    Addr base;
    Addr top;
    Addr mappedTo; //!< first unmapped heap address
    double alignNoise;
    Rng rng;
};

} // namespace cdp

#endif // CDP_WORKLOADS_HEAP_ALLOCATOR_HH
