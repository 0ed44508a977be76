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
 * prefetcher later scans.
 */

#ifndef CDP_WORKLOADS_HEAP_ALLOCATOR_HH
#define CDP_WORKLOADS_HEAP_ALLOCATOR_HH

#include <cstdint>
#include <span>

#include "common/rng.hh"
#include "common/types.hh"
#include "mem/backing_store.hh"
#include "mem/frame_allocator.hh"
#include "vm/page_table.hh"

namespace cdp
{

namespace snap
{
class Writer;
class Reader;
} // namespace snap

/** Default base of the simulated heap (upper 8 bits = 0x10). */
constexpr Addr defaultHeapBase = 0x10000000;

/**
 * Bump allocator over a demand-mapped virtual heap.
 */
class HeapAllocator
{
  public:
    /**
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

    /** Map every page of [va, va+bytes) (idempotent). */
    void ensureMapped(Addr va, Addr bytes);

    /** Read a 32-bit little-endian word at virtual address @p va. */
    std::uint32_t read32(Addr va) const;

    /** Write a 32-bit little-endian word at virtual address @p va. */
    void write32(Addr va, std::uint32_t v);

    /**
     * Host bytes of [va, va + n), n being @p bytes cut at the end of
     * va's page, with the frame materialized: the builders write whole
     * nodes and regions through these spans, one translation per page
     * instead of one per word. Valid until loadState().
     */
    std::span<std::uint8_t> hostSpan(Addr va, Addr bytes);

    /** Read one byte. */
    std::uint8_t read8(Addr va) const;

    /** Write one byte. */
    void write8(Addr va, std::uint8_t v);

    Addr heapBase() const { return base; }
    Addr heapTop() const { return top; }
    Addr bytesAllocated() const { return top - base; }

    BackingStore &backingStore() { return store; }
    PageTable &pageTable() { return table; }
    FrameAllocator &frameAllocator() { return frames; }

    /** Serialize bump-pointer state + RNG (checkpointing). */
    void saveState(snap::Writer &w) const;
    void loadState(snap::Reader &r);

  private:
    Addr translateOrThrow(Addr va) const;

    // cdplint: transient(lastVaPage, lastHost) -- one-entry VA-page -> host-frame memo; mappings are never unmapped and frames never move, so only loadState() resets it
    /**
     * Translation memo: the last heap page touched by an in-page
     * read32 or by a hostSpan, as a direct host pointer into the
     * backing store's frame. Collapses translate + frame lookup for the
     * pointer-chasing workloads that hammer one page at a time.
     * Valid because the page table has no unmap and frames are
     * stable until loadState(), which resets the memo.
     */
    mutable Addr lastVaPage = ~Addr{0};
    mutable std::uint8_t *lastHost = nullptr;

    // cdplint: transient(store, table, frames) -- wiring references rebuilt by the restoring harness, not state
    BackingStore &store;
    PageTable &table;
    FrameAllocator &frames;
    Addr base;
    Addr top;
    Addr mappedTo; //!< first unmapped heap address
    // cdplint: transient(alignNoise) -- construction-time policy knob; the restoring side's own config governs
    double alignNoise;
    Rng rng;
};

} // namespace cdp

#endif // CDP_WORKLOADS_HEAP_ALLOCATOR_HH
