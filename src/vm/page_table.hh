/**
 * @file
 * A two-level, IA-32-style page table that is *materialized in the
 * simulated physical memory*.
 *
 * The paper's processor model uses a hardware TLB "page-walk" that
 * accesses page-table structures in memory to fill TLB misses, and
 * explicitly bypasses the content prefetcher for that traffic because
 * page-table pages are full of pointers (Section 3.5). To reproduce
 * that behaviour and the associated ablation, walks here really read
 * page-directory and page-table entries out of the BackingStore, so
 * those lines have genuine pointer-dense content.
 *
 * Entry format (both levels): bits [31:12] = frame base, bit 0 =
 * valid. A 32-bit VA splits as [31:22] directory index, [21:12] table
 * index, [11:0] page offset.
 */

#ifndef CDP_VM_PAGE_TABLE_HH
#define CDP_VM_PAGE_TABLE_HH

#include <cstdint>
#include <optional>

#include "common/types.hh"
#include "mem/backing_store.hh"
#include "mem/frame_allocator.hh"

namespace cdp
{

/** Physical addresses touched by one hardware page walk. */
struct WalkPath
{
    Addr pdeAddr; //!< physical address of the page-directory entry
    Addr pteAddr; //!< physical address of the page-table entry (or 0)
    bool complete; //!< false when the PDE was invalid
};

/**
 * Two-level page table resident in simulated physical memory.
 */
class PageTable
{
  public:
    /**
     * @param store physical memory holding the tables
     * @param frame_alloc allocator for page-table frames
     */
    PageTable(BackingStore &store, FrameAllocator &frame_alloc);

    /**
     * Map virtual page containing @p va to the physical frame
     * containing @p pa, creating the second-level table on demand.
     */
    void map(Addr va, Addr pa);

    /**
     * Functional translation (no timing).
     * @return physical address, or std::nullopt when unmapped.
     */
    std::optional<Addr> translate(Addr va) const;

    /**
     * The physical addresses a hardware walker must read to translate
     * @p va. Used by the PageWalker to inject timed memory accesses.
     */
    WalkPath walkPath(Addr va) const;

    /** Physical address of the page-directory base. */
    Addr rootAddr() const { return rootPa; }

    /** Number of virtual pages currently mapped. */
    std::uint64_t mappedPages() const { return _mappedPages; }

  private:
    static constexpr std::uint32_t entryValid = 0x1;

    static Addr dirIndex(Addr va) { return (va >> 22) & 0x3ff; }
    static Addr tblIndex(Addr va) { return (va >> 12) & 0x3ff; }

    BackingStore &store;
    FrameAllocator &frameAlloc;
    Addr rootPa;
    std::uint64_t _mappedPages = 0;

    /**
     * One-entry translate() memo: the functional (untimed) translate
     * path is hammered by the workload generators, which walk their
     * data structures through simulated memory. Holds only *positive*
     * results; map() invalidates it. Timed translation
     * (TLB + walker) never goes through this.
     */
    mutable Addr lastVPage = ~Addr{0};
    mutable Addr lastFrameBase = 0;
};

} // namespace cdp

#endif // CDP_VM_PAGE_TABLE_HH
