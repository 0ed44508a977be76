/**
 * @file
 * Hardware page walker.
 *
 * Fills TLB misses by reading the two page-table levels out of
 * simulated memory. The walker itself is timing-agnostic: it reports
 * which physical line addresses a walk touches so the memory system
 * can charge cache/bus latency for them; the paper routes this
 * traffic *around* the content prefetcher (Section 3.5).
 */

#ifndef CDP_VM_PAGE_WALKER_HH
#define CDP_VM_PAGE_WALKER_HH

#include <cstdint>
#include <optional>

#include "common/inline_vec.hh"
#include "common/types.hh"
#include "stats/stat.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"

namespace cdp
{

/** Result of one page walk. */
struct WalkResult
{
    /** Physical frame base of the translated page; nullopt = fault. */
    std::optional<Addr> framePa;
    /** Physical addresses read during the walk (PDE, then PTE). */
    InlineVec<Addr, 2> accesses;
};

/**
 * Walks the two-level page table on TLB misses and refills the TLB.
 */
class PageWalker
{
  public:
    PageWalker(PageTable &table, StatGroup *stats = nullptr,
               const std::string &name = "walker");

    /**
     * Perform a walk for @p va and, on success, install the
     * translation into @p tlb.
     */
    WalkResult walk(Addr va, Tlb &tlb);

    std::uint64_t walkCount() const { return walks.value(); }
    std::uint64_t faultCount() const { return faults.value(); }

  private:
    PageTable &table;
    StatGroup dummyGroup;
    Scalar walks;
    Scalar faults;
};

} // namespace cdp

#endif // CDP_VM_PAGE_WALKER_HH
