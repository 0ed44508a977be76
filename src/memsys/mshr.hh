/**
 * @file
 * Miss-status holding registers: the in-flight transaction book.
 *
 * Section 3.5: before a prefetch is enqueued, "both L2 and bus
 * arbiters are checked to see if a matching memory transaction is
 * currently in-flight. If such a transaction is found, the prefetch
 * request is dropped. In the event that a demand load encounters an
 * in-flight prefetch memory transaction for the same cache line
 * address, the prefetch request is promoted to the priority and depth
 * of the demand request." The MSHR file implements both checks.
 */

#ifndef CDP_MEMSYS_MSHR_HH
#define CDP_MEMSYS_MSHR_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/line_map.hh"
#include "common/types.hh"
#include "memsys/request.hh"
#include "stats/stat.hh"

namespace cdp
{

namespace check { struct Access; }

/** One in-flight line fill. */
struct MshrEntry
{
    Addr linePa = 0;
    Addr lineVa = 0;
    /**
     * Virtual effective address that triggered the request (demand
     * EA, or the candidate pointer value for content prefetches); it
     * becomes the compare-bits reference when the fill is scanned.
     */
    Addr vaddr = 0;
    ReqType type = ReqType::DemandLoad;
    unsigned depth = 0;
    /** Transaction id (assigned by the memory system at creation). */
    ReqId id = 0;
    /**
     * Provenance root: the demand miss this transaction descends
     * from (own id for demands; see MemRequest::root). Survives
     * merging and promotion so fills stay attributable.
     */
    ReqId root = 0;
    /** Provenance hop index (see MemRequest::hop). */
    unsigned hop = 0;
    /** Cycle the fill data arrives (bus completion). */
    Cycle completion = 0;
    /** A demand matched this entry while it was a prefetch. */
    bool promoted = false;
    /** Stride prefetcher had also issued for this line. */
    bool strideOverlap = false;
    /** Width (next/prev-line) prefetch: fill is not chain-scanned. */
    bool widthLine = false;
    /** Injected bad prefetch (Section 3.5 pollution limit study). */
    bool pollution = false;
};

/**
 * Fixed-capacity table of in-flight fills, keyed by physical line
 * address. The LineMap behind it is sized from the capacity at
 * construction, so allocate/release never touch the heap.
 */
class MshrFile
{
  public:
    explicit MshrFile(unsigned capacity, StatGroup *stats = nullptr,
                      const std::string &name = "mshr");

    bool full() const { return entries.size() >= entryLimit; }
    std::size_t size() const { return entries.size(); }
    unsigned capacity() const { return entryLimit; }

    /** Find the in-flight fill for @p line_pa, if any. */
    MshrEntry *find(Addr line_pa);
    const MshrEntry *find(Addr line_pa) const;

    /**
     * Allocate an entry.
     * @return false when the file is full (caller drops or stalls).
     */
    bool allocate(const MshrEntry &e);

    /** Retire the entry for @p line_pa (fill completed). */
    void release(Addr line_pa);

    /**
     * Promote an in-flight prefetch to demand class. Records the
     * promotion so the fill path can credit a partial latency mask;
     * the trigger EA is replaced by the demand's so the eventual fill
     * is scanned against a demand reference (Figure 3, right side).
     * @return true when the entry existed and was a prefetch.
     */
    bool promote(Addr line_pa, unsigned new_depth, Addr new_vaddr);

    std::uint64_t allocationCount() const { return allocations.value(); }
    std::uint64_t promotionCount() const { return promotions.value(); }

  private:
    friend struct check::Access;

    unsigned entryLimit;
    LineMap<MshrEntry> entries;

    StatGroup dummyGroup;
    Scalar allocations;
    Scalar promotions;
    Scalar rejections;
};

} // namespace cdp

#endif // CDP_MEMSYS_MSHR_HH
