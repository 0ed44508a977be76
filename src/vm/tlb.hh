/**
 * @file
 * Set-associative translation look-aside buffer.
 *
 * Table 1 of the paper specifies a 64-entry, 4-way DTLB and a
 * 128-entry, fully associative ITLB. Section 4.2.2 sweeps the DTLB
 * from 64 to 1024 entries to isolate the contribution of the content
 * prefetcher's implicit TLB prefetching, so both geometry parameters
 * are configurable.
 */

#ifndef CDP_VM_TLB_HH
#define CDP_VM_TLB_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "stats/stat.hh"

namespace cdp
{

namespace check { struct Access; }

namespace snap
{
class Writer;
class Reader;
} // namespace snap

/**
 * An LRU, set-associative TLB caching VPN -> PFN translations.
 */
class Tlb
{
  public:
    /**
     * @param entries total entries (must be a multiple of @p ways)
     * @param ways associativity
     * @param stats optional stat group for hit/miss counters
     * @param name stat name prefix
     */
    Tlb(unsigned entries, unsigned ways, StatGroup *stats = nullptr,
        const std::string &name = "tlb");

    /** The constructor's geometry rule, naming the parameters
     *  @p entries_name and @p ways_name; empty when valid. */
    static std::string geometryError(unsigned entries, unsigned ways,
                                     const char *entries_name = "entries",
                                     const char *ways_name = "ways");

    /**
     * Look up the translation for @p va, updating LRU on a hit.
     * @return physical frame base, or std::nullopt on a miss.
     */
    std::optional<Addr> lookup(Addr va);

    /**
     * Probe without updating replacement state or statistics (used by
     * speculative checks).
     */
    std::optional<Addr> probe(Addr va) const;

    /** Install a translation (evicting the set's LRU entry). */
    void insert(Addr va, Addr frame_pa);

    /** Drop every cached translation. */
    void flush();

    unsigned numEntries() const { return entries; }
    unsigned numWays() const { return ways; }
    std::uint64_t hitCount() const { return hits.value(); }
    std::uint64_t missCount() const { return misses.value(); }

    /** Serialize entries + LRU clock (checkpointing). */
    void saveState(snap::Writer &w) const;

    /** Restore entries; geometry must match. */
    void loadState(snap::Reader &r);

  private:
    friend struct check::Access;

    struct Entry
    {
        Addr vpn = 0;
        Addr framePa = 0;
        std::uint64_t lruStamp = 0;
        bool valid = false;
    };

    unsigned setIndex(Addr vpn) const { return vpn & (numSets - 1); }

    unsigned entries;
    unsigned ways;
    // cdplint: transient(numSets) -- derived from entries/ways, whose geometry loadState already cross-checks
    unsigned numSets;
    std::vector<Entry> table; // numSets * ways
    std::uint64_t stamp = 0;

    // cdplint: transient(dummyGroup, hits, misses) -- Stats are observational, reset at warm-up end, and travel via the stats dump, not the checkpoint
    StatGroup dummyGroup; // used when caller passes no group
    Scalar hits;
    Scalar misses;
};

} // namespace cdp

#endif // CDP_VM_TLB_HH
