/**
 * @file
 * Set-associative cache model with LRU replacement and the per-line
 * request-depth tag that the paper's path-reinforcement mechanism
 * relies on.
 *
 * Section 3.4.2: "a very small amount of space is allocated (enough
 * bits to encode the maximum allowed prefetch depth) in the cache
 * line to maintain the depth of a reference" — under 0.5% overhead at
 * two bits per 64-byte line. The tag lives in CacheLine::storedDepth.
 *
 * The model tracks only tags and metadata; line *data* stays in the
 * BackingStore (simulated caches are always coherent with it since
 * there is a single core).
 */

#ifndef CDP_MEMSYS_CACHE_HH
#define CDP_MEMSYS_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "memsys/request.hh"
#include "stats/stat.hh"

namespace cdp
{

namespace check { struct Access; }

namespace snap
{
class Writer;
class Reader;
} // namespace snap

/** Metadata for one resident cache line. */
struct CacheLine
{
    Addr tag = 0;              //!< line-aligned address
    std::uint64_t lruStamp = 0;
    bool valid = false;
    /** Filled by a prefetch and not yet referenced by a demand. */
    bool prefetched = false;
    /** Class of the request that brought the line in. */
    ReqType fillType = ReqType::DemandLoad;
    /** Stored request depth (the reinforcement tag). */
    std::uint8_t storedDepth = 0;
    /**
     * Depth at fill time, never promoted afterwards; per-depth
     * accuracy/pollution stats attribute against this, not the
     * mutable storedDepth.
     */
    std::uint8_t fillDepth = 0;
    /** Provenance root of the fill (see MshrEntry::root). */
    ReqId provRoot = 0;
    /** Cycle the fill completed (for timeliness accounting). */
    Cycle fillCycle = 0;
    /** Whether any demand ever touched the line (accuracy stats). */
    bool everUsed = false;
    /**
     * The stride prefetcher had also issued for this line; used to
     * compute the paper's stride-adjusted coverage/accuracy (Fig. 7).
     */
    bool strideOverlap = false;
};

/** What fell out of a set on insert. */
struct Eviction
{
    bool valid = false;        //!< an actual line was displaced
    Addr lineAddr = 0;
    bool prefetched = false;   //!< victim was an unused prefetch
    ReqType fillType = ReqType::DemandLoad;
    std::uint8_t fillDepth = 0; //!< victim's depth at fill time
    bool everUsed = false;      //!< a demand touched the victim
};

/**
 * An LRU set-associative cache keyed by line-aligned addresses.
 * Geometry (size, associativity) is fully parameterized; the same
 * class models the DL1 (32 KB, 8-way, virtually indexed) and the UL2
 * (1 MB, 8-way, physically indexed), as well as the resized UL2
 * variants of the Markov study (896 KB 7-way, 512 KB 8-way).
 */
class Cache
{
  public:
    /**
     * @param size_bytes total capacity; must be ways * sets * 64 with
     *        sets a power of two
     * @param ways associativity
     * @param stats optional group for hit/miss/eviction counters
     * @param name stat prefix
     */
    Cache(std::uint64_t size_bytes, unsigned ways,
          StatGroup *stats = nullptr, const std::string &name = "cache");

    /** The constructor's geometry rule, naming the parameters
     *  @p size_name and @p ways_name; empty when valid. */
    static std::string geometryError(std::uint64_t size_bytes,
                                     unsigned ways,
                                     const char *size_name = "size",
                                     const char *ways_name = "ways");

    /**
     * Look up @p addr; on a hit the line's LRU stamp is refreshed.
     * @return the resident line, or nullptr on a miss.
     */
    CacheLine *lookup(Addr addr);

    /** Look up without disturbing LRU state or statistics. */
    const CacheLine *probe(Addr addr) const;
    CacheLine *probeMutable(Addr addr);

    /**
     * Insert (fill) the line containing @p addr, evicting the set's
     * LRU victim when the set is full.
     * @return the freshly installed line (caller sets metadata).
     */
    CacheLine &insert(Addr addr, Eviction *evicted = nullptr);

    /** Drop the line containing @p addr if resident. */
    void invalidate(Addr addr);

    /** Drop every line. */
    void flushAll();

    unsigned numWays() const { return ways; }
    unsigned numSets() const { return sets; }
    std::uint64_t sizeBytes() const
    {
        return static_cast<std::uint64_t>(sets) * ways * lineBytes;
    }

    /** Count of currently valid lines (test support). */
    std::uint64_t residentLines() const;

    std::uint64_t hitCount() const { return hits.value(); }
    std::uint64_t missCount() const { return misses.value(); }
    std::uint64_t evictionCount() const { return evictions.value(); }

    /** Serialize every line's metadata + the LRU clock. */
    void saveState(snap::Writer &w) const;

    /** Restore line metadata; geometry must match. */
    void loadState(snap::Reader &r);

  private:
    friend struct check::Access;

    unsigned setIndex(Addr line_addr) const
    {
        return (line_addr >> lineShift) & setMask;
    }

    /** First line of the set containing @p line_addr. */
    CacheLine *
    setBase(Addr line_addr)
    {
        return &lines[static_cast<std::size_t>(setIndex(line_addr)) *
                      ways];
    }
    const CacheLine *
    setBase(Addr line_addr) const
    {
        return &lines[static_cast<std::size_t>(setIndex(line_addr)) *
                      ways];
    }

    unsigned ways;
    unsigned sets;
    // cdplint: transient(setMask) -- precomputed from 'sets', whose geometry loadState already cross-checks
    unsigned setMask; //!< sets - 1, precomputed (sets is pow2)
    std::vector<CacheLine> lines; // sets * ways
    std::uint64_t stamp = 0;

    // cdplint: transient(dummyGroup, hits, misses, evictions) -- Stats are observational, reset at warm-up end, and travel via the stats dump, not the checkpoint
    StatGroup dummyGroup;
    Scalar hits;
    Scalar misses;
    Scalar evictions;
};

} // namespace cdp

#endif // CDP_MEMSYS_CACHE_HH
