/**
 * @file
 * 1-history Markov prefetcher (Joseph & Grunwald, ISCA 1997), the
 * comparison point of Section 5.
 *
 * A State Transition Table (STAB) maps a miss line address to the up
 * to four (fan-out) line addresses that followed it in the miss
 * stream, most-recently-observed first, managed LRU. On each miss the
 * successors of the missing line are predicted as prefetches, then
 * the predecessor's successor list is updated.
 *
 * Table 3 configurations are expressed through @p capacity_bytes:
 *   markov_1/2  -> 512 KB STAB, 16-way
 *   markov_1/8  -> 128 KB STAB, 16-way
 *   markov_big  -> capacity_bytes == 0: unbounded STAB
 *
 * Each bounded entry is costed at (tag + fanout successors) * 4 B =
 * 20 bytes, so a 512 KB STAB holds ~26 K entries organized 16-way.
 * It watches the L2 miss stream. The paper blocks the Markov
 * prefetcher whenever the stride prefetcher issued for the same
 * reference; that rule lives in the memory system, which runs the
 * L1-stream prefetchers first.
 */

#ifndef CDP_PREFETCH_MARKOV_PREFETCHER_HH
#define CDP_PREFETCH_MARKOV_PREFETCHER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "prefetch/prefetcher.hh"

namespace cdp
{

/**
 * Bounded or unbounded 1-history Markov prefetcher.
 */
class MarkovPrefetcher : public Prefetcher
{
  public:
    /**
     * @param capacity_bytes STAB budget; 0 means unbounded
     * @param ways set associativity of the bounded STAB
     * @param fanout successors kept (and predicted) per entry
     * @param stats group to register markov.* in (nullptr: none)
     * @throws std::invalid_argument when @p fanout exceeds
     *         maxPrefetchesPerMiss
     */
    MarkovPrefetcher(std::uint64_t capacity_bytes, unsigned ways = 16,
                     unsigned fanout = 4, StatGroup *stats = nullptr);

    /** Entries the bounded STAB can hold (0 when unbounded). */
    std::uint64_t capacityEntries() const { return entryCapacity; }

    /** Entries currently trained. */
    std::uint64_t population() const;

    /** Bytes modeled per STAB entry (tag + fanout successors). */
    static constexpr std::uint64_t bytesPerEntry = 20;

    /**
     * Serialize the STAB (the unbounded map travels key-sorted so
     * checkpoints are byte-deterministic) and the 1-deep history.
     */
    void saveState(snap::Writer &w) const override;

    /** Restore; STAB geometry must match. */
    void loadState(snap::Reader &r) override;

  private:
    struct Entry
    {
        Addr tag = 0;
        std::vector<Addr> successors; // MRU first, <= fanout
        std::uint64_t lruStamp = 0;
        bool valid = false;
    };

    PrefetchList predict(Addr pc, Addr vaddr) override;

    /** Record transition prev -> line in the STAB. */
    void train(Addr prev, Addr line);

    Entry *findEntry(Addr line);
    Entry &allocEntry(Addr line);

    unsigned ways;
    unsigned fanout;
    std::uint64_t entryCapacity; // 0 = unbounded
    unsigned numSets = 0;        // bounded mode only

    std::vector<Entry> setTable;              // bounded storage
    std::unordered_map<Addr, Entry> bigTable; // unbounded storage

    Addr prevMissLine = 0;
    bool havePrev = false;
    std::uint64_t stamp = 0;

    // cdplint: transient(trained) -- Stats are observational, reset at warm-up end, and travel via the stats dump, not the checkpoint
    Scalar trained;
};

} // namespace cdp

#endif // CDP_PREFETCH_MARKOV_PREFETCHER_HH
