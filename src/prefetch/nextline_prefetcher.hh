/**
 * @file
 * Tagged next-line prefetcher — the simplest classical hardware
 * prefetcher (one-block lookahead, Smith 1982; the degenerate case
 * of Jouppi's stream buffers the paper cites as related work).
 *
 * On every observed miss it prefetches the next @p degree sequential
 * lines. Provided as an alternative baseline to the stride
 * prefetcher so the repository can demonstrate *why* the paper
 * builds on a stride baseline: next-line covers pure streams but
 * wastes bandwidth on irregular traffic, while the PC-indexed stride
 * engine follows per-instruction arithmetic progressions of any
 * stride (see bench_baselines).
 */

#ifndef CDP_PREFETCH_NEXTLINE_PREFETCHER_HH
#define CDP_PREFETCH_NEXTLINE_PREFETCHER_HH

#include <cstdint>
#include <string>

#include "common/line_map.hh"
#include "common/ring_deque.hh"
#include "common/types.hh"
#include "prefetch/prefetcher.hh"
#include "stats/stat.hh"

namespace cdp
{

namespace snap
{
class Writer;
class Reader;
} // namespace snap

/**
 * Miss-driven sequential (next-line) prefetcher.
 */
class NextLinePrefetcher : public Prefetcher
{
  public:
    /**
     * @param degree sequential lines fetched per observed miss
     * @param tagged when true, suppress re-issuing lines predicted
     *        recently (classic "tagged" variant)
     * @throws std::invalid_argument when @p degree exceeds
     *         maxPrefetchesPerMiss
     */
    explicit NextLinePrefetcher(unsigned degree = 1, bool tagged = true,
                                StatGroup *stats = nullptr,
                                const std::string &name = "nextline");

    PrefetchList observeMiss(Addr pc, Addr vaddr) override;
    const char *name() const override { return "nextline"; }

    /** Was @p line_va recently predicted (for adjusted stats)? */
    bool recentlyIssued(Addr line_va) const;

    std::uint64_t issuedCount() const { return issued.value(); }

    /** Serialize the recent-issue ring (the only mutable state). */
    void saveState(snap::Writer &w) const;
    void loadState(snap::Reader &r);

  private:
    void rememberIssued(Addr line_va);

    // cdplint: transient(degree, tagged) -- construction-time policy knobs; the restoring side's own config governs
    unsigned degree;
    bool tagged;

    static constexpr std::size_t recentCapacity = 4096;
    RingDeque<Addr> recentFifo{recentCapacity};
    // cdplint: transient(recentSet) -- index over recentFifo, rebuilt from it in loadState
    LineSet recentSet{recentCapacity};

    // cdplint: transient(dummyGroup, observed, issued, suppressed) -- Stats are observational, reset at warm-up end, and travel via the stats dump, not the checkpoint
    StatGroup dummyGroup;
    Scalar observed;
    Scalar issued;
    Scalar suppressed;
};

} // namespace cdp

#endif // CDP_PREFETCH_NEXTLINE_PREFETCHER_HH
