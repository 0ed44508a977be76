/**
 * @file
 * Tagged next-line prefetcher — the simplest classical hardware
 * prefetcher (one-block lookahead, Smith 1982; the degenerate case
 * of Jouppi's stream buffers the paper cites as related work).
 *
 * On every observed miss it prefetches the next @p degree sequential
 * lines, skipping any line it predicted recently (the "tagged"
 * variant). Provided as an alternative baseline to the stride
 * prefetcher so the repository can demonstrate *why* the paper
 * builds on a stride baseline: next-line covers pure streams but
 * wastes bandwidth on irregular traffic, while the PC-indexed stride
 * engine follows per-instruction arithmetic progressions of any
 * stride (see bench_baselines).
 */

#ifndef CDP_PREFETCH_NEXTLINE_PREFETCHER_HH
#define CDP_PREFETCH_NEXTLINE_PREFETCHER_HH

#include "common/types.hh"
#include "prefetch/prefetcher.hh"
#include "prefetch/recent_issues.hh"

namespace cdp
{

/**
 * Miss-driven sequential (next-line) prefetcher.
 */
class NextLinePrefetcher : public Prefetcher
{
  public:
    /**
     * @param degree sequential lines fetched per observed miss
     * @param stats group to register nextline.* in (nullptr: none)
     * @throws std::invalid_argument when @p degree exceeds
     *         maxPrefetchesPerMiss
     */
    explicit NextLinePrefetcher(unsigned degree = 1,
                                StatGroup *stats = nullptr);

    bool recentlyIssued(Addr va) const override { return recent.contains(va); }

    /** The recent-issue window is the only mutable state. */
    void saveState(snap::Writer &w) const override { recent.saveState(w); }
    void loadState(snap::Reader &r) override { recent.loadState(r); }

  private:
    PrefetchList predict(Addr pc, Addr vaddr) override;

    // cdplint: transient(degree) -- construction-time policy knob; the restoring side's own config governs
    unsigned degree;
    RecentIssueWindow recent; //!< the tag filter, and Figure 7's overlap

    // cdplint: transient(suppressed) -- Stats are observational, reset at warm-up end, and travel via the stats dump, not the checkpoint
    Scalar suppressed;
};

} // namespace cdp

#endif // CDP_PREFETCH_NEXTLINE_PREFETCHER_HH
