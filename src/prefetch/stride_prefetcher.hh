/**
 * @file
 * PC-indexed stride prefetcher (reference-prediction-table style,
 * Chen & Baer). This is the paper's *baseline* enhancement: every
 * speedup reported for the content prefetcher is measured relative to
 * a machine that already has this prefetcher (Section 2.1), so its
 * fidelity matters for the shape of every figure.
 *
 * Each table entry tracks the last effective address and stride of
 * one static load, with a two-bit confidence state machine; once
 * confidence is established, the next @p degree strided lines are
 * prefetched.
 */

#ifndef CDP_PREFETCH_STRIDE_PREFETCHER_HH
#define CDP_PREFETCH_STRIDE_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "prefetch/prefetcher.hh"
#include "prefetch/recent_issues.hh"

namespace cdp
{

/**
 * Reference-prediction-table stride prefetcher.
 */
class StridePrefetcher : public Prefetcher
{
  public:
    /**
     * @param table_entries RPT entries (direct mapped on PC), >= 1
     * @param degree lines prefetched ahead once confident
     * @param conf_threshold confidence needed before prefetching
     * @param stats group to register stride.* in (nullptr: none)
     * @throws std::invalid_argument when @p degree exceeds
     *         maxPrefetchesPerMiss
     */
    StridePrefetcher(unsigned table_entries = 256, unsigned degree = 2,
                     unsigned conf_threshold = 2,
                     StatGroup *stats = nullptr);

    bool recentlyIssued(Addr va) const override { return recent.contains(va); }

    /** Serialize RPT entries + the recent-issue window. */
    void saveState(snap::Writer &w) const override;

    /** Restore; table geometry must match. */
    void loadState(snap::Reader &r) override;

  private:
    /** Saturation point of the two-bit confidence counter. */
    static constexpr unsigned maxConfidence = 3;

    struct Entry
    {
        Addr pcTag = 0;
        Addr lastAddr = 0;
        std::int32_t stride = 0;
        unsigned confidence = 0;
        bool valid = false;
    };

    PrefetchList predict(Addr pc, Addr vaddr) override;

    std::vector<Entry> table;
    // cdplint: transient(tableIndex) -- derived from the table size, which the checkpoint guards
    Rng::Divisor tableIndex; //!< x % table.size(), with no divide
    // cdplint: transient(degree, confThreshold) -- construction-time policy knobs; the restoring side's own config governs
    unsigned degree;
    unsigned confThreshold;
    RecentIssueWindow recent; //!< lines predicted lately (Figure 7)
};

} // namespace cdp

#endif // CDP_PREFETCH_STRIDE_PREFETCHER_HH
