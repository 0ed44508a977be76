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
#include <string>
#include <vector>

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
 * Reference-prediction-table stride prefetcher.
 */
class StridePrefetcher : public Prefetcher
{
  public:
    /**
     * @param table_entries RPT entries (direct mapped on PC)
     * @param degree lines prefetched ahead once confident
     * @param conf_threshold confidence needed before prefetching
     * @throws std::invalid_argument when @p degree exceeds
     *         maxPrefetchesPerMiss
     */
    StridePrefetcher(unsigned table_entries = 256, unsigned degree = 2,
                     unsigned conf_threshold = 2,
                     StatGroup *stats = nullptr,
                     const std::string &name = "stride");

    PrefetchList observeMiss(Addr pc, Addr vaddr) override;
    const char *name() const override { return "stride"; }

    /**
     * Did the stride prefetcher recently issue a prefetch covering
     * @p line_va? Used to compute the paper's *adjusted* coverage
     * and accuracy (Figure 7: "subtracting the content prefetches
     * that would have also been issued by the stride prefetcher").
     */
    bool recentlyIssued(Addr line_va) const;

    std::uint64_t issuedCount() const { return issued.value(); }

    /** Serialize RPT entries + the recent-issue ring. */
    void saveState(snap::Writer &w) const;

    /** Restore; table geometry must match. */
    void loadState(snap::Reader &r);

  private:
    struct Entry
    {
        Addr pcTag = 0;
        Addr lastAddr = 0;
        std::int32_t stride = 0;
        unsigned confidence = 0;
        bool valid = false;
    };

    void rememberIssued(Addr line_va);

    std::vector<Entry> table;
    // cdplint: transient(degree, confThreshold) -- construction-time policy knobs; the restoring side's own config governs
    unsigned degree;
    unsigned confThreshold;

    /** Ring of recently issued line addresses (adjusted stats). */
    static constexpr std::size_t recentCapacity = 4096;
    RingDeque<Addr> recentFifo{recentCapacity};
    // cdplint: transient(recentSet) -- index over recentFifo, rebuilt from it in loadState
    LineSet recentSet{recentCapacity};

    // cdplint: transient(dummyGroup, observed, issued) -- Stats are observational, reset at warm-up end, and travel via the stats dump, not the checkpoint
    StatGroup dummyGroup;
    Scalar observed;
    Scalar issued;
};

} // namespace cdp

#endif // CDP_PREFETCH_STRIDE_PREFETCHER_HH
