/**
 * @file
 * The recent-issue window shared by the L1-stream prefetchers: the
 * last 4096 distinct lines a prefetcher predicted. It answers Figure
 * 7's "would the baseline also have issued this?" and is the tagged
 * next-line prefetcher's tag filter.
 */

#ifndef CDP_PREFETCH_RECENT_ISSUES_HH
#define CDP_PREFETCH_RECENT_ISSUES_HH

#include <cstdint>
#include <string>

#include "common/line_map.hh"
#include "common/ring_deque.hh"
#include "common/types.hh"
#include "snapshot/ckpt_io.hh"

namespace cdp
{

/** FIFO of recently predicted lines, with a set over it. */
class RecentIssueWindow
{
  public:
    static constexpr std::size_t capacity = 4096;

    /** Was the line holding @p va predicted within the window? */
    bool contains(Addr va) const { return set.contains(lineAlign(va)); }

    /** Record a prediction of @p line (line-aligned). */
    void
    remember(Addr line)
    {
        if (set.contains(line))
            return;
        // Evict first, so the set never holds more than the window.
        if (fifo.full()) {
            set.erase(fifo.front());
            fifo.pop_front();
        }
        set.emplace(line);
        fifo.push_back(line);
    }

    void
    saveState(snap::Writer &w) const
    {
        w.u64(fifo.size());
        for (std::size_t i = 0; i < fifo.size(); ++i)
            w.u32(fifo[i]);
    }

    /** Restore; refuses an over-capacity, unaligned or repeated ring. */
    void
    loadState(snap::Reader &r)
    {
        const std::uint64_t n = r.u64();
        if (n > capacity)
            r.fail("recent-issue ring holds " + std::to_string(n) +
                   " entries, capacity is " + std::to_string(capacity));
        fifo.clear();
        set.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            const Addr a = r.u32();
            if (a != lineAlign(a) || !set.emplace(a).second)
                r.fail("recent-issue ring entry " + std::to_string(i) +
                       " is unaligned or repeated");
            fifo.push_back(a);
        }
    }

  private:
    RingDeque<Addr> fifo{capacity};
    // cdplint: transient(set) -- index over fifo, rebuilt from it in loadState
    LineSet set{capacity};
};

} // namespace cdp

#endif // CDP_PREFETCH_RECENT_ISSUES_HH
