#include "prefetch/nextline_prefetcher.hh"

#include <stdexcept>

#include "snapshot/ckpt_io.hh"

namespace cdp
{

NextLinePrefetcher::NextLinePrefetcher(unsigned degree, bool tagged,
                                       StatGroup *stats,
                                       const std::string &name)
    : degree(degree ? degree : 1), tagged(tagged),
      observed(stats ? *stats : dummyGroup, name + ".observed",
               "demand misses observed"),
      issued(stats ? *stats : dummyGroup, name + ".issued",
             "next-line prefetches issued"),
      suppressed(stats ? *stats : dummyGroup, name + ".suppressed",
                 "predictions suppressed by the tag filter")
{
    if (this->degree > maxPrefetchesPerMiss)
        throw std::invalid_argument(
            "NextLinePrefetcher: degree " + std::to_string(degree) +
            " exceeds " + std::to_string(maxPrefetchesPerMiss));
}

PrefetchList
NextLinePrefetcher::observeMiss(Addr /*pc*/, Addr vaddr)
{
    ++observed;
    PrefetchList out;
    const Addr base = lineAlign(vaddr);
    for (unsigned d = 1; d <= degree; ++d) {
        const Addr line = base + d * lineBytes;
        if (line < base)
            break; // wrapped past the top of the address space
        if (tagged && recentSet.contains(line)) {
            ++suppressed;
            continue;
        }
        out.push_back(line);
        rememberIssued(line);
        ++issued;
    }
    return out;
}

bool
NextLinePrefetcher::recentlyIssued(Addr line_va) const
{
    return recentSet.contains(lineAlign(line_va));
}

void
NextLinePrefetcher::rememberIssued(Addr line_va)
{
    line_va = lineAlign(line_va);
    if (recentSet.contains(line_va))
        return;
    if (recentFifo.full()) {
        recentSet.erase(recentFifo.front());
        recentFifo.pop_front();
    }
    recentSet.emplace(line_va);
    recentFifo.push_back(line_va);
}

void
NextLinePrefetcher::saveState(snap::Writer &w) const
{
    w.u64(recentFifo.size());
    for (std::size_t i = 0; i < recentFifo.size(); ++i)
        w.u32(recentFifo[i]);
}

void
NextLinePrefetcher::loadState(snap::Reader &r)
{
    const std::uint64_t n = r.u64();
    if (n > recentCapacity)
        r.fail("next-line recent-issue ring holds " + std::to_string(n) +
               " entries, capacity is " + std::to_string(recentCapacity));
    recentFifo.clear();
    recentSet.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr a = r.u32();
        // The ring holds distinct line addresses; anything else
        // would corrupt the set that indexes it.
        if (a != lineAlign(a) || !recentSet.emplace(a).second)
            r.fail("next-line recent-issue ring entry " + std::to_string(i) +
                   " is unaligned or repeated");
        recentFifo.push_back(a);
    }
}

} // namespace cdp
