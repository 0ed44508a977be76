#include "prefetch/nextline_prefetcher.hh"

#include <stdexcept>
#include <string>

namespace cdp
{

NextLinePrefetcher::NextLinePrefetcher(unsigned degree, StatGroup *stats)
    : Prefetcher("nextline", MissStream::L1, stats,
                 "next-line prefetches issued"),
      degree(degree ? degree : 1),
      suppressed(group(stats), "nextline.suppressed",
                 "predictions suppressed by the tag filter")
{
    if (this->degree > maxPrefetchesPerMiss)
        throw std::invalid_argument(
            "NextLinePrefetcher: degree " + std::to_string(degree) +
            " exceeds " + std::to_string(maxPrefetchesPerMiss));
}

PrefetchList
NextLinePrefetcher::predict(Addr /*pc*/, Addr vaddr)
{
    PrefetchList out;
    const Addr base = lineAlign(vaddr);
    for (unsigned d = 1; d <= degree; ++d) {
        const Addr line = base + d * lineBytes;
        if (line < base)
            break; // wrapped past the top of the address space
        if (recent.contains(line)) {
            ++suppressed;
            continue;
        }
        out.push_back(line);
        recent.remember(line);
    }
    return out;
}

} // namespace cdp
