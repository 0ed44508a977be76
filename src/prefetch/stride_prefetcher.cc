#include "prefetch/stride_prefetcher.hh"

#include <stdexcept>

#include "snapshot/ckpt_io.hh"

namespace cdp
{

StridePrefetcher::StridePrefetcher(unsigned table_entries, unsigned degree,
                                   unsigned conf_threshold,
                                   StatGroup *stats,
                                   const std::string &name)
    : table(table_entries), degree(degree), confThreshold(conf_threshold),
      observed(stats ? *stats : dummyGroup, name + ".observed",
               "demand misses observed"),
      issued(stats ? *stats : dummyGroup, name + ".issued",
             "stride prefetches issued")
{
    if (degree > maxPrefetchesPerMiss)
        throw std::invalid_argument(
            "StridePrefetcher: degree " + std::to_string(degree) +
            " exceeds " + std::to_string(maxPrefetchesPerMiss));
}

PrefetchList
StridePrefetcher::observeMiss(Addr pc, Addr vaddr)
{
    ++observed;
    PrefetchList out;
    Entry &e = table[(pc >> 2) % table.size()];

    if (!e.valid || e.pcTag != pc) {
        e.pcTag = pc;
        e.lastAddr = vaddr;
        e.stride = 0;
        e.confidence = 0;
        e.valid = true;
        return out;
    }

    const auto new_stride = static_cast<std::int32_t>(vaddr - e.lastAddr);
    if (new_stride == 0) {
        // Same address again (e.g. a miss under a miss); no update.
        return out;
    }

    if (new_stride == e.stride) {
        if (e.confidence < 3)
            ++e.confidence;
    } else {
        if (e.confidence > 0) {
            --e.confidence;
        } else {
            e.stride = new_stride;
        }
    }
    e.lastAddr = vaddr;

    if (e.confidence >= confThreshold && e.stride != 0) {
        Addr target = vaddr;
        Addr prev_line = lineAlign(vaddr);
        for (unsigned d = 0; d < degree; ++d) {
            target += static_cast<Addr>(e.stride);
            const Addr line = lineAlign(target);
            if (line == prev_line)
                continue; // small stride staying in the same line
            prev_line = line;
            out.push_back(target);
            rememberIssued(line);
            ++issued;
        }
    }
    return out;
}

bool
StridePrefetcher::recentlyIssued(Addr line_va) const
{
    return recentSet.contains(lineAlign(line_va));
}

void
StridePrefetcher::rememberIssued(Addr line_va)
{
    line_va = lineAlign(line_va);
    if (recentSet.contains(line_va))
        return;
    // Evict the oldest line first, so the set never holds more than
    // the window (the same last-4096-distinct-lines contents as
    // inserting first and evicting after).
    if (recentFifo.full()) {
        recentSet.erase(recentFifo.front());
        recentFifo.pop_front();
    }
    recentSet.emplace(line_va);
    recentFifo.push_back(line_va);
}

void
StridePrefetcher::saveState(snap::Writer &w) const
{
    w.u64(table.size());
    for (const Entry &e : table) {
        w.u32(e.pcTag);
        w.u32(e.lastAddr);
        w.u32(static_cast<std::uint32_t>(e.stride));
        w.u64(e.confidence);
        w.boolean(e.valid);
    }
    // The FIFO is the source of truth; the set is rebuilt on load.
    w.u64(recentFifo.size());
    for (std::size_t i = 0; i < recentFifo.size(); ++i)
        w.u32(recentFifo[i]);
}

void
StridePrefetcher::loadState(snap::Reader &r)
{
    r.expectU64(table.size(), "stride RPT entries");
    for (Entry &e : table) {
        e.pcTag = r.u32();
        e.lastAddr = r.u32();
        e.stride = static_cast<std::int32_t>(r.u32());
        e.confidence = static_cast<unsigned>(r.u64());
        e.valid = r.boolean();
    }
    const std::uint64_t n = r.u64();
    if (n > recentCapacity)
        r.fail("stride recent-issue ring holds " + std::to_string(n) +
               " entries, capacity is " + std::to_string(recentCapacity));
    recentFifo.clear();
    recentSet.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr a = r.u32();
        // The ring holds distinct line addresses; anything else
        // would corrupt the set that indexes it.
        if (a != lineAlign(a) || !recentSet.emplace(a).second)
            r.fail("stride recent-issue ring entry " + std::to_string(i) +
                   " is unaligned or repeated");
        recentFifo.push_back(a);
    }
}

} // namespace cdp
