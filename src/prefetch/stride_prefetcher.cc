#include "prefetch/stride_prefetcher.hh"

#include <stdexcept>
#include <string>

#include "snapshot/ckpt_io.hh"

namespace cdp
{

StridePrefetcher::StridePrefetcher(unsigned table_entries, unsigned degree,
                                   unsigned conf_threshold,
                                   StatGroup *stats)
    : Prefetcher("stride", MissStream::L1, stats,
                 "stride prefetches issued"),
      table(table_entries), tableIndex(table_entries), degree(degree),
      confThreshold(conf_threshold)
{
    if (degree > maxPrefetchesPerMiss)
        throw std::invalid_argument(
            "StridePrefetcher: degree " + std::to_string(degree) +
            " exceeds " + std::to_string(maxPrefetchesPerMiss));
}

PrefetchList
StridePrefetcher::predict(Addr pc, Addr vaddr)
{
    PrefetchList out;
    Entry &e = table[tableIndex.mod(pc >> 2)];

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
        if (e.confidence < maxConfidence)
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
            recent.remember(line);
        }
    }
    return out;
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
    recent.saveState(w);
}

void
StridePrefetcher::loadState(snap::Reader &r)
{
    r.expectU64(table.size(), "stride RPT entries");
    for (Entry &e : table) {
        e.pcTag = r.u32();
        e.lastAddr = r.u32();
        e.stride = static_cast<std::int32_t>(r.u32());
        const std::uint64_t confidence = r.u64();
        // The two-bit state machine never leaves 0..3.
        if (confidence > maxConfidence)
            r.fail("stride RPT confidence " + std::to_string(confidence) +
                   " exceeds " + std::to_string(maxConfidence));
        e.confidence = static_cast<unsigned>(confidence);
        e.valid = r.boolean();
    }
    recent.loadState(r);
}

} // namespace cdp
