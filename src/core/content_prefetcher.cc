#include "core/content_prefetcher.hh"

#include <stdexcept>

namespace cdp
{

namespace
{

const CdpConfig &
checkedWidths(const CdpConfig &cfg)
{
    if (cfg.nextLines > maxWidthLines || cfg.prevLines > maxWidthLines)
        throw std::invalid_argument(
            "ContentPrefetcher: width exceeds " +
            std::to_string(maxWidthLines) + " lines");
    return cfg;
}

} // namespace

ContentPrefetcher::ContentPrefetcher(const CdpConfig &cfg,
                                     StatGroup *stats,
                                     const std::string &name)
    : cfg(checkedWidths(cfg)), predictor(cfg.vam),
      scans(stats ? *stats : dummyGroup, name + ".scans",
            "cache lines scanned"),
      rescans(stats ? *stats : dummyGroup, name + ".rescans",
              "reinforcement-driven rescans"),
      candidates(stats ? *stats : dummyGroup, name + ".candidates",
                 "candidate virtual addresses found"),
      widthLines(stats ? *stats : dummyGroup, name + ".width_lines",
                 "next/prev-line companion prefetches emitted"),
      depthSuppressed(stats ? *stats : dummyGroup,
                      name + ".depth_suppressed",
                      "fills not scanned: depth at threshold")
{
    emitted.reserve(maxEmitted);
}

void
ContentPrefetcher::reconfigure(const CdpConfig &new_cfg)
{
    cfg = checkedWidths(new_cfg);
    predictor = Vam(cfg.vam);
}

bool
ContentPrefetcher::shouldRescan(unsigned req_depth,
                                unsigned stored_depth) const
{
    if (!cfg.enabled || !cfg.reinforce)
        return false;
    return stored_depth > req_depth &&
           stored_depth - req_depth >= cfg.reinforceMinDelta;
}

std::span<const CdpCandidate>
ContentPrefetcher::scanFill(const std::uint8_t *line, Addr trigger_ea,
                            unsigned fill_depth, bool is_rescan)
{
    // The buffer is reused: callers consume the previous view before
    // the next scan (MemorySystem enqueues every candidate, and
    // enqueueing never scans).
    std::vector<CdpCandidate> &out = emitted;
    out.clear();
    if (!cfg.enabled)
        return out;
    if (!scansAtDepth(fill_depth)) {
        ++depthSuppressed;
        return out;
    }

    ++scans;
    if (is_rescan)
        ++rescans;

    const Addr trigger_line = lineAlign(trigger_ea);
    const unsigned child_depth = fill_depth + 1;
    const bool emit_width = !is_rescan || cfg.widthOnRescan;
    seen.emplace(trigger_line); // never re-request the line in hand

    unsigned hop = 0; // provenance hop index, scan-emission order
    for (Addr target : predictor.scanLine(line, trigger_ea)) {
        ++candidates;
        const Addr target_line = lineAlign(target);
        if (seen.emplace(target_line).second) {
            out.push_back({target, target_line, child_depth, false,
                           hop++});
        }
        if (!emit_width)
            continue;
        for (unsigned p = 1; p <= cfg.prevLines; ++p) {
            const Addr l = target_line - p * lineBytes;
            if (l < target_line && seen.emplace(l).second) {
                out.push_back({target, l, child_depth, true, hop++});
                ++widthLines;
            }
        }
        for (unsigned n = 1; n <= cfg.nextLines; ++n) {
            const Addr l = target_line + n * lineBytes;
            if (l > target_line && seen.emplace(l).second) {
                out.push_back({target, l, child_depth, true, hop++});
                ++widthLines;
            }
        }
    }
    // Empty the dedupe set again: it holds exactly these lines.
    for (const CdpCandidate &c : out)
        seen.erase(c.lineVa);
    seen.erase(trigger_line);
    return out;
}

} // namespace cdp
