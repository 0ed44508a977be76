#include "core/content_prefetcher.hh"

#include <unordered_set>

namespace cdp
{

ContentPrefetcher::ContentPrefetcher(const CdpConfig &cfg,
                                     StatGroup *stats,
                                     const std::string &name)
    : cfg(cfg), predictor(cfg.vam),
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
}

void
ContentPrefetcher::reconfigure(const CdpConfig &new_cfg)
{
    cfg = new_cfg;
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

std::vector<CdpCandidate>
ContentPrefetcher::scanFill(const std::uint8_t *line, Addr trigger_ea,
                            unsigned fill_depth, bool is_rescan)
{
    std::vector<CdpCandidate> out;
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
    std::unordered_set<Addr> seen;
    seen.insert(trigger_line); // never re-request the line in hand

    unsigned hop = 0; // provenance hop index, scan-emission order
    for (Addr target : predictor.scanLine(line, trigger_ea)) {
        ++candidates;
        const Addr target_line = lineAlign(target);
        if (seen.insert(target_line).second) {
            out.push_back({target, target_line, child_depth, false,
                           hop++});
        }
        if (!emit_width)
            continue;
        for (unsigned p = 1; p <= cfg.prevLines; ++p) {
            const Addr l = target_line - p * lineBytes;
            if (l < target_line && seen.insert(l).second) {
                out.push_back({target, l, child_depth, true, hop++});
                ++widthLines;
            }
        }
        for (unsigned n = 1; n <= cfg.nextLines; ++n) {
            const Addr l = target_line + n * lineBytes;
            if (l > target_line && seen.insert(l).second) {
                out.push_back({target, l, child_depth, true, hop++});
                ++widthLines;
            }
        }
    }
    return out;
}

} // namespace cdp
