/**
 * @file
 * The content-directed data prefetcher — the paper's contribution
 * (Sections 3.1, 3.4, 3.5).
 *
 * The prefetcher receives a copy of every UL2 fill (demand and
 * prefetch), scans it with the VAM heuristic, and emits candidate
 * prefetches. Three mechanisms shape the request stream:
 *
 *  - **Chaining / request depth** (3.4.1): a prefetch born from a
 *    demand fill has depth 1; a prefetch born from a prefetch fill of
 *    depth d has depth d+1; fills whose depth has reached the
 *    threshold are not scanned, bounding speculation.
 *  - **Width** (3.4.3): each candidate may pull in @p nextLines
 *    following lines (and optionally @p prevLines preceding ones) at
 *    the same depth — trading "deeper" for "wider" because node
 *    instances span cache lines.
 *  - **Path reinforcement** (3.4.2): a demand (or shallower) hit on a
 *    prefetched line whose stored depth exceeds the request depth
 *    promotes the line and *rescans* it, re-extending the chain so
 *    prefetching stays a threshold's distance ahead. The rescan can
 *    be throttled to fire only when the depth improves by at least
 *    @p reinforceMinDelta (Figure 4c halves the rescans with delta 2).
 *
 * The class is a pure policy engine: it decides *what* to prefetch;
 * translation, duplicate suppression against caches/arbiters/MSHRs,
 * and queueing are the memory system's job (Figure 6).
 */

#ifndef CDP_CORE_CONTENT_PREFETCHER_HH
#define CDP_CORE_CONTENT_PREFETCHER_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/line_map.hh"
#include "common/types.hh"
#include "core/vam.hh"
#include "stats/stat.hh"

namespace cdp
{

/**
 * Most next (or previous) lines one candidate may pull in; the knob
 * table's cdp.next_lines / cdp.prev_lines maxima.
 */
constexpr unsigned maxWidthLines = 64;

/** Configuration of the content prefetcher. */
struct CdpConfig
{
    bool enabled = true;
    VamConfig vam{};
    /** Prefetch chains stop when request depth reaches this. */
    unsigned depthThreshold = 3;
    /** Lines fetched after each candidate ("wider"). */
    unsigned nextLines = 3;
    /** Lines fetched before each candidate. */
    unsigned prevLines = 0;
    /** Enable path reinforcement (depth tags in the UL2). */
    bool reinforce = true;
    /**
     * Minimum (storedDepth - requestDepth) required to trigger a
     * rescan; 1 = always rescan on promotion, 2 = Figure 4(c).
     */
    unsigned reinforceMinDelta = 1;
    /** Scan fills produced by page walks (off per Section 3.5). */
    bool scanPageWalkFills = false;
    /**
     * Scan next/prev-line (width) fills when they return. Width
     * prefetches exist to pull in the rest of a node instance
     * (Section 3.4.3), not to extend the recursive chain; scanning
     * them makes the chain frontier grow geometrically and the
     * resulting prefetch storm pollutes the UL2. Off by default;
     * exposed for the ablation bench.
     */
    bool scanWidthFills = false;
    /**
     * Emit width (next/prev-line) companions on reinforcement
     * rescans. A rescan's purpose is to re-extend the *chain*
     * (Section 3.4.2); re-emitting width lines on every demand hit
     * refetches previously evicted width junk and sustains cache
     * pollution. Off by default; exposed for the ablation bench.
     */
    bool widthOnRescan = false;

    /** Field-wise (checkpoint live-config reconciliation). */
    bool operator==(const CdpConfig &) const = default;
};

/** One prefetch the content prefetcher wants issued. */
struct CdpCandidate
{
    Addr vaddr = 0;      //!< predicted pointer target (virtual)
    Addr lineVa = 0;     //!< line to fetch (candidate or next/prev line)
    unsigned depth = 0;  //!< request depth to assign
    bool widthLine = false; //!< true for next/prev-line companions
    /**
     * Provenance hop: this candidate's index within the scan that
     * emitted it (width companions count). Combined with the fill's
     * root id, (root, depth, hop) uniquely names the chain position
     * of every derived prefetch (see src/obs/event.hh).
     */
    unsigned hop = 0;
};

/**
 * Content-directed prefetcher policy engine.
 */
class ContentPrefetcher
{
  public:
    explicit ContentPrefetcher(const CdpConfig &cfg = CdpConfig{},
                               StatGroup *stats = nullptr,
                               const std::string &name = "cdp");

    /**
     * Scan a fill and emit candidate prefetches.
     *
     * @param line the lineBytes bytes of fill data
     * @param trigger_ea virtual effective address of the triggering
     *        request (demand EA, or the candidate address for a
     *        chained prefetch)
     * @param fill_depth request depth of the fill being scanned
     * @param is_rescan true when driven by path reinforcement
     * @return prefetches to issue, duplicates within the scan removed:
     *         a view of a buffer the next scanFill() call reuses
     */
    std::span<const CdpCandidate> scanFill(const std::uint8_t *line,
                                           Addr trigger_ea,
                                           unsigned fill_depth,
                                           bool is_rescan = false);

    /**
     * Reinforcement predicate: should a hit with @p req_depth on a
     * line tagged @p stored_depth trigger promotion + rescan?
     */
    bool shouldRescan(unsigned req_depth, unsigned stored_depth) const;

    /** Is a fill of @p depth scanned at all (depth < threshold)? */
    bool scansAtDepth(unsigned depth) const
    {
        return depth < cfg.depthThreshold;
    }

    const CdpConfig &config() const { return cfg; }
    const Vam &vam() const { return predictor; }

    /**
     * Swap in a new configuration at runtime (used by the adaptive
     * controller). The predictor is rebuilt; counters are preserved.
     * @throws std::invalid_argument when a width exceeds maxWidthLines
     */
    void reconfigure(const CdpConfig &new_cfg);

    std::uint64_t linesScanned() const { return scans.value(); }
    std::uint64_t rescanCount() const { return rescans.value(); }
    std::uint64_t candidatesFound() const { return candidates.value(); }

  private:
    /**
     * The live configuration — the construction-time one unless the
     * adaptive controller has tuned it. The VAM is stateless by design
     * (the paper's central claim), so this is all a checkpoint needs;
     * MemorySystem carries it through the knob table.
     */
    CdpConfig cfg;
    Vam predictor;

    /**
     * Most candidates one scan can emit at any legal configuration:
     * every word of the line at scan step 1, each with the maximum
     * width on both sides.
     */
    static constexpr std::size_t maxEmitted =
        (lineBytes - wordBytes + 1) * (1 + 2 * maxWidthLines);
    /** scanFill's output, reserved to maxEmitted once (per-scan
     *  scratch: the prefetcher is stateless between scans). */
    std::vector<CdpCandidate> emitted;
    /** Scan dedupe: {trigger line} U the lines emitted so far; erased
     *  back to empty before scanFill returns. */
    LineSet seen{maxEmitted + 1};

    StatGroup dummyGroup;
    Scalar scans;
    Scalar rescans;
    Scalar candidates;
    Scalar widthLines;
    Scalar depthSuppressed;
};

} // namespace cdp

#endif // CDP_CORE_CONTENT_PREFETCHER_HH
