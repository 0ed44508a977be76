/**
 * @file
 * Adaptive (runtime) tuning of the VAM heuristic — the future-work
 * direction the paper's authors state they are investigating
 * (Section 4.1: the chosen bit combinations "are specific to the
 * applications, compilers, and operating systems utilized in this
 * study. They would require further tuning if the content prefetcher
 * was going to be used beyond the scope of this study. One area of
 * research currently being investigated by the authors is adaptive
 * (runtime) heuristics for adjusting these parameters.")
 *
 * The controller watches issued/useful content-prefetch counts over
 * fixed-size epochs and nudges the predictor:
 *
 *  - accuracy below the low-water mark  -> tighten: add a compare
 *    bit (halving the predicted address range); if already at the
 *    maximum, shed a next-line of width instead;
 *  - accuracy above the high-water mark -> loosen: drop a compare
 *    bit (doubling coverage); if already at the minimum, add width.
 *
 * A hysteresis band between the marks leaves the configuration
 * alone, and adjustments are rate-limited to one step per epoch so a
 * burst of (un)lucky prefetches cannot slam the knobs.
 */

#ifndef CDP_CORE_ADAPTIVE_VAM_HH
#define CDP_CORE_ADAPTIVE_VAM_HH

#include <cstdint>
#include <string>

#include "core/content_prefetcher.hh"
#include "stats/stat.hh"

namespace cdp
{

namespace snap
{
class Writer;
class Reader;
} // namespace snap

/** Knobs of the adaptive controller. */
struct AdaptiveVamConfig
{
    bool enabled = false;
    /** Content prefetches issued per evaluation epoch. */
    std::uint64_t epochPrefetches = 2048;
    /** Tighten when epoch accuracy falls below this. */
    double lowAccuracy = 0.10;
    /** Loosen when epoch accuracy rises above this. */
    double highAccuracy = 0.40;
    unsigned minCompareBits = 8;
    unsigned maxCompareBits = 14;
    /** Allow the controller to trade width as a secondary knob. */
    bool adjustWidth = true;
    unsigned minNextLines = 0;
    unsigned maxNextLines = 4;

    bool operator==(const AdaptiveVamConfig &) const = default;
};

/**
 * Epoch-based accuracy controller for the content prefetcher.
 */
class AdaptiveVamController
{
  public:
    explicit AdaptiveVamController(const AdaptiveVamConfig &cfg,
                                   StatGroup *stats = nullptr,
                                   const std::string &name =
                                       "adaptive");

    bool enabled() const { return cfg.enabled; }

    /** One content prefetch was issued to memory. */
    void noteIssued() { ++issuedInEpoch; }

    /** One content prefetch was demand-used (full or partial). */
    void noteUseful() { ++usefulInEpoch; }

    /** Is the current epoch complete? */
    bool
    epochElapsed() const
    {
        return cfg.enabled && issuedInEpoch >= cfg.epochPrefetches;
    }

    /**
     * Evaluate the finished epoch and, when warranted, adjust
     * @p target in place (the caller owns applying the change to the
     * live prefetcher). Resets the epoch counters.
     * @return true when @p target was modified
     */
    bool evaluate(CdpConfig &target);

    double
    lastEpochAccuracy() const
    {
        return lastAccuracy;
    }

    std::uint64_t epochsEvaluated() const { return epochs.value(); }
    std::uint64_t tightenCount() const { return tightens.value(); }
    std::uint64_t loosenCount() const { return loosens.value(); }

    /** Serialize mid-epoch progress (checkpointing). */
    void saveState(snap::Writer &w) const;
    void loadState(snap::Reader &r);

  private:
    // cdplint: transient(cfg) -- construction-time policy knobs; the restoring side's own config governs
    AdaptiveVamConfig cfg;
    std::uint64_t issuedInEpoch = 0;
    std::uint64_t usefulInEpoch = 0;
    double lastAccuracy = 0.0;

    // cdplint: transient(dummyGroup, epochs, tightens, loosens) -- Stats are observational, reset at warm-up end, and travel via the stats dump, not the checkpoint
    StatGroup dummyGroup;
    Scalar epochs;
    Scalar tightens;
    Scalar loosens;
};

} // namespace cdp

#endif // CDP_CORE_ADAPTIVE_VAM_HH
