/**
 * @file
 * gshare branch predictor — Table 1 specifies a 16K-entry gshare with
 * a 28-cycle misprediction penalty (the penalty is charged by the
 * core, not here).
 */

#ifndef CDP_CPU_GSHARE_HH
#define CDP_CPU_GSHARE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "stats/stat.hh"

namespace cdp
{

namespace snap
{
class Writer;
class Reader;
} // namespace snap

/**
 * Global-history-xor-PC predictor with 2-bit saturating counters.
 */
class Gshare
{
  public:
    /**
     * @param entries pattern-history-table entries (power of two)
     */
    explicit Gshare(unsigned entries = 16384, StatGroup *stats = nullptr,
                    const std::string &name = "bp");

    /** The constructor's geometry rule, naming the parameter
     *  @p entries_name; empty when valid. */
    static std::string geometryError(unsigned entries,
                                     const char *entries_name = "entries");

    /** Predict the direction of the branch at @p pc. */
    bool predict(Addr pc) const;

    /**
     * Update predictor state with the actual outcome and record
     * whether the earlier prediction was correct.
     * @return true when the prediction was correct
     */
    bool update(Addr pc, bool taken);

    std::uint64_t lookupCount() const { return lookups.value(); }
    std::uint64_t mispredictCount() const { return mispredicts.value(); }

    /** Serialize PHT + global history (checkpointing). */
    void saveState(snap::Writer &w) const;
    void loadState(snap::Reader &r);

  private:
    unsigned index(Addr pc) const
    {
        return static_cast<unsigned>(((pc >> 2) ^ history) & mask);
    }

    // cdplint: transient(mask) -- derived from the PHT size at construction; geometry must match across restore
    unsigned mask;
    std::vector<std::uint8_t> pht; //!< 2-bit counters
    std::uint32_t history = 0;

    // cdplint: transient(dummyGroup, lookups, mispredicts) -- Stats are observational, reset at warm-up end, and travel via the stats dump, not the checkpoint
    StatGroup dummyGroup;
    Scalar lookups;
    Scalar mispredicts;
};

} // namespace cdp

#endif // CDP_CPU_GSHARE_HH
