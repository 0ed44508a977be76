/**
 * @file
 * Common interface for miss-stream-driven prefetchers.
 *
 * The stride prefetcher (the paper's baseline, on the L1 miss
 * stream), its next-line alternative (same stream) and the Markov
 * prefetcher (Section 5 comparison, on the L2 miss stream) each watch
 * a demand miss stream and emit candidate virtual addresses.
 * MemorySystem holds the ones the configuration switches on as one
 * ordered list and drives, checkpoints and dumps them only through
 * this interface. The content prefetcher is deliberately *not* behind
 * it: it consumes fill contents, not miss addresses, which is the
 * paper's whole point.
 */

#ifndef CDP_PREFETCH_PREFETCHER_HH
#define CDP_PREFETCH_PREFETCHER_HH

#include <cstdint>
#include <string>

#include "common/inline_vec.hh"
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
 * Most prefetches one observed miss can produce: the stride degree
 * and the Markov fan-out are both capped here (the knob table takes
 * its stride.degree and markov.fanout maxima from this constant, and
 * the prefetcher constructors refuse anything larger).
 */
constexpr unsigned maxPrefetchesPerMiss = 64;

/** Predictions for one observed miss, held inline (no heap). */
using PrefetchList = InlineVec<Addr, maxPrefetchesPerMiss>;

/** The demand miss stream a prefetcher watches (Figure 6). */
enum class MissStream : std::uint8_t
{
    L1, //!< every DL1 miss
    L2, //!< demand-load UL2 misses that start a fresh fill
};

/**
 * Abstract miss-driven prefetcher. It owns the `<name>.observed` and
 * `<name>.issued` counters and counts both around predict().
 */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;
    Prefetcher(const Prefetcher &) = delete;
    Prefetcher &operator=(const Prefetcher &) = delete;

    /**
     * Observe one demand miss.
     * @param pc program counter of the missing access
     * @param vaddr effective address that missed
     * @return virtual addresses to prefetch (possibly empty)
     */
    PrefetchList observeMiss(Addr pc, Addr vaddr)
    {
        ++observed;
        PrefetchList out = predict(pc, vaddr);
        issued += out.size();
        return out;
    }

    /** Identifying name: the prefix of its stats and its MSYS tag. */
    const char *name() const { return pfName; }

    /** The miss stream this prefetcher observes. */
    MissStream stream() const { return watched; }

    /**
     * Did this prefetcher recently predict @p line_va? Used to compute
     * the paper's *adjusted* coverage and accuracy (Figure 7:
     * "subtracting the content prefetches that would have also been
     * issued by the stride prefetcher").
     */
    virtual bool recentlyIssued(Addr /*line_va*/) const { return false; }

    std::uint64_t issuedCount() const { return issued.value(); }

    /** Serialize the prediction state (not the counters: STAT). */
    virtual void saveState(snap::Writer &w) const = 0;

    /** Restore; table geometry must match. */
    virtual void loadState(snap::Reader &r) = 0;

  protected:
    /** Registers `<name>.*` in @p stats (nullptr: a private sink). */
    Prefetcher(const char *name, MissStream stream, StatGroup *stats,
               const char *issued_desc)
        : pfName(name), watched(stream),
          observed(group(stats), std::string(name) + ".observed",
                   "demand misses observed"),
          issued(group(stats), std::string(name) + ".issued",
                 issued_desc)
    {
    }

    /** Where a subclass registers its own stats. */
    StatGroup &group(StatGroup *stats) { return stats ? *stats : sink; }

  private:
    /** The subclass's predictions for one observed miss. */
    virtual PrefetchList predict(Addr pc, Addr vaddr) = 0;

    const char *pfName;
    MissStream watched;
    StatGroup sink; //!< registration target when no group is supplied
    Scalar observed;
    Scalar issued;
};

} // namespace cdp

#endif // CDP_PREFETCH_PREFETCHER_HH
