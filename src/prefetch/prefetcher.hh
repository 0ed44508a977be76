/**
 * @file
 * Common interface for miss-stream-driven prefetchers.
 *
 * The stride prefetcher (baseline, always on in the paper) and the
 * Markov prefetcher (Section 5 comparison) both watch a demand miss
 * stream and emit candidate virtual addresses. The content prefetcher
 * is deliberately *not* behind this interface: it consumes fill
 * contents, not miss addresses, which is the paper's whole point.
 */

#ifndef CDP_PREFETCH_PREFETCHER_HH
#define CDP_PREFETCH_PREFETCHER_HH

#include "common/inline_vec.hh"
#include "common/types.hh"

namespace cdp
{

/**
 * Most prefetches one observed miss can produce: the stride degree
 * and the Markov fan-out are both capped here (the knob table takes
 * its stride.degree and markov.fanout maxima from this constant, and
 * the prefetcher constructors refuse anything larger).
 */
constexpr unsigned maxPrefetchesPerMiss = 64;

/** Predictions for one observed miss, held inline (no heap). */
using PrefetchList = InlineVec<Addr, maxPrefetchesPerMiss>;

/**
 * Abstract miss-driven prefetcher.
 */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /**
     * Observe one demand miss.
     * @param pc program counter of the missing load
     * @param vaddr effective address that missed
     * @return virtual addresses to prefetch (possibly empty)
     */
    virtual PrefetchList observeMiss(Addr pc, Addr vaddr) = 0;

    /** Identifying name for stats and traces. */
    virtual const char *name() const = 0;
};

} // namespace cdp

#endif // CDP_PREFETCH_PREFETCHER_HH
