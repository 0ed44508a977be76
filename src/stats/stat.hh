/**
 * @file
 * A small gem5-flavoured statistics package.
 *
 * Components register named statistics against a StatGroup; the group
 * can be reset at the end of warm-up (the paper discards everything
 * before 7.5 M retired uops) and dumped as text at the end of a run.
 * Two kinds of statistic are provided, plus counters:
 *
 *  - Scalar: a named 64-bit counter that owns its value.
 *  - Distribution: a bucketed histogram with mean/min/max.
 *  - Counters: any std::uint64_t registered by address through
 *    StatGroup::add. Every row of the memory-system counter table
 *    (CDP_MEM_COUNTERS) registers this way, and Scalars register
 *    through the same entry, so dump, reset, checkpoint and lookup
 *    walk one list of integer counters.
 */

#ifndef CDP_STATS_STAT_HH
#define CDP_STATS_STAT_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

namespace cdp
{

namespace snap
{
class Writer;
class Reader;
} // namespace snap

class StatGroup;

/**
 * A named 64-bit counter with an optional description. Scalars are
 * the workhorse statistic: hits, misses, prefetches issued, etc. The
 * name and description live in the group's counter entry.
 */
class Scalar
{
  public:
    Scalar() = default;

    /** Register this scalar with @p group under @p name. */
    Scalar(StatGroup &group, std::string name, std::string desc);

    Scalar &operator++() { ++_value; return *this; }
    Scalar &operator+=(std::uint64_t v) { _value += v; return *this; }
    void set(std::uint64_t v) { _value = v; }
    void reset() { _value = 0; }

    std::uint64_t value() const { return _value; }

  private:
    std::uint64_t _value = 0;
};

/**
 * A fixed-bucket histogram of whole-number samples (cycles, depths).
 * Samples outside the configured range are accumulated in
 * underflow/overflow buckets so no sample is lost. Sampling is
 * integer arithmetic only, with no divide; the mean is computed when
 * printed.
 */
class Distribution
{
  public:
    Distribution() = default;

    /**
     * Register a histogram covering [lo, hi) with @p nbuckets equal
     * buckets of (hi - lo) / nbuckets (at least 1); a sample past the
     * last whole bucket but below @p hi lands in the last one.
     */
    Distribution(StatGroup &group, std::string name, std::string desc,
                 std::uint64_t lo, std::uint64_t hi, unsigned nbuckets);

    /** Record one sample. */
    void
    sample(std::uint64_t v)
    {
        ++_count;
        _sum += v;
        _min = std::min(_min, v);
        _max = std::max(_max, v);
        if (v < _lo) {
            ++_underflow;
        } else if (v >= _hi) {
            ++_overflow;
        } else {
            // (v - lo) / width by a multiply: q is the quotient or one
            // less, and the remainder test corrects it.
            const std::uint64_t x = v - _lo;
            std::uint64_t q = static_cast<std::uint64_t>(
                (static_cast<unsigned __int128>(x) * _widthRecip) >> 64);
            q += x - q * _bucketWidth >= _bucketWidth;
            ++_buckets[std::min<std::uint64_t>(q, _buckets.size() - 1)];
        }
    }

    void reset();

    std::uint64_t count() const { return _count; }
    double mean() const { return _count ? double(_sum) / _count : 0.0; }
    std::uint64_t min() const { return _min; }
    std::uint64_t max() const { return _max; }
    const std::vector<std::uint64_t> &buckets() const { return _buckets; }
    std::uint64_t underflow() const { return _underflow; }
    std::uint64_t overflow() const { return _overflow; }
    const std::string &name() const { return _name; }

    /** Print "name count=... mean=... min=... max=... buckets=[...]". */
    void print(std::ostream &os) const;

    /** Serialize the mutable sample state (checkpointing). */
    void saveState(snap::Writer &w) const;

    /** Restore state saved by saveState; geometry must match. */
    void loadState(snap::Reader &r);

  private:
    // cdplint: transient(_name, _desc, _lo, _hi, _bucketWidth, _widthRecip) -- registration identity and bucket geometry are construction-time; loadState cross-checks geometry instead of overwriting it
    std::string _name;
    std::string _desc;
    std::uint64_t _lo = 0;
    std::uint64_t _hi = 1;
    std::uint64_t _bucketWidth = 1;
    std::uint64_t _widthRecip = ~std::uint64_t{0}; //!< (2^64 - 1) / width
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _underflow = 0;
    std::uint64_t _overflow = 0;
    std::uint64_t _count = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _min = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t _max = 0;
};

/**
 * Owner of a set of statistics. Components hold a reference to a
 * StatGroup and construct their stats against it; the simulator owns
 * the group and resets/dumps it around the measurement phase.
 *
 * Registration stores raw pointers, so statistics must outlive the
 * group or be deregistered by destroying the group first; in this
 * code base both the group and the stats live inside the same
 * simulator object, which guarantees the ordering.
 */
class StatGroup
{
  public:
    StatGroup() = default;
    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /**
     * Register the integer counter stored at @p value under @p name.
     * The counter must outlive the group's last use.
     */
    void add(std::string name, std::string desc, std::uint64_t *value);
    void add(Distribution *d) { dists.push_back(d); }

    /** Zero every counter and distribution (end of warm-up). */
    void resetAll();

    /**
     * Dump every counter, sorted by name, then every distribution in
     * registration order, to @p os.
     */
    void dump(std::ostream &os) const;

    /**
     * Look up an integer counter by name.
     * @return nullptr when no counter has that name.
     */
    const std::uint64_t *find(const std::string &name) const;

    /**
     * Serialize every counter and distribution value, keyed by name
     * in sorted order. Part of the checkpoint format, DESIGN.md §11.
     */
    void saveValues(snap::Writer &w) const;

    /**
     * Restore values saved by saveValues into the registered stats.
     * The names must match the registered ones exactly and arrive in
     * strictly increasing order; any skew, repeat or reordering
     * throws snap::SnapshotError naming the stat.
     */
    void loadValues(snap::Reader &r);

  private:
    /** One integer counter: where it lives and how it is dumped. */
    struct Counter
    {
        std::string name;
        std::string desc;
        std::uint64_t *value;
    };

    std::vector<Counter> counters; //!< sorted by name
    std::vector<Distribution *> dists;
};

} // namespace cdp

#endif // CDP_STATS_STAT_HH
