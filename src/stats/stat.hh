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

#include <cstdint>
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
 * A fixed-bucket histogram. Samples outside the configured range are
 * accumulated in underflow/overflow buckets so no sample is lost.
 */
class Distribution
{
  public:
    Distribution() = default;

    /**
     * Register a histogram covering [lo, hi) with @p nbuckets equal
     * buckets.
     */
    Distribution(StatGroup &group, std::string name, std::string desc,
                 double lo, double hi, unsigned nbuckets);

    /** Record one sample. */
    void sample(double v);

    void reset();

    std::uint64_t count() const { return _count; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    double min() const { return _min; }
    double max() const { return _max; }
    const std::vector<std::uint64_t> &buckets() const { return _buckets; }
    std::uint64_t underflow() const { return _underflow; }
    std::uint64_t overflow() const { return _overflow; }
    const std::string &name() const { return _name; }

    /** Print "name mean=... [bucket counts]". */
    void print(std::ostream &os) const;

    /** Serialize the mutable sample state (checkpointing). */
    void saveState(snap::Writer &w) const;

    /** Restore state saved by saveState; geometry must match. */
    void loadState(snap::Reader &r);

  private:
    // cdplint: transient(_name, _desc, _lo, _hi, _bucketWidth) -- registration identity and bucket geometry are construction-time; loadState cross-checks geometry instead of overwriting it
    std::string _name;
    std::string _desc;
    double _lo = 0.0;
    double _hi = 1.0;
    double _bucketWidth = 1.0;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _underflow = 0;
    std::uint64_t _overflow = 0;
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
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
