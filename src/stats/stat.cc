#include "stats/stat.hh"

#include <algorithm>
#include <iomanip>
#include <limits>

#include "snapshot/ckpt_io.hh"

namespace cdp
{

Scalar::Scalar(StatGroup &group, std::string name, std::string desc)
{
    group.add(std::move(name), std::move(desc), &_value);
}

Distribution::Distribution(StatGroup &group, std::string name,
                           std::string desc, std::uint64_t lo,
                           std::uint64_t hi, unsigned nbuckets)
    : _name(std::move(name)), _desc(std::move(desc)), _lo(lo), _hi(hi),
      _bucketWidth(std::max<std::uint64_t>(
          (hi - lo) / (nbuckets ? nbuckets : 1), 1)),
      _widthRecip(~std::uint64_t{0} / _bucketWidth),
      _buckets(nbuckets ? nbuckets : 1, 0)
{
    group.add(this);
}

void
Distribution::reset()
{
    std::fill(_buckets.begin(), _buckets.end(), 0);
    _underflow = _overflow = _count = _sum = 0;
    _min = std::numeric_limits<std::uint64_t>::max();
    _max = 0;
}

void
Distribution::print(std::ostream &os) const
{
    os << _name << " count=" << _count;
    if (_count) {
        os << std::fixed << std::setprecision(6) << " mean=" << mean()
           << " min=" << double(_min) << " max=" << double(_max);
    }
    os << " buckets=[";
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (i)
            os << ' ';
        os << _buckets[i];
    }
    os << "] under=" << _underflow << " over=" << _overflow;
}

void
StatGroup::add(std::string name, std::string desc, std::uint64_t *value)
{
    const auto at = std::upper_bound(
        counters.begin(), counters.end(), name,
        [](const std::string &n, const Counter &c) { return n < c.name; });
    counters.insert(at, Counter{std::move(name), std::move(desc), value});
}

void
StatGroup::resetAll()
{
    for (const Counter &c : counters)
        *c.value = 0;
    for (auto *d : dists)
        d->reset();
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const Counter &c : counters) {
        os << std::left << std::setw(48) << c.name << ' ' << std::right
           << std::setw(16) << *c.value << "  # " << c.desc << '\n';
    }
    for (const auto *d : dists) {
        d->print(os);
        os << '\n';
    }
}

void
Distribution::saveState(snap::Writer &w) const
{
    w.u64(_buckets.size());
    for (const std::uint64_t b : _buckets)
        w.u64(b);
    w.u64(_underflow);
    w.u64(_overflow);
    w.u64(_count);
    w.u64(_sum);
    w.u64(_min);
    w.u64(_max);
}

void
Distribution::loadState(snap::Reader &r)
{
    const std::uint64_t n = r.u64();
    if (n != _buckets.size())
        r.fail("distribution '" + _name + "' has " +
               std::to_string(_buckets.size()) + " buckets, checkpoint has " +
               std::to_string(n));
    for (auto &b : _buckets)
        b = r.u64();
    _underflow = r.u64();
    _overflow = r.u64();
    _count = r.u64();
    _sum = r.u64();
    _min = r.u64();
    _max = r.u64();
}

namespace
{

/** The distributions of @p dists sorted by name (checkpoint order). */
std::vector<Distribution *>
sortedByName(const std::vector<Distribution *> &dists)
{
    std::vector<Distribution *> out(dists);
    std::sort(out.begin(), out.end(),
              [](const Distribution *a, const Distribution *b) {
                  return a->name() < b->name();
              });
    return out;
}

/**
 * Read the name of the @p i-th @p kind of a STAT section and match it
 * against @p expected, the i-th registered name. saveValues writes
 * names in sorted order, so each must sort strictly after @p prev: a
 * repeat or an inversion is a corrupt section that would otherwise
 * leave some stat unrestored.
 */
void
expectName(snap::Reader &r, std::uint64_t i, std::string &prev,
           const std::string &expected, const char *kind)
{
    std::string name = r.str();
    const std::string what = "checkpoint " + std::string(kind) + " '";
    if (i != 0 && name <= prev)
        r.fail(what + name + "' " +
               (name == prev ? "appears twice" : "is out of order"));
    if (name < expected)
        r.fail(what + name + "' is unknown to this simulator");
    if (name != expected)
        r.fail(what + expected + "' is missing from the checkpoint");
    prev = std::move(name);
}

} // namespace

void
StatGroup::saveValues(snap::Writer &w) const
{
    w.u64(counters.size());
    for (const Counter &c : counters) {
        w.str(c.name);
        w.u64(*c.value);
    }
    const std::vector<Distribution *> dsorted = sortedByName(dists);
    w.u64(dsorted.size());
    for (const auto *d : dsorted) {
        w.str(d->name());
        d->saveState(w);
    }
}

void
StatGroup::loadValues(snap::Reader &r)
{
    // Both lists are sorted by name, so with equal counts and
    // strictly increasing names the i-th name must be the i-th stat.
    const std::uint64_t ncounters = r.u64();
    if (ncounters != counters.size())
        r.fail("checkpoint has " + std::to_string(ncounters) +
               " counters, this simulator registers " +
               std::to_string(counters.size()));
    std::string prev;
    for (std::uint64_t i = 0; i < ncounters; ++i) {
        expectName(r, i, prev, counters[i].name, "stat");
        *counters[i].value = r.u64();
    }

    const std::vector<Distribution *> dsorted = sortedByName(dists);
    const std::uint64_t ndists = r.u64();
    if (ndists != dsorted.size())
        r.fail("checkpoint has " + std::to_string(ndists) +
               " distributions, this simulator registers " +
               std::to_string(dsorted.size()));
    for (std::uint64_t i = 0; i < ndists; ++i) {
        expectName(r, i, prev, dsorted[i]->name(), "distribution");
        dsorted[i]->loadState(r);
    }
}

const std::uint64_t *
StatGroup::find(const std::string &name) const
{
    const auto it = std::lower_bound(
        counters.begin(), counters.end(), name,
        [](const Counter &c, const std::string &n) { return c.name < n; });
    return it != counters.end() && it->name == name ? it->value : nullptr;
}

} // namespace cdp
