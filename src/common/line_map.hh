/**
 * @file
 * Fixed-capacity open-addressed hash map keyed by cache-line address,
 * allocated once at construction. Replaces std::unordered_map and
 * std::unordered_set on the request path (MSHRs, arbiter membership,
 * the stride recent window, scan dedupe), which allocated a node per
 * insert.
 */

#ifndef CDP_COMMON_LINE_MAP_HH
#define CDP_COMMON_LINE_MAP_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace cdp
{

/** Value type of a LineMap used as a set. */
struct NoValue
{
};

/**
 * Linear-probing map from line-aligned Addr to @p V. The table holds
 * the smallest power of two >= 2 x @p max_entries slots (at least 8),
 * so probe chains stay short at the owner's bound; erase uses
 * backward-shift deletion, so there are no tombstones and a table
 * that is emptied by erases is as fast as a fresh one. Iteration
 * order (forEach) is slot order: deterministic, but not key order.
 */
template <typename V>
class LineMap
{
  public:
    explicit LineMap(std::size_t max_entries)
    {
        std::size_t n = 8;
        unsigned bits = 3;
        while (n < 2 * max_entries) {
            n *= 2;
            ++bits;
        }
        slots.resize(n);
        mask = n - 1;
        shift = 64 - bits;
    }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    V *
    find(Addr key)
    {
        const std::size_t i = locate(key);
        return i == npos ? nullptr : &slots[i].value;
    }

    const V *
    find(Addr key) const
    {
        const std::size_t i = locate(key);
        return i == npos ? nullptr : &slots[i].value;
    }

    bool contains(Addr key) const { return locate(key) != npos; }

    /**
     * Insert @p key -> @p value unless @p key is present.
     * @return the resident value and whether it was inserted
     * @throws std::length_error when only one free slot would remain
     */
    std::pair<V *, bool>
    emplace(Addr key, const V &value = V{})
    {
        CDP_CHECK(key == lineAlign(key));
        std::size_t i = home(key);
        while (slots[i].key != emptyKey) {
            if (slots[i].key == key)
                return {&slots[i].value, false};
            i = (i + 1) & mask;
        }
        if (count + 2 > slots.size())
            throw std::length_error("LineMap: capacity exceeded");
        slots[i].key = key;
        slots[i].value = value;
        ++count;
        return {&slots[i].value, true};
    }

    /** Remove @p key; returns the number of entries erased (0 or 1). */
    std::size_t
    erase(Addr key)
    {
        std::size_t i = locate(key);
        if (i == npos)
            return 0;
        // Backward shift: pull every later member of the probe run
        // whose home does not lie in (i, j] into the hole.
        for (std::size_t j = (i + 1) & mask; slots[j].key != emptyKey;
             j = (j + 1) & mask) {
            const std::size_t h = home(slots[j].key);
            if (((j - h) & mask) >= ((j - i) & mask)) {
                slots[i] = slots[j];
                i = j;
            }
        }
        slots[i].key = emptyKey;
        --count;
        return 1;
    }

    /**
     * Make room for @p max_entries at the construction load factor,
     * rehashing into a table at least twice as large when this one is
     * too small. For owners with no fixed bound (the backing store's
     * frame index); the request-path maps keep their construction
     * size and never call it.
     */
    void
    reserve(std::size_t max_entries)
    {
        if (2 * max_entries <= slots.size())
            return;
        LineMap bigger(std::max(max_entries, slots.size()));
        forEach([&](Addr key, const V &value) {
            bigger.emplace(key, value);
        });
        *this = std::move(bigger);
    }

    void
    clear()
    {
        for (Slot &s : slots)
            s.key = emptyKey;
        count = 0;
    }

    /** Call @p f(key, value) for every entry, in slot order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (const Slot &s : slots) {
            if (s.key != emptyKey)
                f(s.key, s.value);
        }
    }

  private:
    /** Never a line address, so it can mark a free slot. */
    static constexpr Addr emptyKey = ~Addr{0};
    static constexpr std::size_t npos = ~std::size_t{0};

    struct Slot
    {
        Addr key = emptyKey;
        [[no_unique_address]] V value{};
    };

    std::size_t
    home(Addr key) const
    {
        // Fibonacci hashing: the top bits of the product mix every
        // key bit, including the page and set bits above the offset.
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ull) >>
            shift);
    }

    std::size_t
    locate(Addr key) const
    {
        for (std::size_t i = home(key); slots[i].key != emptyKey;
             i = (i + 1) & mask) {
            if (slots[i].key == key)
                return i;
        }
        return npos;
    }

    std::vector<Slot> slots;
    std::size_t mask = 0;
    unsigned shift = 0;
    std::size_t count = 0;
};

/** A LineMap carrying no values. */
using LineSet = LineMap<NoValue>;

} // namespace cdp

#endif // CDP_COMMON_LINE_MAP_HH
