/** @file
 * Differential tests for the fixed-capacity request-path containers
 * (src/common): LineMap against std::unordered_map and RingDeque
 * against std::deque, over long random operation sequences on tables
 * small enough that probe runs and the ring wrap around their ends.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "common/inline_vec.hh"
#include "common/line_map.hh"
#include "common/ring_deque.hh"
#include "common/rng.hh"

using namespace cdp;

namespace
{

/** Every entry of @p m, key-sorted (forEach runs in slot order). */
std::map<Addr, unsigned>
contents(const LineMap<unsigned> &m)
{
    std::map<Addr, unsigned> out;
    m.forEach([&](Addr k, unsigned v) { out.emplace(k, v); });
    return out;
}

/** Run @p ops random operations; keys come from @p universe lines. */
void
differentialMapRun(std::size_t max_entries, unsigned universe,
                   std::uint64_t seed, int ops)
{
    LineMap<unsigned> m(max_entries);
    std::unordered_map<Addr, unsigned> ref;
    Rng rng(seed);
    for (int i = 0; i < ops; ++i) {
        const Addr key = static_cast<Addr>(rng.below(universe)) *
                         lineBytes * 977; // spread over pages
        const unsigned op = static_cast<unsigned>(rng.below(10));
        if (op < 4) {
            const unsigned v = rng.next32();
            try {
                const auto [slot, fresh] = m.emplace(key, v);
                const auto [it, ref_fresh] = ref.emplace(key, v);
                ASSERT_EQ(fresh, ref_fresh) << "op " << i;
                ASSERT_EQ(*slot, it->second) << "op " << i;
            } catch (const std::length_error &) {
                // Full table: only a fresh key may be refused.
                ASSERT_EQ(ref.count(key), 0u) << "op " << i;
                ASSERT_GE(m.size() + 2, 2 * max_entries) << "op " << i;
            }
        } else if (op < 7) {
            ASSERT_EQ(m.erase(key), ref.erase(key)) << "op " << i;
        } else if (op < 9) {
            const unsigned *v = m.find(key);
            const auto it = ref.find(key);
            ASSERT_EQ(v != nullptr, it != ref.end()) << "op " << i;
            if (v) {
                ASSERT_EQ(*v, it->second) << "op " << i;
            }
            ASSERT_EQ(m.contains(key), it != ref.end()) << "op " << i;
        } else if (unsigned *v = m.find(key)) {
            ++*v; // mutate through the returned pointer
            ++ref[key];
        }
        ASSERT_EQ(m.size(), ref.size()) << "op " << i;
    }
    const std::map<Addr, unsigned> sorted(ref.begin(), ref.end());
    EXPECT_EQ(contents(m), sorted);
}

} // namespace

TEST(LineMap, MatchesUnorderedMapOnADenseTable)
{
    // 4 entries -> 8 slots, 24 candidate keys: runs wrap the table end
    // on nearly every insert and erase.
    for (std::uint64_t seed = 1; seed <= 20; ++seed)
        differentialMapRun(4, 24, seed, 4000);
}

TEST(LineMap, MatchesUnorderedMapAtTheOwnersBound)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed)
        differentialMapRun(100, 300, seed, 20000);
}

TEST(LineMap, ReserveGrowsAndKeepsEveryEntry)
{
    // The backing store's growth pattern: reserve one more, then
    // insert, from the 8-slot minimum up through many rehashes.
    LineMap<unsigned> m(0);
    std::map<Addr, unsigned> ref;
    for (unsigned i = 0; i < 5000; ++i) {
        const Addr key = (i * 7919u % 48'000u) * pageBytes;
        m.reserve(m.size() + 1);
        const auto [v, fresh] = m.emplace(key, i);
        ASSERT_EQ(fresh, ref.emplace(key, i).second) << i;
        ASSERT_EQ(*v, ref.at(key)) << i;
    }
    EXPECT_EQ(contents(m), ref);
    m.reserve(1); // never shrinks
    EXPECT_EQ(contents(m), ref);
}

TEST(LineMap, EmptiedByErasesBehavesLikeFresh)
{
    LineSet s(16);
    for (int round = 0; round < 50; ++round) {
        for (Addr k = 0; k < 31; ++k)
            ASSERT_TRUE(s.emplace(k * lineBytes * 3).second);
        EXPECT_THROW(s.emplace(999 * lineBytes), std::length_error);
        for (Addr k = 0; k < 31; ++k)
            ASSERT_EQ(s.erase(k * lineBytes * 3), 1u);
        ASSERT_TRUE(s.empty());
        for (Addr k = 0; k < 31; ++k)
            ASSERT_FALSE(s.contains(k * lineBytes * 3));
    }
}

TEST(LineMap, ClearEmptiesEverySlot)
{
    LineMap<unsigned> m(8);
    for (Addr k = 0; k < 8; ++k)
        m.emplace(k * lineBytes, k);
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_TRUE(contents(m).empty());
    EXPECT_FALSE(m.contains(0));
}

TEST(RingDeque, MatchesStdDeque)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const std::size_t cap = 1 + seed % 9;
        RingDeque<unsigned> q(cap);
        std::deque<unsigned> ref;
        Rng rng(seed);
        for (int i = 0; i < 5000; ++i) {
            const unsigned v = rng.next32();
            switch (rng.below(7)) {
              case 0:
              case 1:
                if (ref.size() == cap) {
                    ASSERT_THROW(q.push_back(v), std::length_error);
                } else {
                    q.push_back(v);
                    ref.push_back(v);
                }
                break;
              case 2:
                if (ref.size() == cap) {
                    ASSERT_THROW(q.push_front(v), std::length_error);
                } else {
                    q.push_front(v);
                    ref.push_front(v);
                }
                break;
              case 3:
                if (!ref.empty()) {
                    q.pop_front();
                    ref.pop_front();
                }
                break;
              case 4:
                if (!ref.empty()) {
                    q.pop_back();
                    ref.pop_back();
                }
                break;
              case 5:
                // Erase from the middle, as extractPrefetch does.
                if (!ref.empty()) {
                    const std::size_t at = rng.below(ref.size());
                    q.erase(at);
                    ref.erase(ref.begin() +
                              static_cast<std::ptrdiff_t>(at));
                }
                break;
              default:
                if (!ref.empty()) {
                    ASSERT_EQ(q.front(), ref.front());
                    ASSERT_EQ(q.back(), ref.back());
                    const std::size_t at = rng.below(ref.size());
                    ASSERT_EQ(q[at], ref[at]);
                }
                break;
            }
            ASSERT_EQ(q.size(), ref.size()) << "seed " << seed;
            ASSERT_EQ(q.full(), ref.size() == cap);
            for (std::size_t k = 0; k < ref.size(); ++k)
                ASSERT_EQ(q[k], ref[k]) << "seed " << seed << " op " << i;
        }
    }
}

TEST(InlineVec, BoundedPushAndEquality)
{
    InlineVec<int, 3> a;
    a.push_back(1);
    a.push_back(2);
    InlineVec<int, 3> b = a;
    EXPECT_EQ(a, b);
    b.push_back(3);
    EXPECT_FALSE(a == b);
    EXPECT_THROW(b.push_back(4), std::length_error);
    b.clear();
    EXPECT_TRUE(b.empty());
}
