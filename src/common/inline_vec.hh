/**
 * @file
 * Fixed-capacity vector stored inline: the result type of the
 * per-request producers (VAM line scan, miss-stream prefetchers, page
 * walks), whose output size is bounded by a compile-time constant.
 * Returning one by value costs no heap traffic, unlike std::vector.
 */

#ifndef CDP_COMMON_INLINE_VEC_HH
#define CDP_COMMON_INLINE_VEC_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <stdexcept>

namespace cdp
{

/**
 * At most @p N elements of trivially copyable @p T, in insertion
 * order. Pushing past the capacity throws std::length_error; every
 * producer bounds its output at construction so that never happens.
 */
template <typename T, std::size_t N>
class InlineVec
{
  public:
    using value_type = T;
    using size_type = std::size_t;
    using iterator = T *;
    using const_iterator = const T *;

    InlineVec() = default;
    // Copies move only the live prefix, never the uninitialized tail.
    InlineVec(const InlineVec &o) : count(o.count)
    {
        std::copy(o.begin(), o.end(), items.data());
    }
    InlineVec &
    operator=(const InlineVec &o)
    {
        count = o.count;
        std::copy(o.begin(), o.end(), items.data());
        return *this;
    }

    void
    push_back(const T &v)
    {
        if (count == N)
            throw std::length_error("InlineVec: capacity exceeded");
        items[count++] = v;
    }

    void clear() { count = 0; }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    T &operator[](std::size_t i) { return items[i]; }
    const T &operator[](std::size_t i) const { return items[i]; }

    iterator begin() { return items.data(); }
    iterator end() { return items.data() + count; }
    const_iterator begin() const { return items.data(); }
    const_iterator end() const { return items.data() + count; }

    friend bool
    operator==(const InlineVec &a, const InlineVec &b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

  private:
    // Left uninitialized: only the first `count` slots are ever read.
    std::array<T, N> items;
    std::size_t count = 0;
};

} // namespace cdp

#endif // CDP_COMMON_INLINE_VEC_HH
