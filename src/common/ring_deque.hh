/**
 * @file
 * Fixed-capacity double-ended queue over one ring buffer, allocated
 * once at construction. Replaces std::deque on the request path,
 * whose block management allocated on every few pushes.
 */

#ifndef CDP_COMMON_RING_DEQUE_HH
#define CDP_COMMON_RING_DEQUE_HH

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "check/check.hh"

namespace cdp
{

/**
 * Ring of at most `capacity` elements, indexed in FIFO order (0 is
 * the front). Pushing into a full ring throws std::length_error: the
 * owner sizes it from its own bound (arbiter capacity, history
 * window), so a full push is a logic error, never back-pressure.
 */
template <typename T>
class RingDeque
{
  public:
    explicit RingDeque(std::size_t capacity = 0) : buf(capacity) {}

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    bool full() const { return count == buf.size(); }

    T &operator[](std::size_t i) { return buf[slot(i)]; }
    const T &operator[](std::size_t i) const { return buf[slot(i)]; }

    T &front() { return buf[head]; }
    const T &front() const { return buf[head]; }
    T &back() { return (*this)[count - 1]; }
    const T &back() const { return (*this)[count - 1]; }

    void
    push_back(const T &v)
    {
        if (full())
            throw std::length_error("RingDeque: capacity exceeded");
        buf[slot(count)] = v;
        ++count;
    }

    void
    push_front(const T &v)
    {
        if (full())
            throw std::length_error("RingDeque: capacity exceeded");
        head = head == 0 ? buf.size() - 1 : head - 1;
        buf[head] = v;
        ++count;
    }

    void
    pop_front()
    {
        CDP_CHECK(count != 0);
        head = head + 1 == buf.size() ? 0 : head + 1;
        --count;
    }

    void
    pop_back()
    {
        CDP_CHECK(count != 0);
        --count;
    }

    /** Remove the element at FIFO index @p i, keeping the order of
     *  the rest (the later elements shift one place forward). */
    void
    erase(std::size_t i)
    {
        CDP_CHECK(i < count);
        for (; i + 1 < count; ++i)
            (*this)[i] = (*this)[i + 1];
        --count;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

  private:
    std::size_t
    slot(std::size_t i) const
    {
        const std::size_t s = head + i;
        return s >= buf.size() ? s - buf.size() : s;
    }

    std::vector<T> buf;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace cdp

#endif // CDP_COMMON_RING_DEQUE_HH
